"""The text of a trajectory CSV, and the helper process that writes one while a flow runs.

A trajectory CSV has the header ``t,particle_0,...,particle_{N-1}`` and one
line per step, ``t`` then the positions, each float as its repr (the
shortest text that reads back to the same float).  flow.trajectory_csv
writes it from a finished flow; the CLI can instead start this file as a
script, which imports only the standard library:

    python -I -S _trajectory_text.py ROWS N_0 PATH_0 [N_1 PATH_1 ...]

It reads ROWS records from standard input, each the float64 buffer
``[t, positions of population 0, ..., positions of the last population]``
(N_i values for population i), and writes each record's lines to the
populations' CSVs as it comes, the same bytes that trajectory_csv writes.
Should standard input end before the last record (the flow failed), or a
file fail to open or write, it removes the files it opened and exits with
1; after a failed file it still reads standard input to its end.
"""

import os
import sys


def header(n: int) -> str:
    return "t," + ",".join(f"particle_{j}" for j in range(n))


def line(values) -> str:
    return ",".join(map(repr, values))


def main(argv) -> int:
    rows, *pairs = argv
    counts = [int(n) for n in pairs[0::2]]
    read = sys.stdin.buffer.read
    files = []
    try:
        for path, n in zip(pairs[1::2], counts):
            files.append(open(path, "w"))
            files[-1].write(header(n) + "\n")
        size = 8 * (1 + sum(counts))
        for _ in range(int(rows)):
            record = read(size)
            if len(record) < size:
                raise EOFError  # the flow failed, and reports that itself
            values = memoryview(record).cast("d").tolist()
            t, start = values[0], 1
            for n, fh in zip(counts, files):
                fh.write(line([t, *values[start:start + n]]) + "\n")
                start += n
        for fh in files:
            fh.close()
        return 0
    except (EOFError, OSError) as err:
        if isinstance(err, OSError):
            print(f"trajectory writer: {err}", file=sys.stderr)
            while read(1 << 16):  # so that the flow still runs to its end
                pass
        for fh in files:
            try:
                fh.close()
            except OSError:
                pass
            os.remove(fh.name)
        return 1


if __name__ == "__main__":
    status = main(sys.argv[1:])
    # every file is closed by now: skip the interpreter's teardown, about 4 ms
    # that the CLI would wait for
    sys.stderr.flush()
    os._exit(status)
