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
Should standard input end before the last record (the flow failed), it
exits with 1.  Should a file fail to open or write, it prints the error,
still reads standard input to its end, and exits with 1, so that the CLI
learns of the failure only when it ends the stream.  It removes no file:
after a failed run the CLI removes the CSVs, on either path.
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
    try:
        files = [open(path, "w") for path in pairs[1::2]]
        for n, fh in zip(counts, files):
            fh.write(header(n) + "\n")
        size = 8 * (1 + sum(counts))
        for _ in range(int(rows)):
            record = read(size)
            if len(record) < size:
                return 1  # the flow failed, and reports that itself
            values = memoryview(record).cast("d").tolist()
            t, start = values[0], 1
            for n, fh in zip(counts, files):
                fh.write(line([t, *values[start:start + n]]) + "\n")
                start += n
        for fh in files:
            fh.close()
        return 0
    except OSError as err:
        print(f"trajectory writer: {err}", file=sys.stderr)
        while read(1 << 16):  # so that the flow still runs to its end
            pass
        return 1


if __name__ == "__main__":
    status = main(sys.argv[1:])
    # skip the interpreter's teardown, about 4 ms that the CLI would wait for;
    # a file left open here belongs to a failed run, whose CSVs the CLI removes
    sys.stderr.flush()
    os._exit(status)
