"""The text of a trajectory CSV, formatted in whole-array passes.

A trajectory CSV has the header ``t,particle_0,...,particle_{N-1}`` and one
line per step, ``t`` then the positions, each float as its repr: the
shortest text that reads back to the same float (Steele and White, and Gay,
PLDI 1990).  write() makes exactly the bytes of ``",".join(map(repr, row))``
for every row, a block of rows at a time: at most BLOCK values, or one row.

A value x with 1e-4 <= |x| < 1e16 whose significand is not a power of two
takes the fast path.  With k = 16 - floor(log10 |x|), V = |x| 10^k lies in
[10^16, 10^17), and Dekker's product (Numer. Math. 1971) gives it exactly as
D + f, D an integer and 0 <= f < 1.  The floats that read back as x are
those within half its gap, U = spacing(x) 10^k / 2 in units of V, and
0.55 < U < 11.2.  repr's digits are those of M, the nearest multiple of 10^r
to V for the largest r whose nearest multiple lies within U, with M's
trailing zeros dropped.  As U < 50, one multiple of 100 at most lies within
U, and when it does, it is M for that largest r: so M is the multiple of
100, of 10 or the integer nearest V, the first one within U.  repr writes
these x in fixed notation: M's digits with the decimal point after the
first floor(log10 |x|) + 1 of them.

Every number compared is exact or within 1e-13 of it.  A value is taken as
uncertain when a decision that picked M lies within MARGIN of it (a tie
between two nearest multiples, or a multiple on the edge of the interval),
when floor(log10 |x|) was off by one (D below 10^16, or M at 10^17 or
above), and when M would carry to 10^17 (which no float of the range
does).  Uncertain values and all others, 0.0 and -0.0, inf and nan,
exponent notation and powers of two, are formatted by repr and spliced
into their places, so that no byte depends on the fast path being
complete.

Every pass of a block writes into one set of work arrays (_work), allocated
at a thread's first block and kept for every later one, so that a block
allocates and frees no array.  Allocated per block, the temporaries (about
250 bytes per value) went back to the system when they were freed, as glibc
trims its heap, and the next block faulted every page of them in again.
Each thread holds its own set, so that two threads writing at once never
share one.  What is still allocated is the text, made and written CHUNK
values at a time: their bytes, the bytes with the NULs dropped and, if a
value is uncertain, the formatted text, under 72 KiB together, which the
128 KiB of free heap that glibc keeps at its top can hold.
"""

import threading
from functools import cache

import numpy as np

BLOCK = 8192  # the most values formatted at once: a block's rows share one set of passes
CHUNK = 1024  # the most values whose text is made and written at once (see above)
MARGIN = 1e-9  # in units of V, far above the 1e-13 by which a decision can be off
POW10 = np.array([float(10 ** k) for k in range(23)])  # exact doubles
# POW10 split into halves of at most 26 bits, as Dekker's product needs
_SPLIT = 134217729.0  # 2^27 + 1
POW10_HI = POW10 * _SPLIT - (POW10 * _SPLIT - POW10)
POW10_LO = POW10 - POW10_HI
# DIGITS[v]: the four ASCII digits of v < 10^4, as the bytes of one uint32, from the
# two of each v < 100 as the bytes of one (12336 is "00"; the first byte is the low one)
_TWO = (12336 + np.arange(100) // 10 + np.arange(100) % 10 * 256).astype(np.uint32)
DIGITS = (_TWO[:, None] | _TWO << 16).ravel()
COLUMN = np.arange(22, dtype=np.uint8)[:, None]  # a value's characters, as below
# the work arrays of a block of S values, by name: (rows, dtype), each row S long
WORK = {
    "block": (1, np.float64),  # the values, row after row
    "float": (12, np.float64),  # _shortest's
    "int": (7, np.int64),  # _shortest's, with M and floor(log10 |x|); then M's parts
    "flag": (5, np.bool_),  # _shortest's, with whether it is sure of M
    "quad": (1, np.uint32),  # four digits
    "digits": (21, np.uint8),
    "byte": (26, np.uint8),  # the point's column, the first and last kept, and products
    "mask": (44, np.bool_),  # two masks over a value's 22 characters
    "text": (24, np.uint8),  # a value's bytes down a column, NULs in place of none
}
_held = threading.local()  # a thread's work arrays, and the values they hold


def _work(size: int) -> dict[str, np.ndarray]:
    """The thread's work arrays, as views for ``size`` values.  They are allocated at its
    first block, for at least BLOCK values, and again only for a larger block."""
    if getattr(_held, "size", 0) < size:
        _held.size = max(size, BLOCK)
        _held.arrays = {name: np.empty(rows * _held.size, dtype)
                        for name, (rows, dtype) in WORK.items()}
    return {name: _held.arrays[name][:rows * size].reshape(rows, size)
            for name, (rows, _) in WORK.items()}


@cache
def header(n: int) -> str:
    return "t,particle_" + ",particle_".join(map(str, range(n)))  # n >= 1, as every density


def write(fh, times, x) -> None:
    """Write the CSV of positions x, row k at time times[k], to the binary file fh."""
    rows, n = x.shape
    blocks = max(1, -(-rows * (n + 1) // BLOCK))
    step = max(1, -(-rows // blocks))  # rows per block, the blocks as even as can be
    times = np.array(times, dtype=np.float64)
    fh.write(f"{header(n)}\n".encode())
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        work = _work((stop - start) * (n + 1))
        block = work["block"].reshape(stop - start, n + 1)
        block[:, 0] = times[start:stop]
        block[:, 1:] = x[start:stop]
        _text(fh, work["block"][0], n + 1, work)


def _text(fh, x: np.ndarray, width: int, work: dict[str, np.ndarray]) -> None:
    """Write the text of the float64 values x, rows of ``width`` values, to fh, made in
    ``work`` (see _work): each value as its repr, then "," or, after a row's last, "\\n"."""
    m, e10, sure = _shortest(x, work)
    # digits: "0000", then the 17 of M
    _, lead, rest, high, low, _, top = work["int"]  # beside M and floor(log10 |x|)
    digits, four = work["digits"], work["quad"][0]
    digits[:4] = 48
    np.floor_divide(m, 10 ** 16, out=lead)
    digits[4] = lead
    digits[4] += 48
    np.multiply(lead, 10 ** 16, out=rest)
    np.subtract(m, rest, out=rest)
    np.floor_divide(rest, 10 ** 8, out=high)
    np.multiply(high, 10 ** 8, out=low)
    np.subtract(rest, low, out=low)
    for row, part in ((5, high), (13, low)):
        np.floor_divide(part, 10 ** 4, out=top)
        np.multiply(top, 10 ** 4, out=rest)
        part -= rest  # its last four digits
        for at, quarter in ((row, top), (row + 4, part)):
            np.take(DIGITS, quarter, out=four, mode="clip")  # each quarter is below 10^4
            digits[at:at + 4] = four.view(np.uint8).reshape(-1, 4).T
    # a value's 24 bytes: its sign, 22 characters and the end, NULs dropped.  Character
    # c < point is digit c, c = point the ".", c > point digit c - 1, with the point
    # after digit point - 1 (decpt + 3); kept are those from the "0" before the point,
    # or M's leading digit, to M's last nonzero digit, or the one after the point
    point, first, last, after = work["byte"][:4]
    product, keep, also = work["byte"][4:], work["mask"][:22], work["mask"][22:]
    np.copyto(point, e10, casting="unsafe")
    point += 5  # modulo 256, as the cast of floor(log10 |x|) + 5 from int64 would be
    np.subtract(point, 1, out=first)
    np.minimum(first, 4, out=first)
    np.not_equal(digits[4:], 48, out=keep[:17])
    np.multiply(keep[:17].view(np.uint8), COLUMN[5:22], out=product[:17])
    np.maximum.reduce(product[:17], axis=0, out=last)
    np.add(point, 1, out=after)
    np.maximum(last, after, out=last)
    text = work["text"]  # sign, 22 characters, the end
    chars = text[1:23]
    np.less(COLUMN[:21], point, out=keep[:21])
    np.greater_equal(COLUMN[:21], first, out=also[:21])
    keep[:21] &= also[:21]
    np.multiply(digits, keep[:21].view(np.uint8), out=chars[:21])
    text[22] = 0  # chars[21], which the pass above does not write
    np.greater(COLUMN[1:], point, out=keep[:21])
    np.less_equal(COLUMN[1:], last, out=also[:21])
    keep[:21] &= also[:21]
    np.multiply(digits, keep[:21].view(np.uint8), out=product[:21])
    chars[1:] += product[:21]
    np.equal(COLUMN, point, out=keep)
    np.multiply(keep.view(np.uint8), np.uint8(46), out=product)
    chars += product
    chars *= sure.view(np.uint8)
    negative, unsure = work["flag"][:2]  # _shortest reads them no more
    np.less(x, 0.0, out=negative)
    negative &= sure
    np.multiply(negative.view(np.uint8), np.uint8(45), out=text[0])
    # "%a" in place of every other value, which bytes formatting fills with its repr
    np.logical_not(sure, out=unsure)
    np.copyto(text[1], 37, where=unsure)  # its characters are all 0
    np.copyto(text[2], 97, where=unsure)
    text[23] = 44  # the end: ",", or "\n" after a row's last value
    text[23].reshape(-1, width)[:, -1] = 10
    for start in range(0, x.size, CHUNK):
        stop = start + CHUNK
        out = text[:, start:stop].T.tobytes().translate(None, b"\0")
        values = x[start:stop][unsure[start:stop]].tolist()
        fh.write(out % tuple(values) if values else out)


def _shortest(x: np.ndarray, work: dict[str, np.ndarray]) -> tuple[np.ndarray, ...]:
    """For each value x: M, floor(log10 |x|), and whether the fast path is sure of M,
    made in ``work`` (see _work) and returned in three of its arrays."""
    a, t, p10, hi10, lo10, p, a_hi, a_lo, e, floor_e, f, u = work["float"]
    e10, k, d, d10, d100, m, q = work["int"]
    fast, other, ok10, ok100, sure = work["flag"]
    np.abs(x, out=a)
    np.greater_equal(a, 1e-4, out=fast)
    np.less(a, 1e16, out=other)
    fast &= other
    np.bitwise_and(x.view(np.int64), (1 << 52) - 1, out=q)
    np.not_equal(q, 0, out=other)
    fast &= other
    np.logical_not(fast, out=other)
    np.copyto(a, 1.5, where=other)  # any value in range: only fast values are read below
    np.log10(a, out=t)
    np.floor(t, out=t)
    np.copyto(e10, t, casting="unsafe")
    np.subtract(16, e10, out=k)
    # V = a 10^k = p + e exactly (Dekker's two-product, with Veltkamp's split of a)
    np.take(POW10, k, out=p10, mode="clip")  # 0 <= k < 23 for every a in range
    np.take(POW10_HI, k, out=hi10, mode="clip")
    np.take(POW10_LO, k, out=lo10, mode="clip")
    np.multiply(a, p10, out=p)
    np.multiply(a, _SPLIT, out=a_hi)
    np.subtract(a_hi, a, out=t)
    np.subtract(a_hi, t, out=a_hi)
    np.subtract(a, a_hi, out=a_lo)
    np.multiply(a_hi, hi10, out=e)
    e -= p
    for high, low in ((a_hi, lo10), (a_lo, hi10), (a_lo, lo10)):
        np.multiply(high, low, out=t)
        e += t
    np.floor(e, out=floor_e)
    np.subtract(e, floor_e, out=f)
    np.copyto(d, p, casting="unsafe")
    np.copyto(q, floor_e, casting="unsafe")
    d += q
    # half the gap: the power of two 52 bits below a's leading bit, halved, times 10^k
    np.bitwise_and(a.view(np.int64), 0x7FF << 52, out=q)
    q -= 53 << 52
    np.multiply(q.view(np.float64), p10, out=u)
    # distances of V below the multiples of 10 and 100 nearest it; each multiple lies
    # within u when its distance from the middle between two multiples exceeds 5 - u or 50 - u
    rem10, rem100, mid10, s10, s100, tie, near = work["float"][:7]  # a to a_hi: read no more
    np.floor_divide(d, 10, out=d10)
    np.floor_divide(d10, 10, out=d100)
    for rem, multiple, unit in ((rem10, d10, 10), (rem100, d100, 100)):
        np.multiply(multiple, unit, out=q)
        np.subtract(d, q, out=q)
        np.copyto(rem, q)
        rem += f
    np.subtract(rem10, 5.0, out=mid10)
    np.abs(mid10, out=mid10)
    np.subtract(5.0, u, out=s10)
    s10 -= mid10
    np.subtract(rem100, 50.0, out=near)
    np.abs(near, out=near)
    np.subtract(50.0, u, out=s100)
    s100 -= near
    np.less(s10, 0.0, out=ok10)
    np.less(s100, 0.0, out=ok100)
    # M: the multiple of 100 nearest V if it lies within u, else that of 10, else the integer
    np.greater(f, 0.5, out=other)
    np.copyto(m, other)
    m += d
    for ok, multiple, rem, unit in ((ok10, d10, rem10, 10), (ok100, d100, rem100, 100)):
        np.greater(rem, unit / 2, out=other)
        np.copyto(q, other)
        q += multiple
        q *= unit
        np.copyto(m, q, where=ok)
    # how near V lies to a decision that picked M: whether a multiple of 100, else one
    # of 10, lies within u, and, else, a tie between the two nearest multiples of 10 or 1
    np.subtract(f, 0.5, out=tie)
    np.abs(tie, out=tie)
    np.copyto(tie, mid10, where=ok10)
    np.abs(s100, out=s100)
    np.abs(s10, out=s10)
    np.minimum(s100, s10, out=near)
    np.minimum(near, tie, out=near)
    np.copyto(near, s100, where=ok100)
    np.greater_equal(near, MARGIN, out=sure)
    sure &= fast
    np.greater_equal(d, 10 ** 16, out=other)
    sure &= other
    np.less(m, 10 ** 17, out=other)
    sure &= other
    return m, e10, sure
