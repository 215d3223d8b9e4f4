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
"""

import numpy as np

BLOCK = 8192  # the most values formatted at once: a block's rows share one set of passes
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


def header(n: int) -> str:
    return "t,particle_" + ",particle_".join(map(str, range(n)))  # n >= 1, as every density


def write(fh, times, x) -> None:
    """Write the CSV of positions x, row k at time times[k], to the binary file fh."""
    rows, n = x.shape
    blocks = max(1, -(-rows * (n + 1) // BLOCK))
    step = max(1, -(-rows // blocks))  # rows per block, the blocks as even as can be
    ends = np.full((step, n + 1), ord(","), np.uint8)
    ends[:, -1] = ord("\n")
    fh.write(f"{header(n)}\n".encode())
    for start in range(0, rows, step):
        block = np.empty((min(step, rows - start), n + 1))
        block[:, 0] = times[start:start + step]
        block[:, 1:] = x[start:start + step]
        fh.write(_text(block.ravel(), ends[:len(block)].ravel()))


def _text(x: np.ndarray, ends: np.ndarray) -> bytes:
    """The text of the float64 values x, each as its repr followed by the byte ends[i]."""
    m, e10, sure = _shortest(x)
    # digits: "0000", then the 17 of M
    digits = np.empty((21, x.size), np.uint8)
    digits[:4] = 48
    lead = m // 10 ** 16
    digits[4] = lead
    digits[4] += 48
    rest = m - lead * 10 ** 16
    high = rest // 10 ** 8
    for row, part in ((5, high), (13, rest - high * 10 ** 8)):
        top = part // 10 ** 4
        for at, four in ((row, top), (row + 4, part - top * 10 ** 4)):
            digits[at:at + 4] = DIGITS[four].view(np.uint8).reshape(-1, 4).T
    # a value's 24 bytes: its sign, 22 characters and the end, NULs dropped.  Character
    # c < point is digit c, c = point the ".", c > point digit c - 1, with the point
    # after digit point - 1 (decpt + 3); kept are those from the "0" before the point,
    # or M's leading digit, to M's last nonzero digit, or the one after the point
    point = (e10 + 5).astype(np.uint8)
    first = np.minimum(point - 1, 4)
    last = np.maximum.reduce((digits[4:] != 48).view(np.uint8) * COLUMN[5:22], axis=0)
    np.maximum(last, point + 1, out=last)
    text = np.zeros((24, x.size), np.uint8)  # sign, 22 characters, the end
    chars = text[1:23]
    np.multiply(digits, ((COLUMN[:21] < point) & (COLUMN[:21] >= first)).view(np.uint8),
                out=chars[:21])
    chars[1:] += digits * ((COLUMN[1:] > point) & (COLUMN[1:] <= last)).view(np.uint8)
    chars += (COLUMN == point).view(np.uint8) * np.uint8(46)
    chars *= sure.view(np.uint8)
    text[0] = ((x < 0) & sure).view(np.uint8) * np.uint8(45)
    # "%a" in place of every other value, which bytes formatting fills with its repr
    unsure = ~sure
    text[1] += unsure.view(np.uint8) * np.uint8(37)
    text[2] += unsure.view(np.uint8) * np.uint8(97)
    text[23] = ends
    out = text.T.tobytes().translate(None, b"\0")
    return out % tuple(x[unsure].tolist()) if unsure.any() else out


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each value x: M, floor(log10 |x|), and whether the fast path is sure of M."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16) & (x.view(np.int64) & ((1 << 52) - 1) != 0)
    a = np.where(fast, a, 1.5)  # any value in range: only fast values are read below
    e10 = np.floor(np.log10(a)).astype(np.intp)
    k = 16 - e10
    # V = a 10^k = p + e exactly (Dekker's two-product, with Veltkamp's split of a)
    p10, hi10, lo10 = POW10[k], POW10_HI[k], POW10_LO[k]
    p = a * p10
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    e = ((a_hi * hi10 - p) + a_hi * lo10 + a_lo * hi10) + a_lo * lo10
    floor_e = np.floor(e)
    f = e - floor_e
    d = p.astype(np.int64) + floor_e.astype(np.int64)
    # half the gap: the power of two 52 bits below a's leading bit, halved, times 10^k
    u = ((a.view(np.int64) & (0x7FF << 52)) - (53 << 52)).view(np.float64) * p10
    # distances of V below the multiples of 10 and 100 nearest it; each multiple lies
    # within u when its distance from the middle between two multiples exceeds 5 - u or 50 - u
    d10 = d // 10
    d100 = d10 // 10
    rem10 = (d - d10 * 10) + f
    rem100 = (d - d100 * 100) + f
    mid10 = np.abs(rem10 - 5.0)
    s10 = (5.0 - u) - mid10
    s100 = (50.0 - u) - np.abs(rem100 - 50.0)
    ok10, ok100 = s10 < 0, s100 < 0
    m = np.where(ok100, (d100 + (rem100 > 50.0)) * 100,
                 np.where(ok10, (d10 + (rem10 > 5.0)) * 10, d + (f > 0.5)))
    # how near V lies to a decision that picked M: whether a multiple of 100, else one
    # of 10, lies within u, and, else, a tie between the two nearest multiples of 10 or 1
    tie = np.where(ok10, mid10, np.abs(f - 0.5))
    near = np.where(ok100, np.abs(s100), np.minimum(np.minimum(np.abs(s100), np.abs(s10)), tie))
    sure = fast & (near >= MARGIN) & (d >= 10 ** 16) & (m < 10 ** 17)
    return m, e10, sure

