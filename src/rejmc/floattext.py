"""Exact vectorised float-to-text kernels for the CSV and SVG writers.

``csv_rows`` spells each value as ``repr(float(v))`` does and
``svg_circles`` each coordinate as ``'%.2f' % v`` does, byte for byte, on
whole numpy arrays. Each kernel lays every value out in a fixed-width row of
a uint8 matrix, beside a keep-mask of the same shape; the text is the kept
bytes in row order. Values outside a kernel's range (zero, subnormals,
non-finite, very small or very large magnitudes) are spelled by ``repr`` or
``%`` one at a time into the same matrix, so every input gives the bytes of
the per-value formatting. Both return the text as a list of ASCII blocks
of BLOCK_ROWS rows each, in order, for a binary file's ``writelines``: no
whole-file string is built.

The shortest digits are those of Schubfach (R. Giulietti, "The Schubfach way
to render doubles", 2020), with 64x64->128-bit products built from 32-bit
limbs. Its powers of ten are exact in the range used here, so the round-to-
odd products are exact too. The '%.2f' digits come from an exact x*100 (a
Dekker product) rounded half to even.
"""
from __future__ import annotations

import numpy as np

from .samplers import ordered_map

__all__ = ["BLOCK_ROWS", "csv_rows", "svg_circles"]

# rows per task of the writers' ordered_map
BLOCK_ROWS = 1 << 15

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_FRAC_BITS = _U64((1 << 52) - 1)
_HIDDEN = _U64(1 << 52)

# repr spells |x| in [1e-4, 1e16) in fixed notation; these are the biased
# exponents of that range
_BQ_LO = 1009  # 1e-4 = 1.6384 * 2^-14
_BQ_HI = 1076  # 1e16 < 2^54
_BQ_SPAN = _BQ_HI - _BQ_LO + 1


def _floor_log10(num: int, den: int) -> int:
    """floor(log10(num / den)) for positive integers."""
    k = len(str(num)) - len(str(den))
    return k if num * 10 ** max(-k, 0) >= den * 10 ** max(k, 0) else k - 1


def _schubfach_tables():
    """k, h and g1 of Schubfach per biased exponent, regular spacing in
    the first half and irregular (a power of two) in the second."""
    ks, hs, gs = [], [], []
    for irregular in (False, True):
        for bq in range(_BQ_LO, _BQ_HI + 1):
            q = bq - 1075
            # at a power of two the gap below is half the gap above, and
            # Schubfach takes k = floor(log10(3/4 * 2^q))
            num, den = (3, 4) if irregular else (1, 1)
            k = _floor_log10(num << max(q, 0), den << max(-q, 0))
            log2_pow10 = (10**-k).bit_length() - 1
            h = q + log2_pow10 + 2
            g = 10**-k << (125 - log2_pow10)
            # g = g1 * 2^63 exactly, and cb << h fits in 64 bits
            assert g % (1 << 63) == 0 and 0 <= h and ((1 << 55) + 2) << h < 1 << 64
            ks.append(k)
            hs.append(h)
            gs.append(g >> 63)
    return np.array(ks, np.int64), np.array(hs, np.uint64), np.array(gs, np.uint64)


_K, _H, _G1 = _schubfach_tables()
_POW10 = [_U64(10**p) for p in range(17)]
_PLACES = np.arange(17, dtype=np.uint8)[:, None]

# a repr cell: sign, "0.000", 17 digits, ".", the same 17 digits, "0"
_REPR_WIDTH = 42
_D1 = slice(6, 23)
_D2 = slice(24, 41)


def _repr_keep_table() -> np.ndarray:
    """The keep-mask of a positive cell, by (decimal point, digit count)."""
    decpt = np.arange(-3, 17)[:, None, None]
    n = np.arange(1, 18)[None, :, None]
    i = np.arange(17)
    table = np.zeros((20, 17, _REPR_WIDTH), bool)
    table[..., 1:3] = decpt <= 0  # "0."
    table[..., 3:6] = np.arange(3) < -decpt  # zeros after the point
    table[..., _D1] = i < decpt  # integer digits
    table[..., 23:24] = decpt > 0  # "."
    table[..., _D2] = (i >= decpt) & (i < n)  # fraction digits
    table[..., 41:42] = decpt >= n  # the "0" of ".0"
    return table.reshape(20 * 17, _REPR_WIDTH)


_REPR_KEEP = _repr_keep_table()
_REPR_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"0", np.uint8)


def _rop(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """floor(g * cp / 2^64), with its lowest bit set when inexact."""
    g0, g1 = g & _M32, g >> _U64(32)
    c0, c1 = cp & _M32, cp >> _U64(32)
    p01, p10 = g0 * c1, g1 * c0
    mid = ((g0 * c0) >> _U64(32)) + (p01 & _M32) + (p10 & _M32)
    hi = g1 * c1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    return hi | (g * cp != 0)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with f * 10^k the shortest decimal that rounds to x, closest to
    x among those: Schubfach for positive x in [1e-4, 1e16)."""
    bits = x.view(_U64)
    frac = bits & _FRAC_BITS
    c = frac | _HIDDEN
    irregular = frac == 0
    row = ((bits >> _U64(52)) - _U64(_BQ_LO)).astype(np.intp) + irregular * _BQ_SPAN
    k, h, g = _K[row], _H[row], _G1[row]
    cb = c << _U64(2)
    vbl, vb, vbr = _rop(g, np.stack([cb - _U64(2) + irregular, cb, cb + _U64(2)]) << h)
    # 1 when the rounding interval is open, for odd c
    out = c & _U64(1)
    # s has 16 or 17 digits, so the one-digit-shorter candidates always exist
    s = vb >> _U64(2)
    t = s + _U64(1)
    sp10 = s // _U64(10) * _U64(10)
    tp10 = sp10 + _U64(10)
    upin = vbl + out <= sp10 << _U64(2)
    wpin = (tp10 << _U64(2)) + out <= vbr
    uin = vbl + out <= s << _U64(2)
    win = (t << _U64(2)) + out <= vbr
    mid = (s + t) << _U64(1)
    pick_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & (s & _U64(1) == 0)))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(pick_s, s, t))
    return f, k


def _decimal_places(n: np.ndarray, places: int):
    """(digit, n // 10^p) for p = places - 1 down to 0: the last ``places``
    decimal digits of each n, most significant first."""
    ten = n.dtype.type(10)
    above = np.zeros_like(n)
    for p in range(places - 1, -1, -1):
        q = n // n.dtype.type(10**p)
        yield q - above * ten, q
        above = q


def _digits17(f: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each f < 10^17, as a (17, len(f)) array."""
    digits = np.empty((17, len(f)), np.uint8)
    top = f // _POW10[16]
    rest = f - top * _POW10[16]
    digits[0] = top
    high = rest // _POW10[8]
    # each half has 8 digits and fits 32 bits
    for first, half in ((1, high), (9, rest - high * _POW10[8])):
        for i, (digit, _) in enumerate(_decimal_places(half.astype(np.uint32), 8)):
            digits[first + i] = digit
    return digits


class _Repr:
    """repr(float(v)) for each v of x, as cells of _REPR_WIDTH bytes."""

    width = _REPR_WIDTH

    def __init__(self, x: np.ndarray):
        self.x = x = np.ascontiguousarray(x, dtype=np.float64)
        mag = np.abs(x)
        self.fast = (mag >= 1e-4) & (mag < 1e16)
        f, k = _shortest(np.where(self.fast, mag, 1.0))
        # left-align f to 17 digits; decpt is the place of the decimal point
        long = f >= _POW10[16]
        self.digits = _digits17(np.where(long, f, f * _U64(10)))
        # the number of significant digits, less one
        last = np.maximum.reduce((self.digits != 0) * _PLACES, axis=0)
        self.layout = (k + 19 + long) * 17 + last

    def write(self, chars: np.ndarray, keep: np.ndarray) -> None:
        chars[:] = _REPR_TEMPLATE
        chars[:, _D1] = chars[:, _D2] = (self.digits + np.uint8(48)).T
        keep[:] = _REPR_KEEP[self.layout]
        keep[:, 0] = np.signbit(self.x)
        for i in np.flatnonzero(~self.fast):
            _put(chars[i], keep[i], repr(float(self.x[i])))


class _Fixed2:
    """'%.2f' % v for each v of x, as cells as wide as the longest needs."""

    def __init__(self, x: np.ndarray):
        self.x = x
        fast = np.abs(x) < 2.0**40
        v = np.where(fast, x, 0.0)
        # v * 100 = hi + lo exactly: a Veltkamp split of v, and 100 has 5 bits
        hi = v * 100.0
        split = v * 134217729.0
        vh = split - (split - v)
        lo = (vh * 100.0 - hi) + (v - vh) * 100.0
        # round hi + lo half to even: rint is right unless hi is a tie
        r = np.rint(hi)
        tie = hi - r
        r += (tie == 0.5) & (lo > 0)
        r -= (tie == -0.5) & (lo < 0)
        cents = np.abs(r).astype(_U64)
        self.whole = cents // _U64(100)
        self.cents = cents - self.whole * _U64(100)
        self.slow = [(i, "%.2f" % x[i]) for i in np.flatnonzero(~fast)]
        self.digits = len(str(self.whole.max(initial=0)))
        self.width = max([self.digits + 4] + [len(text) for _, text in self.slow])

    def write(self, chars: np.ndarray, keep: np.ndarray) -> None:
        digits = self.digits
        chars[:, 0] = ord("-")
        keep[:, 0] = np.signbit(self.x)
        for i, (digit, q) in enumerate(_decimal_places(self.whole, digits)):
            chars[:, 1 + i] = digit + _U64(48)
            # leading zeros go, the units digit stays
            if i < digits - 1:
                keep[:, 1 + i] = q != 0
        chars[:, digits + 1] = ord(".")
        for i, (digit, _) in enumerate(_decimal_places(self.cents, 2)):
            chars[:, digits + 2 + i] = digit + _U64(48)
        keep[:, digits + 4 :] = False
        for i, text in self.slow:
            _put(chars[i], keep[i], text)


def _put(chars: np.ndarray, keep: np.ndarray, text: str) -> None:
    """A cell that spells ``text`` from its first byte."""
    chars[: len(text)] = np.frombuffer(text.encode("ascii"), np.uint8)
    keep[:] = False
    keep[: len(text)] = True


def _lines(rows: int, *pieces) -> bytes:
    """Row by row, each piece in turn: a bytes literal, or a cell of a
    kernel (an object with ``width`` and ``write(chars, keep)``)."""
    widths = [len(p) if isinstance(p, bytes) else p.width for p in pieces]
    chars = np.empty((rows, sum(widths)), np.uint8)
    keep = np.ones((rows, sum(widths)), bool)
    col = 0
    for piece, width in zip(pieces, widths):
        cols = slice(col, col + width)
        if isinstance(piece, bytes):
            chars[:, cols] = np.frombuffer(piece, np.uint8)
        else:
            piece.write(chars[:, cols], keep[:, cols])
        col = cols.stop
    return chars[keep].tobytes()


def _blockwise(block_text, rows: int) -> list[bytes]:
    """block_text(slice) for consecutive slices of BLOCK_ROWS rows, run
    through ordered_map: the blocks in order, as a file takes them."""
    return ordered_map(
        lambda i: block_text(slice(i * BLOCK_ROWS, (i + 1) * BLOCK_ROWS)),
        -(-rows // BLOCK_ROWS),
    )


def csv_rows(points: np.ndarray) -> list[bytes]:
    """Each row of a 2-D array as its values' repr joined by ",", ended by
    a newline, in ASCII blocks of BLOCK_ROWS rows."""

    def block_text(rows: slice) -> bytes:
        block = points[rows]
        cells = [_Repr(block[:, j]) for j in range(block.shape[1])]
        pieces = [piece for cell in cells for piece in (cell, b",")]
        return _lines(len(block), *pieces[:-1], b"\n")

    return _blockwise(block_text, len(points))


def svg_circles(px: np.ndarray, py: np.ndarray) -> list[bytes]:
    """'<circle cx="%.2f" cy="%.2f" r="1"/>' and a newline per (x, y) pair,
    in ASCII blocks of BLOCK_ROWS pairs."""

    def block_text(rows: slice) -> bytes:
        cx, cy = _Fixed2(px[rows]), _Fixed2(py[rows])
        return _lines(len(cx.x), b'<circle cx="', cx, b'" cy="', cy, b'" r="1"/>\n')

    return _blockwise(block_text, len(px))
