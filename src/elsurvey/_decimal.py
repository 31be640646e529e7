"""Exact conversions between doubles and ``.17g`` decimal text, a whole array at a time.

Both directions cover one exact range: zero and the doubles whose decimal exponent lies
in ``K_LO..K_HI`` and whose magnitude is below ``2**51``, that is ``1e-11 <= |x| < 2**51``.
They share one exact helper, :func:`_scaled`, which forms ``M * 2**E * 10**(16 - k)`` in
128-bit integer arithmetic from ``uint64`` partial products.

:func:`format_rows` gives the bytes of ``format(x, ".17g")`` for an array of values in the
range; an array of integers among them takes a short path that writes only their digits.
:func:`parse_tokens` turns ASCII number tokens of the form
``-?digits[.digits][e[+-]digits]`` into the doubles ``float(token)`` gives, bit for bit, or
returns None when it cannot prove that for every token; a token outside Clinger's fast path
is checked against the ``.17g`` digits of its candidate, by the round-trip property of 17
digits.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

K_LO, K_HI = -11, 16  # the decimal exponents of the exact range
_P16, _P17, _LO32 = np.uint64(10**16), np.uint64(10**17), np.uint64(2**32 - 1)
_POW5 = np.uint64(5) ** np.arange(16 - K_LO + 1, dtype=np.uint64)  # 5**27 < 2**63


def _binary(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(M, E)`` with ``|x| = M * 2**E`` and ``M < 2**53``, for finite ``x``."""
    m, e = np.frexp(np.abs(x))
    return np.ldexp(m, 53).astype(np.uint64), e.astype(np.int64) - 53


def _scaled(M, E, k):
    """``(q, rem, r, ok)``: ``M * 2**E * 10**(16 - k) = (q + rem / 2**r)``, exactly where ``ok``:
    ``k`` in the exact range and ``1 <= r <= 63``."""
    r = -(E + 16 - k)
    ok = (k >= K_LO) & (k <= K_HI) & (r >= 1) & (r <= 63)
    P, r = _POW5[np.clip(16 - k, 0, 16 - K_LO)], np.clip(r, 1, 63).astype(np.uint64)
    # M * P < 2**116 as hi * 2**64 + lo, from four 32 x 32-bit partial products.
    ml, mh, pl, ph = M & _LO32, M >> 32, P & _LO32, P >> 32
    low, mid = ml * pl, ml * ph + mh * pl  # mid < 2**64 as mh < 2**21, ph < 2**31
    lo = low + (mid << 32)
    hi = mh * ph + (mid >> 32) + (lo < low)
    return (hi << (64 - r)) | (lo >> r), lo & ((np.uint64(1) << r) - 1), r, ok


def _round_half_even(q, rem, r):
    """``q + rem / 2**r`` rounded to an integer, ties to even."""
    half = np.uint64(1) << (r - np.uint64(1))
    return q + ((rem > half) | ((rem == half) & (q & np.uint64(1) == 1)))


# ---------------------------------------------------------------------------
# Formatting doubles
#
# Each value becomes a row of byte codes, NUL where a character is absent; a row is
# gathered from its 17 digits, its point and its sign followed by constant characters,
# through the layout of its decimal exponent k: fixed notation for -4 <= k < 17,
# ``d.ddde-XX`` below.

_SRC_POINT, _SRC_SIGN, _SRC_NUL = 17, 18, 19  # a row's source columns: its 17 digits, then these
_CONSTANTS = b"\x000123456789e+-"  # the source columns from _SRC_NUL on


def _layout(k: int) -> list[int]:
    """The source column of each character of a value with decimal exponent ``k``."""
    if 0 <= k < 17:
        body = [*range(k + 1), _SRC_POINT, *range(k + 1, 17)]
    elif -4 <= k < 0:
        body = [_SRC_NUL + 1, _SRC_POINT] + [_SRC_NUL + 1] * (-k - 1) + list(range(17))  # 0.000ddd
    else:
        body = [0, _SRC_POINT, *range(1, 17), *(_SRC_NUL + _CONSTANTS.index(c) for c in f"e{k:+03d}".encode())]
    return [_SRC_SIGN, *body] + [_SRC_NUL] * (22 - len(body))


_LAYOUTS = np.array([_layout(k) for k in range(K_LO, K_HI + 1)])
_P9, _TEN = np.uint64(10**9), np.uint32(10)


def _put_digits(out, D):
    """Write the decimal digits of each ``D`` (``uint64``, below ``10**len(out)``) into the
    rows of ``out``, units last: the digits below and above ``10**9`` each in ``uint32``,
    whose division is cheaper."""
    if len(out) > 9:
        hi = D // _P9
        _put_digits(out[:-9], hi)
        out, D = out[-9:], D - hi * _P9
    D = D.astype(np.uint32)
    for j in range(len(out) - 1, 0, -1):
        q = D // _TEN
        out[j], D = D - q * _TEN, q
    out[0] = D


def _integer_rows(u, negative):
    """The rows of integers ``|x| = u`` with signs ``negative``: a sign byte, then as many
    digit columns as the largest needs, leading zeros NUL."""
    width = len(str(int(u.max(initial=0))))
    src = np.empty((1 + width, u.size), np.uint8)
    src[0] = np.uint8(ord("-")) * negative
    _put_digits(src[1:], u)
    src[1:] += np.uint8(ord("0"))
    for j in range(1, width):  # the units digit always shows
        src[j] *= u >= 10 ** (width - j)
    return src.T


def format_rows(values: np.ndarray) -> np.ndarray | None:
    """``format(x, ".17g")`` of each value of a 1-d float array, as NUL-padded ``uint8``
    rows, computed by exact integer arithmetic; None if any value is outside the
    exact range (non-finite, or nonzero outside ``1e-11 <= |x| < 2**51``).

    When every value is an integer, the rows hold a sign byte and as many digits as the
    largest value has (two bytes for 0/1 flags); otherwise each value takes the 17-digit
    layout of its decimal exponent, 23 bytes wide."""
    x = values.astype(float, copy=False)
    a = np.abs(x)
    if not a.max(initial=0.0) < 2.0**51:  # NaN fails the comparison too
        return None
    u = a.astype(np.uint64)
    if (u == a).all():
        return _integer_rows(u, np.signbit(x))
    M, E = _binary(x)
    k = np.floor(np.log10(np.where(M > 0, a, 1.0))).astype(np.int64)
    q, rem, r, ok = _scaled(M, E, k)
    fix = (q >= _P17).astype(np.int64) - ((q < _P16) & (M > 0))  # log10 may be one off
    if fix.any():
        k += fix
        q, rem, r, ok = _scaled(M, E, k)
    if not (ok & ((M == 0) | ((q >= _P16) & (q < _P17)))).all():
        return None
    # D stays below 10**17: no double in range lies within half a unit of the
    # 17th digit below a power of ten.
    D = _round_half_even(q, rem, r)
    src = np.empty((_SRC_NUL + len(_CONSTANTS), x.size), np.uint8)  # one row per source column
    src[_SRC_NUL:] = np.frombuffer(_CONSTANTS, np.uint8)[:, None]
    _put_digits(src[:17], D)
    first = np.where((k >= -4) & (k < 17), np.maximum(k + 1, 0), 1)  # first fraction digit
    # cut: the first digit not shown, after the last nonzero one and the integer part
    cut = np.maximum(first, np.max(np.arange(1, 18, dtype=np.uint8)[:, None] * (src[:17] != 0), axis=0))
    src[:17] += np.uint8(ord("0"))
    src[:17] *= np.arange(17)[:, None] < cut
    src[_SRC_POINT] = np.uint8(ord(".")) * (cut > first)
    src[_SRC_SIGN] = np.uint8(ord("-")) * np.signbit(x)
    rows = src[_LAYOUTS[k.min() - K_LO]]
    for kk in range(k.min() + 1, k.max() + 1):  # rows grouped by k
        rows += (src[_LAYOUTS[kk - K_LO]] - rows) * (k == kk)
    return rows.T


# ---------------------------------------------------------------------------
# Parsing number tokens

MAX_TOKEN = 32  # bytes; a longer token is left to other parsers
_MINUS, _PLUS, _DOT, _E = b"-+.e"
_ZERO = np.uint8(ord("0"))
_P10 = 10.0 ** np.arange(23)  # exact
_P10U = np.uint64(10) ** np.arange(20, dtype=np.uint64)
_SHORT_BASE = _MINUS << 8  # the smallest key of a number: "-" then a NUL
_SHORT_SIZE = (ord("9") + 1 << 8) - _SHORT_BASE  # the keys with a first byte from "-" to "9"


def _short_key(first, last, length):
    """The index in :data:`_SHORT` of tokens of one or two bytes, from their first and last
    bytes, in one part of the table per length.  A key past the first bytes of numbers takes
    the first or last entry of its part, which no number has."""
    pair = np.clip((first.astype(np.int32) << 8 | last) - _SHORT_BASE, 0, _SHORT_SIZE - 1)
    return (length - 1) * _SHORT_SIZE + pair


def _short_table() -> np.ndarray:
    """``float(token)`` of every number of one or two bytes at its :func:`_short_key`; NaN elsewhere."""
    table = np.full(2 * _SHORT_SIZE, np.nan)
    d, c = np.arange(10.0), np.arange(10) + ord("0")  # the digits and their bytes
    table[_short_key(c, c, 1)] = d
    table[_short_key(np.full(10, _MINUS), c, 2)] = -d  # "-0" is -0.0
    table[_short_key(np.repeat(c, 10), np.tile(c, 10), 2)] = np.arange(100.0)
    return table


_SHORT = _short_table()


def _short(buf, starts, ends, length):
    """Tokens of one or two bytes, looked up in :data:`_SHORT`; None if one is not a number."""
    values = _SHORT[_short_key(buf[starts], buf[ends - 1], length)]
    return None if np.isnan(values).any() else values


def _mark(buf, starts, ends, char):
    """The offset of ``char`` in each token (of the last one, if several), or 0."""
    pos = np.flatnonzero(buf == char)
    tok = np.searchsorted(starts, pos, side="right") - 1
    inside = (tok >= 0) & (pos < ends[np.maximum(tok, 0)])
    rel = np.zeros(starts.size, np.int64)
    rel[tok[inside]] = pos[inside] - starts[tok[inside]]
    return rel


def _groups(key):
    """``(kind, rows)`` for each distinct value of ``key``, an array of integers below ``2**16``;
    ``rows`` is a slice when there is one kind."""
    counts = np.bincount(key)
    kinds = np.flatnonzero(counts)
    if kinds.size == 1:
        return [(int(kinds[0]), slice(None))]
    order = np.argsort(key.astype(np.uint16), kind="stable")
    return zip(kinds.tolist(), np.split(order, np.cumsum(counts[kinds])[:-1]))


def _horner(D, cols):
    """The integers whose decimal digits are the columns ``cols`` of ``D``, as ``uint64``."""
    acc = np.zeros(D.shape[0], np.uint64)
    for j in cols:
        acc *= np.uint64(10)
        acc += D[:, j]
    return acc


def _layout_values(buf, starts, length, point, exp, sign):
    """The tokens of one layout as ``(values, M, e10)``, a token's value being ``M * 10**e10``.

    In a layout the point and the ``e`` sit at offsets ``point`` and ``exp`` (0 where absent)
    and the sign takes ``sign`` bytes; every other byte must be a digit, except that the
    exponent may start with its sign.  The values are exact where ``M < 2**53`` and
    ``|e10| <= 22`` (Clinger's fast path) and within 2 ulp elsewhere.  None if a token does
    not have the layout or has 18 or more significant digits, or if the layout is not a
    number's.
    """
    mant_end = exp or length
    mant = [j for j in range(sign, mant_end) if j != point or not point]
    expo = list(range(exp + 1, length)) if exp else []
    if not sign < mant_end or point and not sign < point < mant_end - 1 or exp and not expo or len(expo) > 5:
        return None
    D = sliding_window_view(buf, length)[starts]  # one row per token
    if point and not (D[:, point] == _DOT).all() or exp and not (D[:, exp] == _E).all():
        return None
    if exp:
        negative = D[:, exp + 1] == _MINUS
        signed = negative | (D[:, exp + 1] == _PLUS)
        if signed.any() and len(expo) == 1:
            return None
        D[signed, exp + 1] = _ZERO
    D -= _ZERO
    D[:, [j for j in (point, exp) if j] + [0] * sign] = 0  # the point, e and sign
    if not (D <= 9).all() or len(mant) > 19 and D[:, mant[:-19]].any():
        return None
    M = _horner(D, mant[-19:])  # below 10**19 < 2**64
    if M.max() >= _P17:
        return None
    e10 = -(mant_end - point - 1 if point else 0)
    if exp:
        E = _horner(D, expo).astype(np.int64)
        E[negative] *= -1
        e10 = E + e10
    return _times_power_of_ten(M.astype(np.float64), e10), M, e10


def _times_power_of_ten(Mf, e10):
    """``Mf * 10**e10`` (``e10`` an integer or an array), by one correctly rounded operation
    where ``|e10| <= 22`` and by two between -44 and -23.  Past that range ``e10`` is clipped to
    it: such a value is only a candidate, and :func:`_settle` declines it."""
    e10 = np.clip(e10, -44, 22)
    return Mf * _P10[np.maximum(e10, 0)] / _P10[np.clip(-e10, 0, 22)] / _P10[np.maximum(-e10 - 22, 0)]


def _digits_are(x, k, want):
    """Whether the ``.17g`` digits of each ``x`` are ``want`` (an integer of 17 digits) at
    decimal exponent ``k``, by the writer's exact kernel."""
    q, rem, r, ok = _scaled(*_binary(x), k)
    return ok & (q >= _P16) & (q < _P17) & (_round_half_even(q, rem, r) == want)


def _settle(x, M, e10):
    """The doubles named by tokens ``M * 10**e10`` of at most 17 significant digits, from
    candidates ``x`` within 2 ulp of them, or None.

    A candidate is ``float(token)`` when its ``.17g`` digits are the token's digits padded to
    17: every double is the one nearest its 17-digit decimal.  Values outside the exact
    range are left unsettled.
    """
    n_sig = np.searchsorted(_P10U, M, side="right")  # 0 for M == 0
    k = e10 + n_sig - 1  # the decimal exponent
    if not ((n_sig >= 1) & (k >= K_LO) & (k <= K_HI)).all():
        return None
    want = M * _P10U[17 - n_sig]
    miss = ~_digits_are(x, k, want)
    for step in (1, -1, 2, -2):
        if not miss.any():
            return x
        todo = np.flatnonzero(miss)
        y = (x[todo].view(np.int64) + step).view(np.float64)
        hit = _digits_are(y, k[todo], want[todo])
        x[todo[hit]], miss[todo[hit]] = y[hit], False
    return None if miss.any() else x


def parse_tokens(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """``float(token)`` of each token ``buf[starts[i]:ends[i]]``, bit for bit, or None.

    ``buf`` is a ``uint8`` array; the tokens are in order and do not overlap.  A token must
    be ``-?digits[.digits]``, with an optional ``e[+-]digits`` of at most five bytes after the
    ``e``, and at most :data:`MAX_TOKEN` bytes.  When every token has one or two bytes, they
    are looked up in a table of ``float`` values.  Otherwise the tokens are grouped by layout
    (length, sign, and the offsets of the point and the ``e``), so that each group's digits sit
    at fixed offsets; the tokens of one length and sign are first taken to share the layout
    of the first of them, and only when one does not are the point and ``e`` of every token
    found.  A mantissa below ``2**53`` with ``|exponent| <= 22`` takes
    one correctly rounded multiply or divide (Clinger's fast path); any other value is
    settled by :func:`_settle`.  None when a token is malformed, has 18 or more significant
    digits, or is left unsettled.
    """
    starts, ends = np.asarray(starts, np.int64), np.asarray(ends, np.int64)
    length = ends - starts
    if not length.size:
        return np.empty(0)
    shortest, longest = length.min(), length.max()
    if shortest < 1 or longest > MAX_TOKEN:
        return None
    if longest <= 2:  # flags and small codes
        return _short(buf, starts, ends, length)
    sign = buf[starts] == _MINUS
    got = _values_by_layout(buf, starts, length, sign)
    if got is None:  # tokens of one length and sign in several layouts, or a malformed token
        point, exp = _mark(buf, starts, ends, _DOT), _mark(buf, starts, ends, _E)
        got = _values_by_layout(buf, starts, length, sign, point, exp)
        if got is None:
            return None
    x, M, e10 = got
    slow = np.flatnonzero((M >= np.uint64(2**53)) | (np.abs(e10) > 22))
    if slow.size:
        settled = _settle(x[slow], M[slow], e10[slow])
        if settled is None:
            return None
        x[slow] = settled
    return np.negative(x, out=x, where=sign)


def _values_by_layout(buf, starts, length, sign, point=None, exp=None):
    """:func:`_layout_values` of the tokens, as three arrays, grouped by layout; None if a group
    fails.  ``point`` and ``exp`` give the offsets in each token; without them, the tokens of
    one length and sign are taken to have the layout of the first of them."""
    key = (length - 1) * 2 + sign
    if point is not None:
        key += 64 * (point * 32 + exp)
    x, M, e10 = np.empty(key.size), np.empty(key.size, np.uint64), np.empty(key.size, np.int64)
    for kind, rows in _groups(key):
        s = starts[rows]
        size, sg = (kind & 63) // 2 + 1, kind & 1
        if point is None:
            first = buf[s[0]:s[0] + size].tobytes()
            pt, ex = max(first.find(b"."), 0), max(first.find(b"e"), 0)
        else:
            pt, ex = kind >> 11, kind >> 6 & 31
        got = _layout_values(buf, s, size, pt, ex, sg)
        if got is None:
            return None
        x[rows], M[rows], e10[rows] = got
    return x, M, e10
