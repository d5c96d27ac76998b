"""CSV text of a block of rows, each float byte for byte as its `repr`.

`format_rows` does not call `repr`. The shortest digits that round-trip come
from Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020),
computed for a block's floats together in numpy's uint64 arithmetic;
CPython's layout of `repr` is then applied to them. The module builds its
tables when it is imported, and the trajectory writer imports it at its
first block, so importing the package neither compiles this module nor
builds its tables.
"""

from __future__ import annotations

from ._lazy import np


# Schubfach's decimal exponents k of 10^-k: every double's k lies in here.
_K_MIN, _K_MAX = -324, 292
_M32, _M63 = (1 << 32) - 1, (1 << 63) - 1
# Decimal-point positions (value = 0.d1d2... 10^decpt) of finite doubles
# lie in [-323, 309]; the class table is indexed by decpt + _DECPT_BIAS.
_DECPT_BIAS = 330
# Exponent-form layout classes: (exponent digits, exponent sign).
_EXP_CLASSES = {0: (3, "-"), 1: (2, "-"), 22: (2, "+"), 23: (3, "+")}
# Layout keys: (class * 17 + significant digits - 1) * 2 + negative, then
# the three special values, in this order.
_SPECIALS = ("nan", "inf", "-inf")
_NAN_KEY = 24 * 17 * 2
# Floats per chunk of the first pass: its temporaries take about 180 bytes
# a float. Chunks of 4096 took 10% less CPU but raise a block's peak from
# 0.73 to 0.95 MB (tracemalloc), which the process's peak RSS keeps; chunks
# of 1024 took 31% more CPU (fastest of 7 runs over 20 000 rows, 2-core
# x86-64 VM).
_CHUNK = 2048


def _decpt_class(decpt: int) -> int:
    """repr's layout class of a decimal-point position: 2..21 are the fixed
    forms (decpt -3..16); 0, 1, 22 and 23 the exponent forms, by the sign
    and the digit count (3 or 2) of the exponent decpt - 1."""
    if -3 <= decpt <= 16:
        return decpt + 5
    if decpt < 0:
        return 0 if decpt <= -99 else 1
    return 23 if decpt >= 101 else 22


def _layout(cls: int, nd: int, neg: int) -> tuple[int, ...]:
    """(length, digit start, dot insertion index, dot, 'e', exponent digits,
    exponent sign, minus) of the text of nd significant digits in layout
    class `cls`, negative if `neg`. Positions count from the start of the
    text. The digits are written as one 18-byte window whose bytes from the
    insertion index on move up by one, leaving a byte for the dot."""
    if cls in _EXP_CLASSES:     # d[.ddd]e±XX
        width, sign = _EXP_CLASSES[cls]
        e = neg + nd + (nd > 1)
        # the exponent's three digits start one early when it has two, and
        # its sign, written after them, covers their leading 0
        return (e + 2 + width, neg, 1, neg + 1, e, e + width - 1,
                ord(sign), neg)
    decpt = cls - 5
    if decpt <= 0:              # 0.000ddd
        return (neg + 2 - decpt + nd, neg + 2 - decpt, 18, neg + 1,
                0, 0, 0, neg)
    # ddd.ddd, or ddd000.0: the digits past nd are the window's zeros
    return neg + max(nd + 1, decpt + 2), neg, decpt, neg + decpt, 0, 0, 0, neg


def _pow10_scaled(k: int) -> int:
    """g with 10^-k = g 2^r and 2^125 <= g < 2^126, rounded up (+1)."""
    p = 10 ** abs(k)
    if k > 0:
        return (1 << 125 + p.bit_length()) // p + 1
    r = p.bit_length() - 126
    return (p >> r if r >= 0 else p << -r) + 1


def _table(values, dtype=np.int64) -> np.ndarray:
    """A read-only array of `values`."""
    a = np.array(values, dtype)
    a.setflags(write=False)
    return a


# The formatter's constant tables, built at import.
_G = [_pow10_scaled(k) for k in range(_K_MIN, _K_MAX + 1)]
_G1 = _table([g >> 63 for g in _G], np.uint64)
_G0 = _table([g & _M63 for g in _G], np.uint64)
_POW10 = _table([10**i for i in range(18)], np.uint64)
# the three digits of the exponent decpt - 1, by decpt + _DECPT_BIAS
_EXP_DIGITS = np.frombuffer(b"".join(
    b"%03d" % abs(d - _DECPT_BIAS - 1)
    for d in range(2 * _DECPT_BIAS + 1)), np.uint8).reshape(-1, 3)
_LOW = _table([[(1 << 8 * min(max(p - 8 * i, 0), 8)) - 1 for p in range(19)]
               for i in range(3)], np.uint64)
_CLASS = _table([_decpt_class(d - _DECPT_BIAS)
                 for d in range(2 * _DECPT_BIAS + 1)])
_LAYOUTS = [_layout(c, nd, neg) for c in range(24) for nd in range(1, 18)
            for neg in (0, 1)]
# a special value's window of zeros and its dot fall inside its text
_LAYOUTS += [(len(text), 0, 18, 1, 0, 0, 0, text[0] == "-")
             for text in _SPECIALS]
# each layout key's _layout fields
_LEN, _START, _INSERT, _DOT, _E, _EXP, _SIGN, _MINUS = (
    _table(column, dtype) for column, dtype
    in zip(zip(*_LAYOUTS), [np.int64] * 7 + [bool]))
del _G, _LAYOUTS


def _mulhi(al, ah, bl, bh):
    """The high 64 bits of the 128-bit products a b, from 32-bit limbs."""
    t = ah * bl
    t += al * bl >> 32
    mid = al * bh
    mid += t & _M32
    hi = ah * bh
    hi += t >> 32
    hi += mid >> 32
    return hi


def _round_to_odd(x1, y0, y1):
    """Schubfach's r_o(g cp 2^-127) from x1 = hi(g0 cp) and (y1, y0) =
    g1 cp, where g = g1 2^63 + g0: the integer part, with its lowest bit
    set if the 63 bits below it are not all zero."""
    z = y0 >> 1
    z += x1
    v = z >> 63
    v += y1
    z &= _M63
    z += _M63
    z >>= 63
    v |= z
    return v


def _moved(lo, hi, g, s, up: bool):
    """(lo, hi) + or - g 2^s as 128-bit integers, for g < 2^63, 0 < s < 64."""
    d = g << s
    new = lo + d if up else lo - d
    carry = new < lo if up else new > lo
    d = g >> (64 - s)
    return new, (hi + d + carry) if up else (hi - d - carry)


def _products(c, h, irregular, i):
    """Schubfach's (vb, vbl, vbr): r_o(g cp 2^-127) for cp = 4c 2^h, the
    value, and for its rounding bounds (4c - 2) 2^h, or (4c - 1) 2^h where
    `irregular`, and (4c + 2) 2^h. The bounds' products are the value's
    moved by g0 2^s and g1 2^s, so only the value's need limb products."""
    g1, g0 = _G1.take(i), _G0.take(i)
    cp = c << 2 + h
    cl, ch = cp & _M32, cp >> 32
    x1 = _mulhi(g0 & _M32, g0 >> 32, cl, ch)
    y1 = _mulhi(g1 & _M32, g1 >> 32, cl, ch)
    x0, y0 = g0 * cp, g1 * cp      # the low halves, modulo 2^64
    del cp, cl, ch
    s = h + 1
    return (_round_to_odd(x1, y0, y1),
            *(_round_to_odd(_moved(x0, x1, g0, shift, up)[1],
                            *_moved(y0, y1, g1, shift, up))
              for up, shift in ((False, s - irregular), (True, s))))


def _shortest(bits):
    """(f, k) with f 10^k the shortest decimal that rounds to each positive
    finite double whose int64 bits are `bits`, the closer of two such, and
    the one with the even last digit of two equally close ones.

    This is Schubfach as in Java's DoubleToDecimal, without Java's rule of
    at least two digits: it keeps no `s >= 100` guard and does not scale
    subnormal significands below 3 by ten, so 5e-324 stays 5e-324, not
    4.9e-324.
    """
    t = bits & (1 << 52) - 1
    bq = bits >> 52
    q = np.maximum(bq, 1) - 1075
    c = bits - (q + 1074 << 52)     # t, plus 2^52 if normal
    # 1 at a power of two, where the gap below is half the gap above
    irregular = -((t - 1 & 1 - bq) >> 63)
    del t, bq
    k = q * 661971961083 - irregular * 274743187321
    k >>= 41                        # floor(log10(2^q)), or (3/4) 2^q
    h = -k * 913124641741 >> 38     # floor(log2(10^-k))
    h += q + 2
    del q
    c = c.view(np.uint64)
    vb, vbl, vbr = _products(c, h.view(np.uint64),
                             irregular.view(np.uint64), k - _K_MIN)
    # with an odd significand the bounds round away from the double
    out = c & 1
    vbl += out
    vbr -= out
    s = vb >> 2
    # the one multiple of 10 (u' or w') in the interval, if only one is
    sp10 = s.view(np.int64) // 10 * 10
    sp10 = sp10.view(np.uint64)
    upin = vbl <= sp10 << 2
    wpin = (sp10 << 2) + 40 <= vbr
    # else the one of s and s + 1 in it, or if both, the closer to the value
    s4 = s << 2
    uin = vbl <= s4
    win = s4 + 4 <= vbr
    s4 += 2
    take_s = np.where(uin != win, uin,
                      (vb < s4) | (vb == s4) & (s & 1 == 0))
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10),
                 np.where(take_s, s, s + 1))
    return f, k


def _digit_words(F, insert=None):
    """The 17 digits of each F < 10^17, with leading zeros, as ASCII in
    bytes 0..16 of three little-endian uint64 words per value ((n, 3)), and
    '0' in bytes 17..23. Where `insert` is below 18, the bytes from that
    index on move up by one, to make room for a dot."""
    words = np.empty((len(F), 3), "<u8")   # its bytes are the text
    hi = F // 10**9
    lo = F - hi * 10**9
    np.add(lo % 10, 0x3030303030303030, out=words[:, 2])
    x = np.stack([hi, lo // 10], 1)     # digits 1-8 and 9-16
    # halve each number's lanes until each byte holds a digit, the leading
    # half in the lower lane
    q = x // 10**4
    x -= q * 10**4
    x <<= 32
    x |= q
    for mul, shift, mask, div, width in ((10486, 20, 0x7F0000007F, 100, 16),
                                         (103, 10, 0xF000F000F000F, 10, 8)):
        q = x * mul             # q >> shift is each lane // div
        q >>= shift
        q &= mask
        x -= q * div
        x <<= width
        x |= q
    np.add(x, 0x3030303030303030, out=words[:, :2])
    if insert is not None:
        carry = 0
        for col, low in enumerate(_LOW):
            w = words[:, col]
            low = low.take(insert)
            moved = w << 8
            moved |= carry
            carry = w >> 56
            w ^= moved          # (w & low) | (moved & ~low), in place
            w &= low
            w ^= moved
    return words


def _float_fields(x, digits, keys, decpts) -> None:
    """Write each float's shortest digits, padded with zeros to 17, into
    `digits`, its layout key into `keys` and its decimal point plus
    `_DECPT_BIAS` into `decpts`."""
    finite = np.isfinite(x)
    nonzero = finite & (x != 0)
    f, k = _shortest(np.where(nonzero, x.view(np.int64) & _M63, 1))
    f *= nonzero                # zero, inf and nan: the digit 0
    count = np.searchsorted(_POW10, f, "right")
    nd = count.copy()
    i = np.flatnonzero((f % 10 == 0) & (f > 0))
    tail = f[i]
    while len(i):               # drop trailing zeros
        tail //= 10
        nd[i] -= 1
        keep = tail % 10 == 0
        i, tail = i[keep], tail[keep]
    decpt = k + count
    nd[f == 0] = 1
    decpt[f == 0] = 1
    decpt += _DECPT_BIAS
    key = _CLASS.take(decpt) * 34
    key += nd * 2 - 2
    key += np.signbit(x)
    special = np.flatnonzero(~finite)
    key[special] = _NAN_KEY + np.where(
        np.isnan(x[special]), 0, 1 + (x[special] < 0))
    np.multiply(f, _POW10.take(17 - count), out=digits)
    keys[:], decpts[:] = key, decpt


def _put_windows(buf, pos, ends, words) -> None:
    """Write each value's 18-byte window of `words` at `pos`, or where it
    would cross its row's end (`ends`), byte by byte with the bytes past
    the row's newline clamped onto it."""
    windows = np.ndarray((max(len(buf) - 17, 0),), "V18", buf, 0, (1,))
    text = words.view(np.uint8)[:, :18]
    crossing = pos + 18 > ends
    slow = np.flatnonzero(crossing)
    if len(slow):
        buf[np.minimum(pos[slow, None] + np.arange(18),
                       ends[slow, None] - 1)] = text[slow]
        pos, text = pos[~crossing], text[~crossing]
    windows[pos] = text.view("V18")[:, 0]


def _punctuate(buf, begin, key, decpt) -> None:
    """Write the dot, sign, exponent or special text of floats whose texts
    start at `begin`, with decimal points `decpt` plus `_DECPT_BIAS`."""
    buf[begin + _DOT.take(key)] = ord(".")
    buf[begin[_MINUS.take(key)]] = ord("-")
    sign = _SIGN.take(key)
    ex = np.flatnonzero(sign)
    if len(ex):
        at = begin[ex]
        e = at + _E.take(key[ex])
        at += _EXP.take(key[ex])
        three = _EXP_DIGITS[decpt[ex]]
        for j in range(3):
            buf[at + j] = three[:, j]
        buf[e] = ord("e")
        buf[e + 1] = sign[ex]
    special = np.flatnonzero(key >= _NAN_KEY)
    if len(special):
        at = begin[special] + _MINUS.take(key[special])
        nan = key[special] == _NAN_KEY
        for j in range(3):
            buf[at + j] = np.where(nan, ord("nan"[j]), ord("inf"[j]))


def format_rows(columns) -> str:
    """CSV text of the rows of equal-length 1-D arrays: an integer column
    is written in decimal (its values must lie in [0, 10^17)), a float64
    column exactly as `repr` writes each value.

    First the floats, a few columns at a time, get their shortest digits
    and their layout, which gives the rows' lengths. Then the rows are
    placed in one byte buffer filled with '0', field by field from left to
    right: each field's digits go in as one 18-byte window, then its
    punctuation. Past a field's digits a window holds only zeros, which
    fall on bytes that a later field overwrites, that are zeros anyway, or
    that get a later field's punctuation; a window that would cross its
    row's end is written byte by byte instead, with those bytes clamped
    onto the row's newline, which goes in last.
    """
    n = len(columns[0])
    if n == 0:
        return ""
    floats = [c for c in columns if c.dtype.kind == "f"]
    digits = np.empty((len(floats), n), np.uint64)
    keys = np.empty((len(floats), n), np.int16)
    decpts = np.empty((len(floats), n), np.int16)
    per = max(1, _CHUNK // n)           # whole columns at a time
    for lo in range(0, len(floats), per):
        part = slice(lo, lo + per)
        _float_fields(np.concatenate(floats[part]), digits[part].reshape(-1),
                      keys[part].reshape(-1), decpts[part].reshape(-1))

    # an integer column's (lengths, digit words, values); a column of
    # one-digit integers (flags) has no words, its digit goes in with the
    # punctuation
    ints = {}
    row = sum(_LEN.take(key) for key in keys) + len(columns)
    for i, col in enumerate(columns):
        if col.dtype.kind != "f":
            v = col.astype(np.uint64)
            width = np.maximum(np.searchsorted(_POW10, v, "right"), 1)
            ints[i] = (width, None if v.max() < 10 else _digit_words(
                v * _POW10.take(17 - width)), v)
            row += width

    ends = np.cumsum(row)
    buf = np.full(int(ends[-1]), ord("0"), np.uint8)
    begin = ends - row
    j, words = 0, None      # the float column; words come a chunk at a time
    for i, col in enumerate(columns):
        if i in ints:
            width, text, v = ints.pop(i)
            if text is None:
                buf[begin] = v + ord("0")
            else:
                _put_windows(buf, begin, ends, text)
        else:
            if j % per == 0:    # free the last chunk's words first
                part, words = slice(j, j + per), None
                insert = _INSERT.take(keys[part].reshape(-1))
                words = _digit_words(digits[part].reshape(-1),
                                     insert).reshape(-1, n, 3)
            key = keys[j]
            width = _LEN.take(key)
            _put_windows(buf, begin + _START.take(key), ends,
                         words[j % per])
            _punctuate(buf, begin, key, decpts[j])
            j += 1
        begin += width
        buf[begin] = ord(",")
        begin += 1
    buf[ends - 1] = ord("\n")
    del digits, keys, decpts, words
    return str(buf, "ascii")
