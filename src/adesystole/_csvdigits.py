"""The CSV digit kernel: a report's rows byte for byte as the `_CSV_ROW`
template writes them, at numpy speed.

`cli.render_csv` imports this module on first use, so only `--output csv`
pays for compiling it and for building its tables.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

_CSV_ROW = "\n%d,%.17g,%.17g,%.17g,%.17g"

# The kernel's decimal exponents E, one past [-280, 280] on each side for a
# log10 that is an ulp off: 10^(16-E), its split halves and its low part
# all stay normal floats, and so does every product of the two-product.
_EXP = 281
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for doubles
_MARGIN = 1e-9  # least distance from a rounding tie; the error is under 1e-14

# A row is 26 words of 8 bytes: 7 unused bytes, the newline and the
# index's 8 digit bytes, then 6 words per float.  A float's words are
#   ',' '0' '.' '0' '0' '0' d0 '.' | d1 '.' d2 '.' d3 '.' d4 '.' | ... d16 '.' | 'e' sign h t u . . .
# and a mask row keeps %g's bytes: '0.' and up to three zeros for a fixed
# layout below 1, the significant digits, the point after digit E of a
# fixed layout or after d0 of an exponent layout, the exponent's letter,
# sign and two or three digits.  A report has at most 10^8 rows (the
# sampler's and the optimizer's cap), so its index has at most 8 digits.


class _CsvTables(NamedTuple):
    """What the CSV digit kernel looks up; built on the first render."""

    head: np.ndarray  # 10^(16-E) rounded, by E + _EXP
    head_hi: np.ndarray  # its Veltkamp halves
    head_lo: np.ndarray
    tail: np.ndarray  # 10^(16-E) - head, rounded
    lead: np.ndarray  # a float's first word, by its first digit
    groups: np.ndarray  # 'd.d.d.d.' words of 0..9999
    group_digits: np.ndarray  # digits of a group up to its last nonzero one
    index_groups: np.ndarray  # 'dddd' (uint32) of 0..9999
    index_masks: np.ndarray  # a row's first two mask words, by index digits
    exponents: np.ndarray  # a float's last word, by E + _EXP
    masks: np.ndarray  # a float's 6 mask words, by (E + _EXP) * 18 + digits
    template: np.ndarray  # one row's constant words


def _words(text: bytes, dtype=np.uint64) -> np.ndarray:
    return np.frombuffer(text, np.uint8).view(dtype)


@lru_cache(maxsize=1)
def _csv_tables() -> _CsvTables:
    exps = range(-_EXP, _EXP + 1)
    head, tail = [], []
    for k in (16 - e for e in exps):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        a, b = (num / den).as_integer_ratio()
        head.append(a / b)
        tail.append((num * b - a * den) / (den * b))  # int division rounds correctly
    head = np.array(head)
    c = head * _SPLIT
    head_hi = c - (c - head)
    digits = np.indices((10,) * 4).reshape(4, -1).T + ord("0")  # row k: the digits of k
    k = np.arange(10000)
    group_digits = 4 - (k % 10 == 0) - (k % 100 == 0) - (k % 1000 == 0) - (k == 0)
    dotted = np.full((10000, 8), ord("."), np.uint8)
    dotted[:, ::2] = digits

    # A mask depends on E only through %g's layout: E itself from -4 to 16,
    # else whether the exponent has two digits or three.
    e = np.arange(-_EXP, _EXP + 1)
    layout = np.where(np.abs(e) >= 100, 100, np.clip(e, -5, 17))
    layouts, layout_of = np.unique(layout, return_inverse=True)
    e = layouts[:, None, None]
    nd = np.arange(18)[None, :, None]
    pos = np.arange(48)
    digit, point = (pos - 6) // 2, (pos - 7) // 2
    is_digit = (pos >= 6) & (pos <= 38) & (pos % 2 == 0)
    is_point = (pos >= 7) & (pos <= 37) & (pos % 2 == 1)
    power = (e < -4) | (e >= 17)  # %g's exponent layout
    fixed = ~power & (e >= 0)
    small = ~power & (e < 0)
    masks = (
        (pos == 0)
        | (is_digit & (digit < np.where(fixed, np.maximum(nd, e + 1), nd)))
        | (is_point & power & (point == 0) & (nd > 1))
        | (is_point & fixed & (point == e) & (nd > e + 1))
        | (small & ((pos == 1) | (pos == 2) | ((pos >= 3) & (pos < 2 - e))))
        | (power & (pos >= 40) & (pos <= 44) & ((pos != 42) | (np.abs(e) >= 100)))
    )
    index_masks = (np.arange(16) == 7) | (np.arange(16) >= 16 - np.arange(9)[:, None])
    return _CsvTables(
        head=head,
        head_hi=head_hi,
        head_lo=head - head_hi,
        tail=np.array(tail),
        lead=_words(b"".join(b",0.000%d." % d for d in range(10))),
        groups=_words(dotted.tobytes()),
        group_digits=group_digits,
        index_groups=_words(digits.astype(np.uint8).tobytes(), np.uint32),
        index_masks=index_masks.view(np.uint64),
        exponents=_words(b"".join(b"e%+04d   " % e for e in exps)),
        masks=masks[layout_of].reshape(-1, 48).view(np.uint64),
        template=_words(b"       \n00000000" + (b",0.000" + b"0." * 17 + b"e+000   ") * 4),
    )


def _scaled(t: _CsvTables, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For positive x in [1e-280, 1e280]: E + _EXP, E = floor(log10 x) as
    numpy's log10 gives it, and x * 10^(16-E) as prod + rem, where prod is
    the rounded product with the head of 10^(16-E) and rem is within 1e-14
    of the rest: an exact two-product (Dekker) with the head, plus x times
    the tail."""
    at = np.floor(np.log10(x)).astype(np.intp)
    at += _EXP
    prod = x * t.head[at]
    c = x * _SPLIT
    x_hi = c - (c - x)
    x_lo = x - x_hi
    h_hi, h_lo = t.head_hi[at], t.head_lo[at]
    rem = x_hi * h_hi - prod  # prod + rem is x * head exactly
    rem += x_hi * h_lo
    rem += x_lo * h_hi
    rem += x_lo * h_lo
    rem += x * t.tail[at]
    return at, prod, rem


def _csv_block(t: _CsvTables, start: int, values: np.ndarray, words: np.ndarray, mask: np.ndarray) -> str:
    """Rows start, start+1, ... of `values` (rows x 4) as `_CSV_ROW` writes
    them.  A value x is written from the 17 digits of the integer N nearest
    x * 10^(16-E), E = floor(log10 x), which `_scaled` finds with an error
    under 1e-14.  A row is written by the template instead if one of its
    values is out of [1e-280, 1e280] (zero, negative and non-finite values
    among them), within `_MARGIN` of a rounding tie, has a product not
    above 10^16 (log10 rounded up just below a power of ten) or rounds to
    N = 10^17."""
    rows = len(values)
    x = values.ravel()
    ok = (x >= 1e-280) & (x <= 1e280)
    at, prod, rem = _scaled(t, np.where(ok, x, 1.5))
    near = np.rint(rem)
    n = prod.astype(np.int64) + near.astype(np.int64)
    ok &= (prod > 1e16) | ((prod == 1e16) & (rem > 0))
    ok &= n < 10**17
    ok &= np.abs(np.abs(rem - near) - 0.5) > _MARGIN
    n[~ok] = 10**16
    top, low = np.divmod(n, 10**8)
    first, top = np.divmod(top, 10**8)
    groups = (*np.divmod(top, 10**4), *np.divmod(low, 10**4))
    shown = t.group_digits[groups[3]] + 13  # digits up to the last nonzero one
    for k in (2, 1, 0):  # the groups after group k are zeros
        end = np.flatnonzero(shown == 4 * k + 5)
        shown[end] += t.group_digits[groups[k][end]] - 4
    shown += at * 18

    row = words[:rows]
    fields = row[:, 2:].reshape(rows, 4, 6)
    fields[..., 0] = t.lead[first].reshape(rows, 4)
    for k, g in enumerate(groups, 1):
        fields[..., k] = t.groups[g].reshape(rows, 4)
    fields[..., 5] = t.exponents[at].reshape(rows, 4)
    index = np.arange(start, start + rows)
    half = row.view(np.uint32)
    half[:, 2], half[:, 3] = t.index_groups[index // 10**4], t.index_groups[index % 10**4]
    digits = np.ones(rows, dtype=np.intp)
    for power in range(1, 9):
        digits[max(10**power - start, 0) :] += 1
    keep = mask[:rows]
    keep[:, :2] = t.index_masks[digits]
    keep[:, 2:] = t.masks[shown].reshape(rows, 24)

    slow = np.flatnonzero(~ok.reshape(rows, 4).all(axis=1))
    keep[slow] = 0
    text = np.compress(keep.view(bool).ravel(), row.view(np.uint8).ravel()).tobytes().decode("ascii")
    if not slow.size:
        return text
    cuts = np.cumsum(keep.view(bool).sum(axis=1))[slow].tolist()
    parts, done = [], 0
    for cut, r in zip(cuts, slow.tolist()):
        parts += (text[done:cut], _CSV_ROW % (start + r, *values[r].tolist()))
        done = cut
    parts.append(text[done:])
    return "".join(parts)
