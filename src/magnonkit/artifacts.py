"""Deterministic JSON and CSV artifact writers.

Every float is printed as ``'%.17g' % value`` (17 significant digits) so
artifacts round-trip exactly and rerunning a command reproduces
byte-identical files.  JSON is produced as a stream of chunks:
:func:`write_json` writes them to the file as they come and
:func:`json_dumps` joins them, so a large float array is formatted a block
at a time and never exists as one Python list or one string.
:func:`write_csv` takes its table as equal-length columns and writes it a
block of rows at a time.

Every run of floats takes one path, :func:`_float_texts`: one ``'%.17g'``
format call for fewer than ``_KERNEL_MIN`` values, else the kernel, each
giving bytes until a block is joined.  A float vector (a 1-D float64
array, a JSON list of floats or a float64 CSV column) is formatted a block of
``_BLOCK`` values at a time, each distinct value of a block once: the values
are grouped by their bit patterns (so ``-0.0`` and ``0.0``, and NaNs of
different payloads, stay apart) and the texts gathered back in order.  Grid
functions such as n(q), eps(q) and D(q) depend on q only through the gap, so
on a symmetric lattice they repeat heavily.  A 2-D float64 array is not
grouped: a block of whole rows (at least ``_BLOCK`` values) per call, then
written a row at a time.  Narrower float arrays go through ``tolist()``,
which widens them exactly, like int arrays.

The kernel gives the bytes of ``'%.17g'`` in vectorized numpy.  With
|x| = m 2**e and k = floor(log10 |x|), it forms v = |x| 10**(16 - k) in
double-double arithmetic (Dekker's exact product of m with a table of
powers of ten 10**s = (h + l) 2**g, whose h and residual l are correctly
rounded from exact integers; numpy does not fuse multiply-adds), so v is
within about 1e-14 of its exact value, and rounds v to the 17-digit integer
N, which it keeps only where v lies more than 1e-6 from a half-integer:
there the rounding is certain.  It then lays out the digits of N as C's
``%g`` does (fixed notation for -4 <= k < 17, else d.ddde+XX, trailing
zeros dropped) from lookup tables, eight bytes at a time.  Zeros,
infinities, NaNs and the values it cannot certify (ties at the 17th digit
and values within 1e-6 of one) take ``'%.17g' %`` itself, so every artifact
byte is what ``'%.17g' %`` gives.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

_BLOCK = 4096  # floats per chunk of a vector, rows per chunk of a CSV table
# Fewest floats the kernel formats in one call.  Its fixed cost is about
# 0.3 ms: on a 2-vCPU VM it and one '%.17g' call broke even near 512 values
# (0.3-0.46 ms each), and for 4096 values the call took 2.9-4.2 ms and the
# kernel 1.2-1.6 ms.
_KERNEL_MIN = 512
# |v - N| below this certifies N = round(v); v's error is about 1e-14.
_CERTAIN = 0.5 - 1e-6
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter of a 53-bit significand
_U = np.uint64
# sign, "0." and the zeros ahead of the digits of a small value, by (negative, leading zeros)
_PREFIXES = [b"", b"-", b"0.", b"-0.", b"0.0", b"-0.0", b"0.00", b"-0.00", b"0.000", b"-0.000"]


def fmt(value) -> str:
    """Full-precision float formatting used in all artifacts and summaries."""
    return "%.17g" % float(value)


def _split(a):
    """a = hi + lo with each half of a's significand."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b, b_hi, b_lo):
    """a * b = p + e exactly (Dekker), for b split as b_hi + b_lo."""
    p = a * b
    a_hi, a_lo = _split(a)
    e = a_hi * b_hi
    e -= p
    e += a_hi * b_lo
    e += a_lo * b_hi
    e += a_lo * b_lo
    return p, e


class _Tables(NamedTuple):
    digits: np.ndarray  # ASCII of 0000..9999, first digit in the low byte
    zeros: np.ndarray  # trailing zero digits of 0000..9999 (4 for 0)
    first: np.ndarray  # first[c + 16]: mask of the first c bytes of a word, c clipped to 0..8
    prefix: np.ndarray  # _PREFIXES as words
    prefix_len: np.ndarray
    suffix: np.ndarray  # "e-324" .. "e+308" as words
    powers: tuple  # 10**s = (h + l) 2**g for s = -292..340: h, h split in halves, l
    biased: np.ndarray  # g + 1023


@functools.cache
def _tables() -> _Tables:
    """The kernel's lookup tables, built on first use (about 4 ms)."""
    ascii4 = np.empty((10, 10, 10, 10, 4), np.uint8)  # [a, b, c, d] -> "abcd", in uint8 throughout
    for j in range(4):
        ascii4[..., j] = np.arange(48, 58, dtype=np.uint8).reshape([-1 if i == j else 1 for i in range(4)])
    ascii4 = ascii4.reshape(10_000, 4)
    digits = ascii4.view(np.uint32).ravel().astype(np.uint64)
    zeros = np.argmax(ascii4[:, ::-1] != 48, axis=1).astype(np.uint8)
    zeros[0] = 4
    counts = np.clip(np.arange(-16, 25), 0, 8).astype(np.uint64)
    first = np.where(counts == 8, ~_U(0), (_U(1) << (_U(8) * counts)) - _U(1))
    prefixes = np.array(_PREFIXES, dtype="S8")
    prefix_len = np.count_nonzero(prefixes.view(np.uint8).reshape(-1, 8), axis=1)
    exponent = np.arange(-324, 309)
    size = np.abs(exponent)
    sign = np.where(exponent < 0, _U(ord("-")), _U(ord("+")))
    size_text = digits[size] >> np.where(size >= 100, _U(8), _U(16))  # two or three digits
    suffix = _U(ord("e")) | (sign << _U(8)) | (size_text << _U(16))
    # 10**s = (h + l) 2**g with h in [0.5, 1), from exact integers: int / int rounds
    # correctly, so h is 10**s 2**-g and l the residual, each correctly rounded
    h, l, g = [], [], []
    for s in range(-292, 341):
        ten = 10 ** abs(s)
        shift = ten.bit_length() if s >= 0 else 1 - ten.bit_length()
        num, den = (ten, 1 << shift) if s >= 0 else (1 << -shift, ten)  # 10**s 2**-g
        high = num / den
        a, b = high.as_integer_ratio()
        h.append(high)
        l.append((num * b - a * den) / (den * b))
        g.append(shift)
    h, l, g = np.array(h), np.array(l), np.array(g)
    return _Tables(digits, zeros, first, prefixes.view(np.uint64), prefix_len, suffix,
                   (h, *_split(h), l), g + 1023)


def _scaled(m, e, k, tables: _Tables):
    """N = round(m 2**e 10**(16 - k)), and the unrounded value minus N."""
    row = 308 - k  # 10**(16 - k) = (h + l) 2**g
    h, h_hi, h_lo, l = tables.powers
    hi, lo = _two_product(m, h[row], h_hi[row], h_lo[row])
    lo += m * l[row]
    scale = ((e + tables.biased[row]) << 52).view(np.float64)  # 2**(e + g), exact
    hi *= scale
    lo *= scale
    n = np.rint(hi)
    hi -= n
    hi += lo  # the scaled value minus n
    step = np.rint(hi)
    hi -= step
    n = n.astype(np.int64)
    n += step.astype(np.int64)
    return n, hi


def _outside(n, rest):
    """Where the scaled value lies outside [10**16, 10**17 + 1/2): k was a decade off."""
    return (n > 10**17) | (n < 10**16) | ((n == 10**16) & (rest < 0.0))


def _decimal(values: np.ndarray, tables: _Tables):
    """|value| = N 10**(k - 16) to 17 significant digits, and where N is certified."""
    a = np.abs(values)
    ok = (a > 0.0) & (a < np.inf)  # finite and nonzero
    a[~ok] = 1.0
    m, e = np.frexp(a)
    k = np.floor(np.log10(a, out=a)).astype(np.int32)
    n, rest = _scaled(m, e, k, tables)
    off = np.flatnonzero(_outside(n, rest))
    if off.size:  # log10 rounded across a power of ten
        k[off] += np.where(n[off] > 10**17, 1, -1)
        n[off], rest[off] = _scaled(m[off], e[off], k[off], tables)
        ok[off] &= ~_outside(n[off], rest[off])
    ok &= np.abs(rest) < _CERTAIN
    carry = n == 10**17  # rounded up to the next decade
    n[carry] = 10**16
    k += carry
    return n, k, ok


def _digits(n, words, tables: _Tables):
    """Write the 17 digits of N into ``words``; return how many of them are trailing zeros.

    N is consumed: it ends as its last group of four digits.
    """
    text, zeros = tables.digits, tables.zeros
    lead = n // 10**16
    n -= lead * 10**16
    high = n // 10**8
    n -= high * 10**8
    g1 = high // 10**4
    high -= g1 * 10**4
    g3 = n // 10**4
    n -= g3 * 10**4
    first = text[g1] | (text[high] << _U(32))
    second = text[g3] | (text[n] << _U(32))
    np.bitwise_or(lead.astype(np.uint64) + _U(48), first << _U(8), out=words[0])
    np.bitwise_or(first >> _U(56), second << _U(8), out=words[1])
    np.right_shift(second, _U(56), out=words[2])
    low = zeros[n] + (n == 0) * zeros[g3]
    return low + ((n == 0) & (g3 == 0)) * (zeros[high] + (high == 0) * zeros[g1])


def _shift_up(words, bits) -> None:
    """Shift a little-endian multiword up by ``bits`` < 64 (bytes move to higher offsets), in place."""
    carry = 0
    for word in words:
        out = (word >> _U(1)) >> (_U(63) - bits)
        word <<= bits
        word |= carry
        carry = out


def _point(words, shown, point, tables: _Tables):
    """Keep the first ``shown`` digits, with a point after the first ``point`` unless none follow.

    Returns the length of the text.
    """
    dots = _U(0x2E2E2E2E2E2E2E2E) * (shown > point).astype(np.uint64)
    first, carry = tables.first, 0
    for j, word in enumerate(words):
        head = first[point + (16 - 8 * j)]  # the mask of the first bytes, clipped to this word
        rest = word & first[shown + (16 - 8 * j)] & ~head
        word &= head
        word |= (rest << _U(8)) | carry | ((first[point + (17 - 8 * j)] ^ head) & dots)
        carry = rest >> _U(56)
    return shown + (shown > point)


def _append(words, suffix, at) -> None:
    """Place the one-word ``suffix`` at byte offset ``at`` (0..23) of the text."""
    bits = ((at & 7) << 3).astype(np.uint64)
    below, above = suffix << bits, (suffix >> _U(1)) >> (_U(63) - bits)
    at = at >> 3
    for j, word in enumerate(words):
        word |= np.where(at == j, below, 0) | np.where(at == j - 1, above, 0)


def _layout(n, k, negative, tables: _Tables) -> np.ndarray:
    """The text of C's ``%.17g`` for N 10**(k - 16), as rows of three words.

    Fixed notation for -4 <= k < 17, else d.ddde+XX; trailing zeros and a
    bare point are dropped.  The rows are written in place, a word at a
    time, to keep the temporaries few.
    """
    text = np.empty((len(n), 3), np.uint64)
    words = [text[:, j] for j in range(3)]
    trailing = _digits(n, words, tables)
    fixed = (k >= -4) & (k < 17)
    small = fixed & (k < 0)  # 0.000ddd: the "0." and zeros go into the prefix
    whole = np.where(fixed & ~small, k + 1, 1)  # digits ahead of the point
    shown = np.maximum(17 - trailing, whole)
    at = _point(words, shown, np.where(small, shown, whole), tables)
    _append(words, np.where(fixed, _U(0), tables.suffix[k + 324]), at)  # the exponent of e-notation
    # the sign, with the "0.000" of a small value, ahead of it all
    prefix = negative + 2 * np.where(small, -k, 0)
    _shift_up(words, (tables.prefix_len[prefix] << 3).astype(np.uint64))
    words[0] |= tables.prefix[prefix]
    return text


def _float_kernel(values: np.ndarray) -> list[bytes]:
    """The ``'%.17g'`` text of each float64 value, as bytes."""
    tables = _tables()
    n, k, ok = _decimal(values, tables)
    text = _layout(n, k, np.signbit(values), tables)
    fallback = np.flatnonzero(~ok)
    if fallback.size:
        text[fallback] = np.array(_plain(values[fallback]), dtype="S24").view(np.uint64).reshape(-1, 3)
    return text.view("S24").ravel().tolist()


def _plain(values: np.ndarray) -> list[bytes]:
    """The full-precision text of each float, as bytes, from one ``'%.17g'`` format call."""
    text = ",".join(["%.17g"] * len(values)) % tuple(values.tolist())
    return text.encode().split(b",")  # %.17g prints no comma


def _float_texts(values: np.ndarray) -> list[bytes]:
    """The full-precision text of each float64 value, as bytes: by the kernel from ``_KERNEL_MIN`` values on.

    The one float formatter of the writers.
    """
    if len(values) < _KERNEL_MIN:
        return _plain(values)
    return _float_kernel(values)


def _vector_texts(values: np.ndarray) -> list[bytes]:
    """The texts of a float64 vector, each distinct value formatted once."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if len(distinct) == len(values):
        return _float_texts(values)
    return np.array(_float_texts(distinct.view(np.float64)), dtype=object)[inverse].tolist()


def _float_array(array: np.ndarray, level: int, indent: int) -> Iterator[str]:
    """A nonempty 1-D or 2-D float array, straight from the array, a block at a time."""
    pad, pad_in = " " * (indent * level), " " * (indent * (level + 1))
    if array.ndim == 1:
        sep = ",\n" + pad_in
        yield "[\n" + pad_in
        for start in range(0, len(array), _BLOCK):
            if start:
                yield sep
            yield sep.encode().join(_vector_texts(array[start:start + _BLOCK])).decode("ascii")
        yield "\n" + pad + "]"
        return
    pad_row = pad_in + " " * indent
    sep = ",\n" + pad_row
    row_sep = "\n" + pad_in + "],\n" + pad_in + "[\n" + pad_row
    rows = -(-_BLOCK // array.shape[1])  # whole rows, at least _BLOCK values
    yield "[\n" + pad_in + "[\n" + pad_row
    for start in range(0, len(array), rows):
        if start:
            yield row_sep
        yield from _rows(array[start:start + rows], sep, row_sep)
    yield "\n" + pad_in + "]\n" + pad + "]"


def _rows(block: np.ndarray, sep: str, row_sep: str) -> Iterator[str]:
    """The rows of a 2-D float block: one format call for the block, then a row at a time."""
    texts, width, sep = _float_texts(block.ravel()), block.shape[1], sep.encode()
    for start in range(0, len(texts), width):
        if start:
            yield row_sep
        yield sep.join(texts[start:start + width]).decode("ascii")


def _chunks(node, level: int, indent: int) -> Iterator[str]:
    """The JSON text of ``node`` as a sequence of chunks."""
    if isinstance(node, np.ndarray):
        if node.dtype == np.float64 and node.ndim in (1, 2) and node.size:
            yield from _float_array(node, level, indent)
        else:
            yield from _chunks(node.tolist(), level, indent)
        return
    if isinstance(node, np.floating):
        node = float(node)
    elif isinstance(node, np.integer):
        node = int(node)
    if node is None:
        yield "null"
    elif isinstance(node, bool):
        yield "true" if node else "false"
    elif isinstance(node, int):
        yield str(node)
    elif isinstance(node, float):
        yield fmt(node)
    elif isinstance(node, str):
        yield json.dumps(node)
    elif isinstance(node, (dict, list, tuple)):
        if not node:
            yield "{}" if isinstance(node, dict) else "[]"
            return
        pad, pad_in = " " * (indent * level), " " * (indent * (level + 1))
        if isinstance(node, dict):
            node = {str(k): v for k, v in node.items()}
            yield "{"
            for i, (key, value) in enumerate(node.items()):
                yield (",\n" if i else "\n") + pad_in + json.dumps(key) + ": "
                yield from _chunks(value, level + 1, indent)
            yield "\n" + pad + "}"
        elif all(isinstance(v, float) for v in node):
            yield from _float_array(np.array(node, dtype=np.float64), level, indent)
        else:
            yield "["
            for i, value in enumerate(node):
                yield (",\n" if i else "\n") + pad_in
                yield from _chunks(value, level + 1, indent)
            yield "\n" + pad + "]"
    else:
        raise TypeError(f"cannot serialize {type(node).__name__}")


def json_dumps(obj, indent: int = 2) -> str:
    """Serialize with full-precision floats (stdlib json shortens them)."""
    return "".join(_chunks(obj, 0, indent)) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.writelines(_chunks(obj, 0, 2))
        fh.write("\n")


def _cell(cell) -> str:
    if isinstance(cell, bool) or isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        return fmt(cell)
    return str(cell)


def _column_texts(column) -> list[str]:
    """The CSV cells of one column block."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return b"\n".join(_vector_texts(column)).decode("ascii").split("\n")
        if column.dtype.kind == "b":
            column = column.astype(np.uint8)  # written as 0 and 1, like str(int(v))
        if column.dtype.kind in "iu":
            return list(map(str, column.tolist()))
        if column.dtype.kind == "f":
            column = column.tolist()  # float16 and float32 widen exactly, with no warning
    return [_cell(cell) for cell in column]


def write_csv(path, header, columns: Sequence, preamble=()) -> None:
    """Write a table given as equal-length columns; floats at full precision.

    A float64 array column is formatted as a float vector (each distinct
    value of a block once), an int or bool array column as integers, and any
    other column (a list, or a float32 array, say) cell by cell: ints and
    bools as integers, floats at full precision, anything else with ``str``.
    ``preamble`` lines (the effective configuration) are embedded as '#'
    comments ahead of the header.
    """
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    with open(path, "w") as fh:
        for line in preamble:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _BLOCK):
            cells = [_column_texts(column[start:start + _BLOCK]) for column in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
