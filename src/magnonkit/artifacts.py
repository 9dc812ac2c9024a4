"""Deterministic JSON and CSV artifact writers.

Every float is printed as ``'%.17g' % value`` (17 significant digits), in
JSON a non-finite one as ``json.dumps`` does (``NaN``, ``Infinity``), so
artifacts round-trip exactly and rerunning a command reproduces
byte-identical files.  JSON is produced as a stream of byte chunks that
:func:`write_json` writes to the file as they come, so a large finite float
array is formatted a block at a time and never exists as one Python list or
one string.  :func:`write_csv` takes its table as equal-length columns and
writes it a block of rows at a time.  Both write in binary mode.

Every run of floats (a JSON vector block, a JSON matrix row, a block of
CSV rows) is assembled the same way, with no Python object per value.
Each value has a cell of fixed-width uint64 words: ``_TEXT`` text words,
then the separator that follows the value.  The text words hold the sign
and the "0.000" of a small value (six bytes), the 18 digits of N' below
(two, then two words of eight), and the exponent of e-notation; every byte
the text does not use is NUL.  The run is then one
``cells.tobytes().translate(None, b"\\0")``, which drops the NULs.
:func:`_float_cells` fills the text words: one ``'%.17g'`` format call for
fewer than ``_KERNEL_MIN`` values, else the kernel.  A float vector (a 1-D
float64 array in JSON or a float64 CSV column) is formatted a block of
``_BLOCK`` values at a time by :func:`_column_cells`, each distinct value
of a block once: the values are grouped by their bit patterns (so ``-0.0``
and ``0.0``, and NaNs of different payloads, stay apart).  Grid functions
such as n(q), eps(q) and D(q) depend on q only through the gap, so on a
symmetric lattice they repeat heavily.  The distinct values' texts are
gathered back in order through the ``np.unique`` inverse into the text
words of the block's cells: a JSON block's, or the CSV block's table of
cells, one row of cells per CSV row.  A 2-D float64 array is not grouped:
a block of whole rows (at least ``_BLOCK`` values) per call, each row one
run, written as it is made.  In JSON, narrower float arrays go through
``tolist()``, which widens them exactly, like int arrays, and a list's
items are written one by one; so does a float64 array that holds a
non-finite value.

The kernel gives the bytes of ``'%.17g'`` in vectorized numpy.  With
k = floor(log10 |x|), it forms v = |x| 10**(16 - k) in double-double
arithmetic (Dekker's exact product of |x| with 10**(16 - k) = h + l, whose
h and residual l are correctly rounded from exact integers; numpy does not
fuse multiply-adds), so v is within about 1e-14 of its exact value, and
rounds v to the 17-digit integer N, which it keeps only where v lies more
than 1e-6 from a half-integer: there the rounding is certain.  It then lays
out the digits as C's ``%g`` does (fixed notation for -4 <= k < 17, else
d.ddde+XX, trailing zeros dropped).  The point is a zero digit put into N
after the digits ahead of it, which gives an 18-digit N'; its digits come
from a table of four-digit groups, one XOR makes that zero a ".", and a
mask by the text's length clears the trailing zeros.  None of it shifts a
word: the six bytes ahead of N' leave its groups aligned to the words.
Zeros, infinities, NaNs, values outside [1e-280, 1e300) (where h, l or the
splits would leave the normal range) and the values it does not certify
take ``'%.17g' %`` itself, so every artifact byte is what ``'%.17g' %``
gives.  It does not certify ties at the 17th digit, values within 1e-6 of
one, or an N not strictly between 10**16 and 10**17: exact powers of ten,
and the rare values whose log10 rounds across a power of ten or whose N
rounds up to 10**17.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

_INDENT = 2  # spaces per JSON nesting level
_BLOCK = 16384  # floats per chunk of a vector or matrix, rows per chunk of a CSV table
# Fewest floats the kernel formats in one call.  Its fixed cost is about
# 0.1 ms: on a 2-vCPU VM it and one '%.17g' call broke even between 128 and
# 192 values (0.10-0.15 ms each); for 256 values the call took 0.17 ms and
# the kernel 0.12 ms, for 16384 values 13-18 ms and 1.2-1.3 ms.
_KERNEL_MIN = 256
# |v - N| below this certifies N = round(v); v's error is about 1e-14.
_CERTAIN = 0.5 - 1e-6
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter of a 53-bit significand
_U = np.uint64
_TEXT = 4  # text words of a cell: the prefix with two digits, two digit words, the suffix
# The kernel formats |x| in [_LOWEST, _HIGHEST).  Its tables have a row for
# each k = floor(log10 |x|) from _K0 to _K1 - 1: one to spare at each end,
# for a log10 rounded across a power of ten.
_LOWEST, _HIGHEST = 1e-280, 1e300
_K0, _K1 = -282, 302


def fmt(value) -> str:
    """Full-precision float formatting used in all artifacts and summaries."""
    return "%.17g" % float(value)


def _split(a):
    """a = hi + lo with each half of a's significand."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _word(text: bytes) -> int:
    """Up to eight bytes as a NUL-padded little-endian word."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _words(values) -> tuple:
    """Integers of up to 24 bytes as three arrays of little-endian words."""
    return tuple(np.array([(v >> (64 * j)) & (2**64 - 1) for v in values], dtype=_U) for j in range(3))


class _Tables(NamedTuple):
    """The kernel's lookup tables; all but digits, lead, zeros and shown by k - _K0."""

    powers: tuple  # 10**(16 - k) = h + l: h, h split in halves, l
    digits: np.ndarray  # ASCII of 0000..9999, first digit in the low byte
    lead: np.ndarray  # ASCII of 00..99 in bytes 6 and 7
    zeros: np.ndarray  # trailing zero digits of 0000..9999 (4 for 0)
    scale: np.ndarray  # 10**(17 - p), p the digits of N ahead of the point
    layout: np.ndarray  # 18 p, or 0 for a small value
    marks: tuple  # per digit word: the "0." .. "0.000" of a small value in bytes 1-5 and the
    # XOR that makes the zero at the point a "."
    shown: tuple  # per digit word: the mask of the text, by layout + trailing zeros of N'
    suffix: np.ndarray  # the exponent of e-notation ("e-05", "e+17", "e-100"), else 0


@functools.cache
def _tables() -> _Tables:
    """The kernel's lookup tables, built on first use (about 3 ms)."""
    ascii4 = np.empty((10, 10, 10, 10, 4), np.uint8)  # [a, b, c, d] -> "abcd", in uint8 throughout
    for j in range(4):
        ascii4[..., j] = np.arange(48, 58, dtype=np.uint8).reshape([-1 if i == j else 1 for i in range(4)])
    ascii4 = ascii4.reshape(10_000, 4)
    digits = ascii4.view(np.uint32).ravel().astype(np.uint64)
    zeros = np.argmax(ascii4[:, ::-1] != 48, axis=1).astype(np.uint8)
    zeros[0] = 4
    h, l, scale, layout, marks, suffix = [], [], [], [], [], []
    for k in range(_K0, _K1):
        # 10**s = h + l from exact integers: int / int rounds correctly, so h is
        # 10**s correctly rounded and l the residual, correctly rounded
        s = 16 - k
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        h.append(num / den)
        a, b = h[-1].as_integer_ratio()
        l.append((num * b - a * den) / (den * b))
        # the point goes after the first p digits; a small value's is in its prefix
        small, fixed = -4 <= k < 0, -4 <= k < 17
        p = 17 if small else k + 1 if fixed else 1
        scale.append(10 ** (17 - p))
        layout.append(0 if small else 18 * p)
        prefix = _word(b"\0" + b"0.000"[:1 - k]) if small else 0
        marks.append(prefix | 0x1E << (8 * (6 + p)))  # "0" ^ 0x1E == "."
        suffix.append(0 if fixed else _word(b"e%+03d" % k))
    # layout 18 p shows at least p digits, a small value's at least one, and the point after the
    # p-th where a digit follows it: of N' with t trailing zeros, max(18 - t, p or 1) digit bytes
    shown = [(1 << (8 * (6 + max(18 - t, p or 1)))) - 1 for p in range(18) for t in range(18)]
    h = np.array(h)
    return _Tables((h, *_split(h), np.array(l)), digits, (digits[:100] >> _U(16)) << _U(48), zeros,
                   np.array(scale, dtype=_U), np.array(layout, dtype=np.intp), _words(marks), _words(shown),
                   np.array(suffix, dtype=_U))


def _scaled(a, row, tables: _Tables):
    """N = round(a 10**(16 - k)) for k = row + _K0, and the unrounded value minus N."""
    h, h_hi, h_lo, l = (np.take(column, row) for column in tables.powers)
    p = np.multiply(a, h, out=h)  # an integer where k is right: 2**53 < p < 2**57
    a_hi, a_lo = _split(a)
    e = a_hi * h_hi
    e -= p
    e += np.multiply(a_hi, h_lo, out=a_hi)
    e += np.multiply(a_lo, h_hi, out=h_hi)
    e += np.multiply(a_lo, h_lo, out=h_lo)  # a h = p + e exactly
    e += np.multiply(a, l, out=l)
    step = np.rint(e)
    e -= step
    n = p.astype(np.int64)
    n += step.astype(np.int64)
    return n, e


def _decimal(values: np.ndarray, tables: _Tables):
    """|value| = N 10**(k - 16) to 17 significant digits: N, the row k - _K0, and where N is certified."""
    a = np.abs(values)
    ok = a >= _LOWEST
    ok &= a < _HIGHEST  # and not NaN
    a[~ok] = 2.0  # any value within range and away from a power of ten
    k = np.log10(a)
    row = np.floor(k, out=k).astype(np.intp)
    row -= _K0
    n, rest = _scaled(a, row, tables)
    ok &= np.abs(rest) < _CERTAIN
    # N <= 10**16 or N >= 10**17 (few): |value| a power of ten, log10 rounded across one, or N rounded up to one
    edge = np.flatnonzero(n.view(_U) - _U(10**16 + 1) >= _U(9 * 10**16 - 1))
    n[edge] = 10**16  # keeps _digits inside its tables; '%.17g' gives the text
    ok[edge] = False
    return n, row, ok


def _cut(x, unit: int):
    """x // unit, leaving x % unit in x (uint64, in place)."""
    q = x // _U(unit)
    x -= q * _U(unit)
    return q


def _digits(n, row, tables: _Tables):
    """The three digit words of N 10**(k - 16), unmasked, and the index of their masks in ``tables.shown``.

    The words hold N' behind six bytes for the prefix, with the prefix and
    the point marked.  N is consumed.
    """
    n = n.view(_U)
    scale = np.take(tables.scale, row)
    ahead = n // scale
    ahead *= scale
    ahead *= _U(9)
    n += ahead  # N': a zero digit after the first p
    top = _cut(n, 10**16)  # N' = top g1 g2 g3 g4, the g four digits each
    g2 = _cut(n, 10**8)
    g1, g3 = _cut(g2, 10**4), _cut(n, 10**4)
    groups = [g.view(np.intp) for g in (top, g1, g2, g3, n)]
    trailing = np.take(tables.zeros, groups[0])
    for group in groups[1:]:
        trailing *= group == 0
        trailing += np.take(tables.zeros, group)
    shown = np.take(tables.layout, row)
    shown += trailing
    words = [np.take(tables.lead, groups[0]), np.take(tables.digits, groups[1]), np.take(tables.digits, groups[3])]
    words[1] |= np.take(tables.digits, groups[2]) << _U(32)
    words[2] |= np.take(tables.digits, groups[4]) << _U(32)
    for word, marks in zip(words, tables.marks):
        word ^= np.take(marks, row)
    return words, shown


def _float_kernel(values: np.ndarray, out: np.ndarray) -> None:
    """Write the ``'%.17g'`` text of each float64 value into the text words of its cell in ``out``."""
    tables = _tables()
    n, row, ok = _decimal(values, tables)
    words, shown = _digits(n, row, tables)
    sign = values.view(_U) >> _U(63)
    sign *= _U(ord("-"))
    words[0] |= sign
    for j, (word, masks) in enumerate(zip(words, tables.shown)):
        np.bitwise_and(word, np.take(masks, shown), out=out[:, j])
    out[:, 3] = np.take(tables.suffix, row)
    fallback = np.flatnonzero(~ok)
    if fallback.size:
        out[fallback, :_TEXT] = _plain(values[fallback])


def _plain(values: np.ndarray) -> np.ndarray:
    """The text words of each float, from one ``'%.17g'`` format call."""
    text = ",".join(["%.17g"] * len(values)) % tuple(values.tolist())
    words = np.zeros((len(values), _TEXT), _U)
    words[:, :3] = np.array(text.encode().split(b","), dtype="S24").view(_U).reshape(-1, 3)  # %.17g prints no comma
    return words


def _float_cells(values: np.ndarray, out: np.ndarray) -> None:
    """Write the text of each float64 value into its cell in ``out``: by the kernel from ``_KERNEL_MIN`` values on.

    The one float formatter of the writers.
    """
    if len(values) < _KERNEL_MIN:
        out[:, :_TEXT] = _plain(values)
    else:
        _float_kernel(values, out)


def _cells(count: int, sep: bytes) -> np.ndarray:
    """``count`` cells: ``_TEXT`` text words to fill, then ``sep`` NUL-padded to whole words."""
    sep = np.frombuffer(sep.ljust(-(-len(sep) // 8) * 8, b"\0"), _U)
    cells = np.empty((count, _TEXT + len(sep)), _U)
    cells[:, _TEXT:] = sep
    return cells


def _text(cells: np.ndarray) -> bytes:
    """The text of a run of cells: their bytes without the NULs."""
    return cells.tobytes().translate(None, b"\0")


def _column_cells(column: np.ndarray, out: np.ndarray) -> None:
    """Write the text of one block of a float64 or integer vector into the text words of ``out``.

    A float64 block formats each of its distinct values (by bit pattern)
    once and gathers the texts back in order through the ``np.unique``
    inverse.
    """
    if column.dtype != np.float64:
        out[:, :3] = column.astype("S24").view(_U).reshape(-1, 3)  # str() of each integer
        out[:, 3] = 0
        return
    distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
    cells = np.empty((len(distinct), _TEXT), _U)
    _float_cells(distinct.view(np.float64), cells)
    np.take(cells, inverse, axis=0, out=out[:, :_TEXT])


def _float_array(array: np.ndarray, level: int) -> Iterator[bytes]:
    """A nonempty 1-D or 2-D float array, straight from the array, a block at a time."""
    pad, pad_in = b" " * (_INDENT * level), b" " * (_INDENT * (level + 1))
    if array.ndim == 1:
        sep = b",\n" + pad_in
        yield b"[\n" + pad_in
        for start in range(0, len(array), _BLOCK):
            block = array[start:start + _BLOCK]
            cells = _cells(len(block), sep)
            _column_cells(block, cells)
            if start + _BLOCK >= len(array):
                cells[-1, _TEXT:] = 0  # no separator after the vector's last value
            yield _text(cells)
        yield b"\n" + pad + b"]"
        return
    pad_row = pad_in + b" " * _INDENT
    row_sep = b"\n" + pad_in + b"],\n" + pad_in + b"[\n" + pad_row
    rows = -(-_BLOCK // array.shape[1])  # whole rows, at least _BLOCK values
    yield b"[\n" + pad_in + b"[\n" + pad_row
    for start in range(0, len(array), rows):
        block = array[start:start + rows]
        cells = _cells(block.size, b",\n" + pad_row)
        _float_cells(block.ravel(), cells)
        cells = cells.reshape(len(block), block.shape[1], -1)
        cells[:, -1, _TEXT:] = 0  # none after the last value of a row
        for i in range(len(block)):  # one row at a time: no copy of the block's text
            if start or i:
                yield row_sep
            yield _text(cells[i])
    yield b"\n" + pad_in + b"]\n" + pad + b"]"


def _chunks(node, level: int) -> Iterator[bytes]:
    """The JSON text of ``node`` as a sequence of byte chunks."""
    if isinstance(node, np.ndarray):
        if node.dtype == np.float64 and node.ndim in (1, 2) and node.size and np.isfinite(node).all():
            yield from _float_array(node, level)
        else:
            yield from _chunks(node.tolist(), level)
        return
    if isinstance(node, np.floating):
        node = float(node)
    elif isinstance(node, np.integer):
        node = int(node)
    if node is None:
        yield b"null"
    elif isinstance(node, bool):
        yield b"true" if node else b"false"
    elif isinstance(node, int):
        yield str(node).encode()
    elif isinstance(node, float):  # a non-finite one as json.dumps writes it: NaN, Infinity, -Infinity
        yield (fmt(node) if math.isfinite(node) else json.dumps(node)).encode()
    elif isinstance(node, str):
        yield json.dumps(node).encode()  # ASCII: json.dumps escapes the rest
    elif isinstance(node, (dict, list, tuple)):
        if not node:
            yield b"{}" if isinstance(node, dict) else b"[]"
            return
        pad, pad_in = b" " * (_INDENT * level), b" " * (_INDENT * (level + 1))
        if isinstance(node, dict):
            node = {str(k): v for k, v in node.items()}
            yield b"{"
            for i, (key, value) in enumerate(node.items()):
                yield (b",\n" if i else b"\n") + pad_in + json.dumps(key).encode() + b": "
                yield from _chunks(value, level + 1)
            yield b"\n" + pad + b"}"
        else:
            yield b"["
            for i, value in enumerate(node):
                yield (b",\n" if i else b"\n") + pad_in
                yield from _chunks(value, level + 1)
            yield b"\n" + pad + b"]"
    else:
        raise TypeError(f"cannot serialize {type(node).__name__}")


def write_json(path, obj) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_chunks(obj, 0))
        fh.write(b"\n")


def write_csv(path, header, columns: Sequence[np.ndarray], preamble=()) -> None:
    """Write a table given as equal-length columns; floats at full precision.

    Each column is a 1-D float64 array, formatted as a float vector (each
    distinct value of a block once), or a 1-D integer array; any other
    column is a TypeError, raised before the file is opened.  Each
    ``preamble`` line is written as a '#' comment ahead of the header.
    """
    for column in columns:
        array = isinstance(column, np.ndarray)
        if not (array and column.ndim == 1 and (column.dtype == np.float64 or column.dtype.kind in "iu")):
            what = f"{column.ndim}-D {column.dtype}" if array else type(column).__name__
            raise TypeError(f"CSV columns must be 1-D float64 or integer arrays, got {what}")
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    seps = np.array([ord(",")] * (len(columns) - 1) + [ord("\n")], _U)
    with open(path, "wb") as fh:
        for line in preamble:
            fh.write(f"# {line}\n".encode())
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n_rows, _BLOCK):
            block = [column[start:start + _BLOCK] for column in columns]
            table = np.empty((len(block[0]), len(block), _TEXT + 1), _U)  # a row of cells per CSV row
            table[:, :, _TEXT] = seps
            for j, column in enumerate(block):
                _column_cells(column, table[:, j])
            fh.write(_text(table))
