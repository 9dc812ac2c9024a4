"""Deterministic JSON and CSV artifact writers.

Every float is printed with 17 significant digits so artifacts round-trip
exactly and rerunning a command reproduces byte-identical files.  JSON is
produced as a stream of chunks: :func:`write_json` writes them to the file
as they come and :func:`json_dumps` joins them, so a large float array is
formatted a row (or a block of a long vector) at a time and never exists
as one Python list or one string.  :func:`write_csv` takes its table as
equal-length columns and writes it a block of rows at a time.

A float vector (a 1-D array, or a float column of a CSV table) is formatted
one block at a time, and each distinct value of a block is formatted once:
the block's values are grouped by their float64 bit patterns (so ``-0.0``
and ``0.0``, and NaNs of different payloads, stay apart) and the texts are
gathered back in order.  Grid functions such as n(q), eps(q) and D(q)
depend on q only through the gap, so on a symmetric lattice they repeat
heavily.  The rows of a 2-D array are usually all distinct, and each takes
one plain format call instead.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence

import numpy as np

# Dtypes whose tolist() yields Python floats; other arrays take the generic path.
_FLOAT_DTYPES = (np.dtype(np.float16), np.dtype(np.float32), np.dtype(np.float64))
_BLOCK = 4096  # floats formatted per chunk of a vector, rows per chunk of a CSV table


def fmt(value) -> str:
    """Full-precision float formatting used in all artifacts and summaries."""
    return "%.17g" % float(value)


def _floats(values, sep: str) -> str:
    """A sequence of floats at full precision, joined by ``sep``, in one format call."""
    return sep.join(["%.17g"] * len(values)) % tuple(values)


def _float_texts(values: np.ndarray) -> list[str]:
    """The full-precision text of each value of a float vector, each distinct value formatted once."""
    wide = np.asarray(values, dtype=np.float64)  # exact for float16 and float32
    distinct, inverse = np.unique(wide.view(np.int64), return_inverse=True)
    texts = _floats(distinct.view(np.float64).tolist(), ",").split(",")  # %.17g prints no comma
    return np.array(texts, dtype=object)[inverse].tolist()


def _vector(values: np.ndarray, level: int, indent: int, block_text) -> Iterator[str]:
    """A float vector as a JSON list, ``block_text(block, sep)`` per block of ``_BLOCK`` values."""
    if len(values) == 0:
        yield "[]"
        return
    pad, pad_in = " " * (indent * level), " " * (indent * (level + 1))
    sep = ",\n" + pad_in
    yield "[\n" + pad_in
    for start in range(0, len(values), _BLOCK):
        yield (sep if start else "") + block_text(values[start:start + _BLOCK], sep)
    yield "\n" + pad + "]"


def _distinct_block(block: np.ndarray, sep: str) -> str:
    return sep.join(_float_texts(block))


def _plain_block(block: np.ndarray, sep: str) -> str:
    return _floats(block.tolist(), sep)


def _float_array(array: np.ndarray, level: int, indent: int) -> Iterator[str]:
    """A 1-D or 2-D float array, straight from the array, row by row."""
    if array.ndim == 1:
        yield from _vector(array, level, indent, _distinct_block)
        return
    if len(array) == 0:
        yield "[]"
        return
    pad, pad_in = " " * (indent * level), " " * (indent * (level + 1))
    yield "[\n" + pad_in
    for i, row in enumerate(array):
        if i:
            yield ",\n" + pad_in
        yield from _vector(row, level + 1, indent, _plain_block)
    yield "\n" + pad + "]"


def _chunks(node, level: int, indent: int) -> Iterator[str]:
    """The JSON text of ``node`` as a sequence of chunks."""
    if isinstance(node, np.ndarray):
        if node.dtype in _FLOAT_DTYPES and node.ndim in (1, 2):
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
            yield "[\n" + pad_in + _floats(node, ",\n" + pad_in) + "\n" + pad + "]"
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
        if column.dtype in _FLOAT_DTYPES:
            return _float_texts(column)
        if column.dtype.kind == "b":
            column = column.astype(np.uint8)  # written as 0 and 1, like str(int(v))
        if column.dtype.kind in "iu":
            return list(map(str, column.tolist()))
    return [_cell(cell) for cell in column]


def write_csv(path, header, columns: Sequence, preamble=()) -> None:
    """Write a table given as equal-length columns; floats at full precision.

    A float array column is formatted as a float vector (each distinct value
    of a block once), an int or bool array column as integers, and any other
    column (a list, say) cell by cell: ints and bools as integers, floats at
    full precision, anything else with ``str``.  ``preamble`` lines (the
    effective configuration) are embedded as '#' comments ahead of the header.
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
