"""Deterministic JSON and CSV artifact writers.

Every float is printed with 17 significant digits so artifacts round-trip
exactly and rerunning a command reproduces byte-identical files.  JSON is
produced as a stream of chunks: :func:`write_json` writes them to the file
as they come and :func:`json_dumps` joins them, so a large float array is
formatted a row (or a block of a long vector) at a time and never exists
as one Python list or one string.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

import numpy as np

# Dtypes whose tolist() yields Python floats; other arrays take the generic path.
_FLOAT_DTYPES = (np.dtype(np.float16), np.dtype(np.float32), np.dtype(np.float64))
_BLOCK = 4096  # floats formatted per chunk of a 1-D array


def fmt(value) -> str:
    """Full-precision float formatting used in all artifacts and summaries."""
    return "%.17g" % float(value)


def _floats(values, sep: str) -> str:
    """A sequence of floats at full precision, joined by ``sep``, in one format call."""
    return sep.join(["%.17g"] * len(values)) % tuple(values)


def _float_array(array: np.ndarray, level: int, indent: int) -> Iterator[str]:
    """A 1-D or 2-D float array, straight from the array, row by row."""
    if len(array) == 0:
        yield "[]"
        return
    pad, pad_in = " " * (indent * level), " " * (indent * (level + 1))
    sep = ",\n" + pad_in
    yield "[\n" + pad_in
    if array.ndim == 1:
        for start in range(0, len(array), _BLOCK):
            yield (sep if start else "") + _floats(array[start:start + _BLOCK].tolist(), sep)
    else:
        for i, row in enumerate(array):
            if i:
                yield sep
            yield from _float_array(row, level + 1, indent)
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


def write_csv(path, header, rows, preamble=()) -> None:
    """Write rows of mixed int/float/str cells; floats at full precision.

    ``preamble`` lines (the effective configuration) are embedded as '#'
    comments ahead of the header.
    """
    with open(path, "w") as fh:
        for line in preamble:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, bool) or isinstance(cell, (int, np.integer)):
                    cells.append(str(int(cell)))
                elif isinstance(cell, (float, np.floating)):
                    cells.append(fmt(cell))
                else:
                    cells.append(str(cell))
            fh.write(",".join(cells) + "\n")
