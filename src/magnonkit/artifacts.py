"""Deterministic JSON and CSV artifact writers.

Every float is printed with 17 significant digits so artifacts round-trip
exactly and rerunning a command reproduces byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np


def fmt(value) -> str:
    """Full-precision float formatting used in all artifacts and summaries."""
    return "%.17g" % float(value)


def _to_plain(obj):
    if isinstance(obj, np.ndarray):
        plain = obj.tolist()
        return plain if obj.dtype != object else _to_plain(plain)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _to_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_plain(v) for v in obj]
    return obj


def json_dumps(obj, indent: int = 2) -> str:
    """Serialize with full-precision floats (stdlib json shortens them)."""

    def emit(node, level):
        pad = " " * (indent * level)
        pad_in = " " * (indent * (level + 1))
        if node is None:
            return "null"
        if isinstance(node, bool):
            return "true" if node else "false"
        if isinstance(node, int):
            return str(node)
        if isinstance(node, float):
            return fmt(node)
        if isinstance(node, str):
            return json.dumps(node)
        if isinstance(node, dict):
            if not node:
                return "{}"
            items = ",\n".join(
                f"{pad_in}{json.dumps(str(k))}: {emit(v, level + 1)}" for k, v in node.items()
            )
            return "{\n" + items + "\n" + pad + "}"
        if isinstance(node, (list, tuple)):
            if not node:
                return "[]"
            sep = ",\n" + pad_in
            if all(isinstance(v, float) for v in node):
                items = sep.join(["%.17g"] * len(node)) % tuple(node)
            else:
                items = sep.join(emit(v, level + 1) for v in node)
            return "[\n" + pad_in + items + "\n" + pad + "]"
        raise TypeError(f"cannot serialize {type(node).__name__}")

    return emit(_to_plain(obj), 0) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(json_dumps(obj))


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
