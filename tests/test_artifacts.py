import json
import math

import numpy as np
import pytest

from magnonkit import CouplingSet, LatticeSpec, MomentumGrid, evolve, packet_state
from magnonkit.artifacts import fmt, json_dumps, write_json

EDGE_FLOATS = [-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 0.1, 1.0 / 3.0, 2.0]


def element_wise(values, level=0):
    """Emit a float list (or list of float lists) one scalar emission at a time."""
    pad, pad_in = "  " * level, "  " * (level + 1)
    items = [
        element_wise(v, level + 1) if isinstance(v, list) else json_dumps(v).rstrip("\n")
        for v in values
    ]
    return "[\n" + ",\n".join(pad_in + item for item in items) + "\n" + pad + "]"


class TestJsonFloatLists:
    def test_float_list_matches_element_wise_emission(self):
        assert json_dumps(EDGE_FLOATS) == element_wise(EDGE_FLOATS) + "\n"
        assert json_dumps(tuple(EDGE_FLOATS)) == element_wise(EDGE_FLOATS) + "\n"

    def test_scalar_emission_is_full_precision(self):
        for v in EDGE_FLOATS:
            assert json_dumps(v) == fmt(v) + "\n"
        assert json_dumps(-0.0) == "-0\n"
        assert json_dumps(5e-324) == "4.9406564584124654e-324\n"

    def test_float_arrays_match_element_wise_emission(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-300, 300, size=(3, 4))
        matrix[0, :3] = [-0.0, 5e-324, np.nan]
        matrix[1, :2] = [np.inf, 1e308]
        expected = element_wise(matrix.tolist()) + "\n"
        assert json_dumps(matrix) == expected
        assert json_dumps([list(row) for row in matrix]) == expected
        assert json_dumps({"m": matrix}) == '{\n  "m": ' + element_wise(matrix.tolist(), 1) + "\n}\n"

    def test_numpy_scalars_in_lists(self):
        values = np.array(EDGE_FLOATS)
        assert json_dumps(list(values)) == json_dumps(EDGE_FLOATS)
        assert json_dumps([np.int64(3), np.float32(0.5)]) == "[\n  3,\n  0.5\n]\n"

    def test_mixed_lists_take_the_generic_path(self):
        assert json_dumps([True, 1, 2.0, None]) == "[\n  true,\n  1,\n  2,\n  null\n]\n"
        assert json_dumps([1.5, "a", [0.25]]) == '[\n  1.5,\n  "a",\n  [\n    0.25\n  ]\n]\n'
        assert json_dumps(np.array([1, 2])) == "[\n  1,\n  2\n]\n"
        assert json_dumps(np.array([True, False])) == "[\n  true,\n  false\n]\n"
        assert json_dumps([]) == "[]\n"


def reference_dumps(obj, indent=2):
    """The whole-document writer: convert to plain Python, then build one string."""

    def plain(node):
        if isinstance(node, np.ndarray):
            return plain(node.tolist())
        if isinstance(node, np.floating):
            return float(node)
        if isinstance(node, np.integer):
            return int(node)
        if isinstance(node, dict):
            return {str(k): plain(v) for k, v in node.items()}
        if isinstance(node, (list, tuple)):
            return [plain(v) for v in node]
        return node

    def emit(node, level):
        pad, pad_in = " " * (indent * level), " " * (indent * (level + 1))
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
            items = [f"{pad_in}{json.dumps(k)}: {emit(v, level + 1)}" for k, v in node.items()]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}" if items else "{}"
        if isinstance(node, list):
            items = [pad_in + emit(v, level + 1) for v in node]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"
        raise TypeError(f"cannot serialize {type(node).__name__}")

    return emit(plain(obj), 0) + "\n"


def packet_snapshot():
    grid = MomentumGrid.from_lattice(LatticeSpec(2, 4))
    couplings = CouplingSet.nearest_neighbor(2, j=1.0, j3=1.0, h=0.5)
    state = evolve(packet_state(-0.8, grid, couplings, 0.5, center=5, width=1.5, kick_index=3), 2.5)
    gamma = state.gamma
    return {"config": {"a.b": "1"}, "m": state.m, "eps_of_q": state.spectrum.eps,
            "gamma_mode_real": gamma.real, "gamma_mode_imag": gamma.imag,
            "max_number_drift": 0.0, "max_energy_drift": 1e-15}


_RNG = np.random.default_rng(5)
WRITER_CASES = {
    "edge-floats": EDGE_FLOATS,
    "edge-float-array": np.array(EDGE_FLOATS),
    "float32": np.array([-0.0, 1e-45, 3e38, math.nan, math.inf, 0.1, 1.0 / 3.0], dtype=np.float32),
    "float32-matrix": _RNG.normal(size=(3, 5)).astype(np.float32),
    "int": np.arange(-3, 4),
    "int-matrix": np.arange(6).reshape(2, 3),
    "bool": np.array([True, False, True]),
    "empty": np.zeros(0),
    "empty-list": [],
    "0xk": np.zeros((0, 4)),
    "kx0": np.zeros((3, 0)),
    "3-d": _RNG.normal(size=(2, 2, 3)),
    "long-vector": _RNG.normal(size=10_000),
    "nested-dicts": {"a": {"b": {"c": [1, 2.5, None, "x", True], "d": {}}, "e": np.float32(0.1)},
                     7: [np.int64(3), np.array([[0.5, -0.0]])], "f": (1.0, 2.0)},
    "packet-snapshot": packet_snapshot(),
}


class TestStreamingWriter:
    @pytest.mark.parametrize("case", WRITER_CASES, ids=str)
    def test_file_bytes_equal_json_dumps_and_reference(self, case, tmp_path):
        obj = WRITER_CASES[case]
        path = tmp_path / "out.json"
        write_json(path, obj)
        text = json_dumps(obj)
        assert path.read_bytes() == text.encode()
        assert text == reference_dumps(obj)

    def test_unserializable_values_raise(self, tmp_path):
        for bad in (1j, np.array([1j]), object()):
            with pytest.raises(TypeError):
                json_dumps({"x": bad})
