import math

import numpy as np

from magnonkit.artifacts import fmt, json_dumps

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
