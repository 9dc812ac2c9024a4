import json
import math
import subprocess
import sys
import tempfile
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnonkit import (
    CouplingSet,
    LatticeSpec,
    MomentumGrid,
    artifacts,
    evolve,
    exchange_gap_grid,
    packet_state,
)
from magnonkit.artifacts import fmt, write_csv, write_json

EDGE_FLOATS = [-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 0.1, 1.0 / 3.0, 2.0]


def json_dumps(obj) -> str:
    """The text write_json gives obj: written to a temporary file and read back."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "out.json"
        write_json(path, obj)
        return path.read_text()


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
            assert json_dumps(v) == (fmt(v) if math.isfinite(v) else json.dumps(v)) + "\n"
        assert json_dumps(-0.0) == "-0\n"
        assert json_dumps(5e-324) == "4.9406564584124654e-324\n"

    def test_non_finite_floats_are_valid_json(self):
        # NaN and the infinities as json.dumps writes them, in scalars, lists and arrays alike
        vector = np.array([1.5, math.nan, math.inf, -math.inf] * 100)  # above _KERNEL_MIN
        text = json_dumps({"x": math.nan, "y": [math.inf, -0.0], "v": vector, "m": vector.reshape(4, 100)})
        doc = json.loads(text)
        assert math.isnan(doc["x"]) and doc["y"] == [math.inf, -0.0]
        np.testing.assert_array_equal(doc["v"], vector)
        np.testing.assert_array_equal(doc["m"], vector.reshape(4, 100))
        assert '"x": NaN,' in text and "-Infinity" in text and "nan" not in text

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
            return fmt(node) if math.isfinite(node) else json.dumps(node)  # NaN, Infinity, -Infinity
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


def packet_snapshot(lattice=LatticeSpec(2, 4), center=5, width=1.5, transpose=False):
    grid = MomentumGrid.from_lattice(lattice)
    couplings = CouplingSet.nearest_neighbor(lattice.dimension, j=1.0, j3=1.0, h=0.5)
    state = evolve(packet_state(-0.8, grid, couplings, 0.5, center=center, width=width, kick_index=3), 2.5)
    gamma = state.gamma.T if transpose else state.gamma  # .real and .imag are strided views
    return {"config": {"a.b": "1"}, "m": state.m, "eps_of_q": state.spectrum,
            "gamma_mode_real": gamma.real, "gamma_mode_imag": gamma.imag,
            "max_number_drift": 0.0, "max_energy_drift": 1e-15}


def gap_grid_16():
    """D(q) on the 16^3 nearest-neighbour torus: 4096 values, 133 distinct."""
    grid = MomentumGrid.from_lattice(LatticeSpec(3, 16))
    return exchange_gap_grid(CouplingSet.nearest_neighbor(3, j=1.0, j3=1.0, h=0.05), grid)


def nan_with_payload(payload, sign=1.0):
    return math.copysign(np.array([0x7FF8000000000000 | payload]).view(np.float64)[0], sign)


# -0.0 and 0.0, and NaNs of different sign or payload, have different bit patterns
SIGNED_ZEROS_AND_NANS = [0.0, -0.0, math.nan, nan_with_payload(5), nan_with_payload(0, -1.0), 0.0,
                         -0.0, math.inf, -0.0, math.nan, nan_with_payload(5), 1.5, 0.0]

_RNG = np.random.default_rng(5)


def with_specials(values):
    """``values`` with about 2% of them replaced by zeros, NaNs and infinities."""
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])[_RNG.integers(0, 5, values.shape)]
    return np.where(_RNG.random(values.shape) < 0.02, specials, values)


ENDS = np.array([0.0, -0.0, np.inf, -np.inf, -np.nan])  # '%.17g' % -nan is 'nan'


def specials_at_row_ends(rows, width):
    """Kernel-sized rows with +-0, +-inf and a NaN with the sign bit set first and last in each."""
    values = _RNG.normal(size=(rows, width)) * 10.0 ** _RNG.integers(-30, 30, (rows, width))
    values[:, 0], values[:, -1] = np.resize(ENDS, rows), np.resize(ENDS[::-1], rows)
    return values


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
    "long-vector": _RNG.normal(size=artifacts._BLOCK + 1000),
    "gap-grid-16^3": gap_grid_16(),
    "repeats-across-blocks": _RNG.choice(_RNG.normal(size=40), size=2 * artifacts._BLOCK + 1000),
    "signed-zeros-and-nans": np.array(SIGNED_ZEROS_AND_NANS * 3),
    "float32-repeats": _RNG.choice(np.array([0.1, -0.0, 1.0 / 3.0, 3e38, 1e-45, 0.0]), size=50).astype(np.float32),
    "float16-repeats": np.array([0.1, 0.1, -0.0, 65504.0, 0.0, 0.1], dtype=np.float16),
    "matrix-with-repeats": _RNG.choice([0.25, -0.0, 1.0 / 3.0], size=(4, 6)),
    "nested-dicts": {"a": {"b": {"c": [1, 2.5, None, "x", True], "d": {}}, "e": np.float32(0.1)},
                     7: [np.int64(3), np.array([[0.5, -0.0]])], "f": (1.0, 2.0)},
    "packet-snapshot": packet_snapshot(),
    "kernel-matrix": with_specials(_RNG.normal(size=(5, 900)) * 10.0 ** _RNG.integers(-30, 30, (5, 900))),
    "kernel-vector": _RNG.normal(size=5000) * 10.0 ** _RNG.integers(-8, 20, 5000),
    "packet-snapshot-64": packet_snapshot(LatticeSpec(1, 64), center=20, width=6.0),
    "packet-snapshot-64-transposed": packet_snapshot(LatticeSpec(1, 64), center=20, width=6.0, transpose=True),
    "kernel-matrix-width-1": with_specials(_RNG.normal(size=(900, 1)) * 10.0 ** _RNG.integers(-30, 30, (900, 1))),
    "kernel-matrix-width-2": with_specials(_RNG.normal(size=(450, 2)) * 10.0 ** _RNG.integers(-30, 30, (450, 2))),
    "row-longer-than-a-block": with_specials(_RNG.normal(size=(2, artifacts._BLOCK + 7))),
    "specials-at-row-ends": specials_at_row_ends(5, 700),
    "specials-at-vector-ends": np.concatenate([ENDS, specials_at_row_ends(1, 5000)[0], ENDS[::-1]]),
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

    def test_vector_blocks_format_each_distinct_value_once(self):
        gaps = gap_grid_16()
        distinct = len(np.unique(gaps.view(np.int64)))
        assert distinct < 400  # 133 here: 129 values, a few of them as sums that round apart
        calls = []
        real = artifacts._float_cells
        with mock.patch.object(artifacts, "_float_cells",
                               lambda values, out: calls.append(len(values)) or real(values, out)):
            text = json_dumps(gaps)
        assert calls == [distinct]
        assert text == reference_dumps(gaps)

    def test_matrix_blocks_of_whole_rows_take_one_format_call_each(self):
        # a 2-D array is formatted a block of whole rows, at least _BLOCK values, per call;
        # the kernel takes the blocks from _KERNEL_MIN values on, one format call the rest
        matrix = np.random.default_rng(3).normal(size=(9, 4000))
        small = np.tile(np.array([0.5, 0.25, 0.5]), (4, 1))
        calls, kernel_calls = [], []
        real, real_kernel = artifacts._float_cells, artifacts._float_kernel
        with mock.patch.object(artifacts, "_float_cells",
                               lambda values, out: calls.append(len(values)) or real(values, out)), \
                mock.patch.object(artifacts, "_float_kernel",
                                  lambda values, out: kernel_calls.append(len(values)) or real_kernel(values, out)):
            texts = json_dumps(matrix), json_dumps(small)
        assert calls == [20000, 16000, 12]  # 5 rows, then the last 4; the small matrix whole
        assert kernel_calls == [20000, 16000]
        assert texts == (reference_dumps(matrix), reference_dumps(small))

    @pytest.mark.parametrize("length", [1, 255, 256, 257, 511, 512, 513, 4095, 4096, 4097, 9000])
    @pytest.mark.parametrize("repeats", [True, False], ids=["repeats", "distinct"])
    @mock.patch.object(artifacts, "_BLOCK", 4096)
    def test_float_list_and_array_write_the_same_bytes(self, length, repeats, tmp_path):
        # a list of floats takes the array path: across _KERNEL_MIN and a block of 4096, with and without repeats
        rng = np.random.default_rng(length)
        values = with_specials(rng.normal(size=length) * 10.0 ** rng.integers(-30, 30, length))
        if repeats:
            values = rng.choice(values[:300], size=length)
        floats = values.tolist()
        expected = reference_dumps({"a": floats, "b": [floats]})
        for obj in ({"a": floats, "b": [floats]}, {"a": values, "b": [values]}):
            write_json(tmp_path / "out.json", obj)
            assert (tmp_path / "out.json").read_text() == json_dumps(obj) == expected

    @settings(max_examples=80)
    @given(
        values=st.lists(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.1, 1.0 / 3.0,
                                         5e-324, 1e308, -2.5]), max_size=40),
        width=st.sampled_from([None, 1, 3, 4]),
        dtype=st.sampled_from([np.float64, np.float32, np.float16]),
        block=st.sampled_from([1, 3, artifacts._BLOCK]),
    )
    def test_json_dumps_equals_reference_on_repeating_arrays(self, values, width, dtype, block):
        # a small value pool makes repeats common; a small block size crosses block edges
        with np.errstate(over="ignore"):  # 1e308 is inf in float32 and float16
            array = np.array(values, dtype=dtype)
        if width is not None:
            array = array[: len(array) // width * width].reshape(-1, width)
        with mock.patch.object(artifacts, "_BLOCK", block):
            assert json_dumps(array) == reference_dumps(array)
            assert json_dumps({"a": array, "b": [array]}) == reference_dumps({"a": array, "b": [array]})


def reference_csv(header, columns, preamble=()):
    """The row-wise CSV writer: Python cells, typed one at a time."""
    def cell(value):
        return str(value) if isinstance(value, int) else fmt(value)

    cells = [column.tolist() for column in columns]
    lines = [f"# {line}" for line in preamble] + [",".join(header)]
    lines += [",".join(cell(value) for value in row) for row in zip(*cells)]
    return "\n".join(lines) + "\n"


CSV_CASES = {
    "float": [gap_grid_16(), np.array(SIGNED_ZEROS_AND_NANS * 316)[:4096]],
    "int": [np.arange(-4, 5), np.arange(9, dtype=np.uint8), np.full(9, 2**62)],
    "long-table": [np.repeat(_RNG.normal(size=3), 4000), np.tile(np.arange(40), 300),
                   _RNG.choice([0.0, 1.0 / 3.0, -1e-300], size=12_000)],
    "distinct-floats": [_RNG.normal(size=9000) * 10.0 ** _RNG.integers(-6, 18, 9000)],
    "empty": [np.zeros(0), np.zeros(0, dtype=int)],
}


class TestCsvWriter:
    @pytest.mark.parametrize("case", CSV_CASES)
    def test_columns_match_the_row_wise_reference(self, case, tmp_path):
        columns = CSV_CASES[case]
        header = [f"c{i}" for i in range(len(columns))]
        path = tmp_path / "out.csv"
        write_csv(path, header, columns, ["a.b = 1", "c = x"])
        assert path.read_text() == reference_csv(header, columns, ["a.b = 1", "c = x"])

    def test_row_blocks_match_the_reference(self, tmp_path):
        columns = [np.tile([0.5, -0.0, 0.1], 5), np.arange(15)]
        for block in (1, 4, 15, 16):
            with mock.patch.object(artifacts, "_BLOCK", block):
                write_csv(tmp_path / "out.csv", ["a", "b"], columns)
            assert (tmp_path / "out.csv").read_text() == reference_csv(["a", "b"], columns)

    def test_unequal_columns_refused(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(tmp_path / "out.csv", ["a", "b"], [np.zeros(3), np.arange(2)])

    @pytest.mark.parametrize("column, what", [
        ([0.5, 1.5], "list"),
        (np.array([0.5, 1.5], dtype=np.float32), "1-D float32"),
        (np.array([True, False]), "1-D bool"),
        (np.arange(4).reshape(2, 2), "2-D int64"),  # its rows would be written as "[0, 1]"
    ], ids=["list", "float32", "bool", "2-d"])
    def test_columns_other_than_float64_or_integer_arrays_refused(self, column, what, tmp_path):
        # float16/32 widening is the JSON writer's; a CSV column is float64 or integer
        with pytest.raises(TypeError, match=f"CSV columns must be 1-D float64 or integer arrays, got {what}$"):
            write_csv(tmp_path / "out.csv", ["a", "b"], [np.zeros(2), column])
        assert not (tmp_path / "out.csv").exists()


def narrow_float_patterns():
    """Every float16 bit pattern, and float32 signalling NaNs of both signs among a few other values."""
    half = np.arange(1 << 16, dtype=np.uint16).view(np.float16)
    single = np.array([0x7F800001, 0x7FA00000, 0x7FBFFFFF, 0xFF800001, 0xFFBFFFFF,
                       0x7FC00000, 0x7F800000, 0x00000001, 0x3DCCCCCD, 0x80000000], dtype=np.uint32)
    return half, single.view(np.float32)


class TestNarrowFloats:
    def test_signalling_nans_write_quietly_and_match_the_references(self):
        half, single = narrow_float_patterns()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for array in (half, single, half.reshape(256, 256), single.reshape(2, 5)):
                assert json_dumps(array) == reference_dumps(array)


def kernel_texts(values):
    """The kernel's text of each float64 value: its cell's text words without the NULs."""
    cells = artifacts._cells(len(values), b"\n")  # %.17g prints no newline
    artifacts._float_kernel(values, cells)
    return artifacts._text(cells).split(b"\n")[:-1]


def percent_texts(values):
    """The referee: one ``'%.17g' %`` per value, independent of the kernel."""
    return [("%.17g" % v).encode() for v in np.asarray(values, dtype=np.float64).tolist()]


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def exact_ties():
    """Doubles whose exact decimal expansion has 18 significant digits, the last a 5."""
    candidates = [1e15 + j + f for j in range(0, 4000, 37) for f in (0.25, 0.75)]
    candidates += [1e14 + j + f / 8 for j in range(0, 4000, 41) for f in (1, 3, 5, 7)]
    candidates += [2.0**-25, 3 * 2.0**-25]  # 5**25 has 18 digits
    digits = [Decimal(v).as_tuple().digits for v in candidates]
    return np.array([v for v, d in zip(candidates, digits) if len(d) == 18 and d[-1] == 5])


class TestFloatKernel:
    @settings(max_examples=40)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern_matches_percent(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert kernel_texts(values) == percent_texts(values)

    def test_deterministic_sweep_matches_percent(self):
        ties = exact_ties()
        assert len(ties) >= 100
        payloads = [0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000000, 0x7FFFFFFFFFFFFFFF]
        values = np.concatenate([
            neighbours(2.0 ** np.arange(-1074, 1024)),
            neighbours([float(f"1e{k}") for k in range(-323, 309)]),
            2.0**53 + np.arange(-64, 65),
            neighbours([5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]),
            [0.0, -0.0, np.inf, -np.inf], np.array(payloads, dtype=np.uint64).view(np.float64),
            ties, np.nextafter(ties, 0.0),
        ])
        values = np.concatenate([values, -values])
        assert kernel_texts(values) == percent_texts(values)
        _, _, certified = artifacts._decimal(ties, artifacts._tables())
        assert not certified.any()  # ties take '%.17g' itself
        powers = 10.0 ** np.arange(17)  # N = 10**16 exactly: not strictly inside (10**16, 10**17)
        _, _, certified = artifacts._decimal(powers, artifacts._tables())
        assert not certified.any()
        assert kernel_texts(powers) == percent_texts(powers)

    def test_widened_float16_and_float32_match_percent(self):
        half = np.arange(2**16, dtype=np.uint16).view(np.float16)
        patterns = np.random.default_rng(6).integers(0, 2**32, 20_000, dtype=np.uint64).astype(np.uint32)
        extremes = np.array([1e-45, 1.1754942e-38, 1.1754944e-38, 3.4028235e38, 0.1], dtype=np.float32)
        single = np.concatenate([patterns.view(np.float32), extremes])
        for values in (half, single):
            with np.errstate(invalid="ignore"):  # widening quiets signalling NaNs
                wide = values.astype(np.float64)
                assert kernel_texts(wide) == percent_texts(wide)
                assert json_dumps(values) == reference_dumps(values)

    def test_scaled_value_is_within_its_error_bound(self):
        # N + rest is v = |x| 10**(16 - k) to within 1e-12, far inside the 1e-6 margin of _CERTAIN
        rng = np.random.default_rng(8)
        values = np.concatenate([rng.integers(1, 2**63 - 2**52, 3000).view(np.float64),
                                 rng.normal(size=1000) * 10.0 ** rng.integers(-30, 30, 1000)])
        values = values[(np.abs(values) >= artifacts._LOWEST) & (np.abs(values) < artifacts._HIGHEST)]
        _, row, certified = artifacts._decimal(values, artifacts._tables())
        n, rest = artifacts._scaled(np.abs(values), row, artifacts._tables())
        for x, digits, k, off in zip(values.tolist(), n.tolist(), (row + artifacts._K0).tolist(), rest.tolist()):
            exact = Fraction(abs(x)) * Fraction(10) ** (16 - k)
            assert abs(digits + Fraction(off) - exact) < Fraction(1, 10**12)
        assert certified.mean() > 0.99

    def test_every_value_on_the_fallback_gives_the_same_bytes(self):
        values = np.random.default_rng(7).normal(size=3000) * 10.0 ** np.arange(-300, 300, 0.2)
        with mock.patch.object(artifacts, "_CERTAIN", 0.0):
            _, _, certified = artifacts._decimal(values, artifacts._tables())
            assert not certified.any()
            assert kernel_texts(values) == percent_texts(values)

    def test_packet_snapshot_is_certified(self):
        grid = MomentumGrid.from_lattice(LatticeSpec(1, 128))
        shells = {(1,): 1.0, (2,): 0.25}  # next-nearest couplings, as in the dynamics benchmark
        couplings = CouplingSet(shells, shells, 0.5)
        state = evolve(packet_state(-0.8, grid, couplings, 0.5, center=40, width=17.5, kick_index=9), 31.7)
        values = np.concatenate([state.gamma.real.ravel(), state.gamma.imag.ravel()])
        values = values[np.isfinite(values) & (values != 0.0)]
        _, _, certified = artifacts._decimal(values, artifacts._tables())
        assert certified.mean() >= 0.99
        assert kernel_texts(values) == percent_texts(values)

    def test_power_table_is_correctly_rounded(self):
        # 10**(16 - k) = h + l: h is it correctly rounded, and h + l within 2**-106 h of it
        h, h_hi, h_lo, l = artifacts._tables().powers
        assert len(h) == artifacts._K1 - artifacts._K0 and np.array_equal(h_hi + h_lo, h)
        for k, high, low in zip(range(artifacts._K0, artifacts._K1), h.tolist(), l.tolist()):
            exact = Fraction(10) ** (16 - k)
            assert abs(exact - Fraction(high)) <= Fraction(math.ulp(high)) / 2
            assert abs(exact - Fraction(high) - Fraction(low)) <= Fraction(high) / 2**106

    def test_tables_are_built_on_first_use_and_load_no_module(self):
        src = str(Path(artifacts.__file__).resolve().parents[1])
        probe = ("import os, sys; sys.path.insert(0, sys.argv[1]); import magnonkit.cli; import numpy as np; "
                 "from magnonkit import artifacts; loaded = set(sys.modules); "
                 "built = artifacts._tables.cache_info().currsize; "
                 "artifacts.write_json(os.devnull, np.linspace(0.1, 1.0, 5000)); "
                 "print(built, artifacts._tables.cache_info().currsize, sorted(set(sys.modules) - loaded), "
                 "[m for m in ('fractions', 'decimal') if m in sys.modules])")
        result = subprocess.run([sys.executable, "-c", probe, src],
                                capture_output=True, text=True, check=True)
        assert result.stdout == "0 1 [] []\n"
