import dataclasses
import importlib.util
import itertools
import json
import math
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magnonkit
from magnonkit import cli, oracle
from magnonkit.artifacts import fmt
from magnonkit.cli import main
from magnonkit.dynamics import evolve, number_density, packet_state, total_energy, total_number
from magnonkit.lattice import CouplingSet, LatticeSpec, MomentumGrid
from magnonkit.spinwave import ThermalParams, occupation
from test_artifacts import reference_csv, reference_dumps

ISO_CSV = "dz1,J,J3\n1,1.0,1.0\n"
ANTIFERRO_CSV = "dz1,J,J3\n1,1.0,0.0\n"
LONGITUDINAL_CSV = "dz1,J,J3\n1,0.0,1.0\n"
# gap(0) of this set rounds to 0.6000000000000001, not to 0.6.
ANISO_3D_CSV = (
    "dz1,dz2,dz3,J,J3\n1,0,0,0.3,0.5\n0,1,0,0.3,0.5\n0,0,1,0.3,0.5\n"
    "1,1,0,0.1,0.0\n1,0,1,0.1,0.0\n0,1,1,0.1,0.0\n"
)

BASE_CONF = """\
lattice.dimension = 1
lattice.size = 8
couplings.path = {csv}
field.h = 0.5
thermal.beta = 2.0
"""


LARGE_SHELLS = ((1, 1e4), (2, 1e4 / 3), (3, 1e4 / 7))
LARGE_CONF = """\
lattice.dimension = 1
lattice.size = 64
couplings.path = {csv}
field.h = 1
"""


README = Path(__file__).resolve().parents[1] / "README.md"


def no_gap_grid(*args, **kwargs):
    """Stands in for the regime check in a run that must be refused before it."""
    raise AssertionError("the gap grid was built")


@pytest.fixture
def workspace(tmp_path):
    def make(conf_body, csv_body=ISO_CSV, name="run.conf"):
        csv_path = tmp_path / "couplings.csv"
        csv_path.write_text(csv_body)
        conf_path = tmp_path / name
        conf_path.write_text(conf_body.format(csv=csv_path))
        return conf_path

    return tmp_path, make


class TestValidateCommand:
    def test_isotropic_instance_passes(self, workspace, capsys):
        tmp_path, make = workspace
        conf = make(BASE_CONF)
        rc = main(["validate", "--config", str(conf), "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "validate.json").read_text())
        assert doc["gap_ok"] and doc["field_ok_relaxed"] and not doc["field_ok_strict"]
        assert doc["config"]["field.h"] == "0.5"

    def test_antiferro_like_instance_fails_with_minimizing_q(self, workspace):
        tmp_path, make = workspace
        conf = make(BASE_CONF.replace("field.h = 0.5", "field.h = 10.0"), ANTIFERRO_CSV)
        rc = main(["validate", "--config", str(conf), "--out", str(tmp_path)])
        assert rc == 1
        doc = json.loads((tmp_path / "validate.json").read_text())
        assert not doc["gap_ok"]
        assert doc["minimizing_q"] == [0.0]

    def test_strict_instance(self, workspace):
        tmp_path, make = workspace
        conf = make(BASE_CONF.replace("field.h = 0.5", "field.h = 2.5"), LONGITUDINAL_CSV)
        rc = main(["validate", "--config", str(conf), "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "validate.json").read_text())
        assert doc["field_ok_strict"]

    @pytest.mark.parametrize("dimension,size", [(3, 4000), (1, 2**24 + 1)])
    def test_oversized_lattice_refused_before_allocating(self, workspace, capsys, dimension, size):
        # 3D L = 4000 used to try a 1.4 TiB site array and exit 3 on the MemoryError
        tmp_path, make = workspace
        conf = make(BASE_CONF.replace("lattice.dimension = 1", f"lattice.dimension = {dimension}")
                    .replace("lattice.size = 8", f"lattice.size = {size}"),
                    "dz1,dz2,dz3,J,J3\n1,0,0,1.0,1.0\n" if dimension == 3 else ISO_CSV)
        tracemalloc.start()
        try:
            rc = main(["validate", "--config", str(conf), "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: lattice of {size}**{dimension} sites exceeds the limit of 16777216 sites "
            "(MAX_SITES)\n"
        )
        assert peak < 2**20
        assert not (tmp_path / "validate.json").exists()

    def test_missing_coupling_file_exits_2(self, workspace):
        tmp_path, make = workspace
        conf = tmp_path / "bad.conf"
        conf.write_text(BASE_CONF.format(csv=tmp_path / "nope.csv"))
        assert main(["validate", "--config", str(conf), "--out", str(tmp_path)]) == 2

    def test_coupling_mirror_conflict_exits_2(self, workspace, capsys):
        tmp_path, make = workspace
        conf = make(BASE_CONF, "dz1,J,J3\n1,1.0,1.0\n-1,2.0,2.0\n")
        assert main(["validate", "--config", str(conf), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {tmp_path / 'couplings.csv'}: exchange: displacement (1,) "
                       "conflicts with its mirror (-1,)\n")

    def test_negative_field_exits_2_naming_the_key(self, workspace, capsys):
        tmp_path, make = workspace
        conf = make(BASE_CONF.replace("field.h = 0.5", "field.h = -1"))
        assert main(["validate", "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: config key 'field.h': must be >= 0, got -1.0\n"

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize("value, shown, at", [("inf", "inf", "(1,)"), ("nan", "nan", "(1,)"),
                                                  ("1e308", "1e+308", "(-1,)")])
    def test_non_finite_coupling_exits_2(self, workspace, capsys, command, value, shown, at):
        # inf used to validate with gap_ok true and minimum_gap -inf; 1e308 and its filled
        # mirror overflow the sum |J| + |J3| that bounds every term of the gap
        tmp_path, make = workspace
        conf = make(BASE_CONF, f"dz1,J,J3\n1,{value},1.0\n")
        assert main([command, "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (f"error: {tmp_path / 'couplings.csv'}: exchange: coupling "
                                           f"{shown} at {at} makes sum |J| + |J3| non-finite\n")
        assert list(tmp_path.glob("*.json")) == []

    def test_gap_does_not_depend_on_the_listing_order(self, workspace):
        # J3(0) = 2 (0.1 + 0.2 + 0.7) summed in listing order is 1.9999999999999998 or 2.0
        tmp_path, make = workspace
        rows = {1: "0.1,0.1", 2: "0.05,0.2", 3: "0.02,0.7"}
        listings = ([1, 2, 3], [3, 1, 2], [2, 3, 1], [-3, -2, -1, 1, 2, 3], [1, -1, 2, -2, 3, -3])
        artifacts = set()
        for order in listings:
            csv = "dz1,J,J3\n" + "".join(f"{dz},{rows[abs(dz)]}\n" for dz in order)
            conf = make(BASE_CONF.replace("field.h = 0.5", "field.h = 2.5"), csv)
            assert main(["validate", "--config", str(conf), "--out", str(tmp_path)]) == 0
            artifacts.add((tmp_path / "validate.json").read_bytes())
        assert len(artifacts) == 1

    def test_unknown_key_exits_2(self, workspace):
        tmp_path, make = workspace
        conf = make(BASE_CONF + "solver.fancy = yes\n")
        assert main(["validate", "--config", str(conf), "--out", str(tmp_path)]) == 2

    def test_large_couplings_validate_at_default_tolerance(self, workspace, capsys):
        # GAP_TOL is relative to sum|J| + sum|J3|, so the rounding residue of gap(0)
        # (about -3.6e-12 here) is no "gap negative" verdict
        tmp_path, make = workspace
        csv = "dz1,J,J3\n" + "".join(f"{dz},{v!r},{v!r}\n" for dz, v in LARGE_SHELLS)
        rc = main(["validate", "--config", str(make(LARGE_CONF, csv)), "--out", str(tmp_path)])
        assert rc == 0
        assert "gap negative" not in capsys.readouterr().out
        doc = json.loads((tmp_path / "validate.json").read_text())
        assert doc["gap_ok"] and "validate.tol" not in doc["config"]

    @pytest.mark.parametrize("csv, code", [
        ("dz1,J,J3\n1,1.0,0.9999\n", 1),  # minimum gap -2e-4, beyond GAP_TOL
        ("dz1,J,J3\n" + "".join(f"{dz},{v!r},{v!r}\n" for dz, v in LARGE_SHELLS), 0),  # zero up to rounding
        ("dz1,J,J3\n1,0.5,0.9\n", 0),  # gap 0.8 at q = 0 and above
    ], ids=["negative", "large-shells", "positive"])
    def test_validate_and_solve_give_one_regime_verdict(self, workspace, capsys, csv, code):
        tmp_path, make = workspace
        conf = make(LARGE_CONF + "thermal.beta = 2.0\n", csv)
        for command in ("validate", "solve"):
            assert main([command, "--config", str(conf), "--out", str(tmp_path / command)]) == code
        captured = capsys.readouterr()
        assert ("gap negative" in captured.out) == ("gap negative" in captured.err) == bool(code)
        assert captured.err.startswith("regime failure: ") == bool(code)

    @pytest.mark.parametrize("csv, h, failures", [
        ("dz1,J,J3\n1,1.0,0.9999\n", "1", "gap negative: couplings are not ferromagnetic"),
        (LONGITUDINAL_CSV, "1.5", "field h=1.5 does not exceed max(gap(0), 0)=2"),
        ("dz1,J,J3\n1,1.0,0.9999\n", "0",
         "gap negative: couplings are not ferromagnetic; field h=0 does not exceed max(gap(0), 0)=0"),
    ], ids=["gap", "field", "both"])
    def test_regime_failure_names_only_the_failed_conditions(self, workspace, capsys, csv, h, failures):
        # the minimum-gap line and the strict-field note stay in validate's messages only
        tmp_path, make = workspace
        conf = make(BASE_CONF.replace("field.h = 0.5", f"field.h = {h}"), csv)
        assert main(["solve", "--config", str(conf), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"regime failure: {failures}\n"

    def test_large_couplings_negative_gap_is_a_verdict(self, workspace, capsys):
        # the same J with longitudinal coupling on the first shell only: a clean exit-1 verdict
        tmp_path, make = workspace
        csv = "dz1,J,J3\n" + "".join(
            f"{dz},{v!r},{v if dz == 1 else 0.0!r}\n" for dz, v in LARGE_SHELLS
        )
        rc = main(["validate", "--config", str(make(LARGE_CONF, csv)), "--out", str(tmp_path)])
        assert rc == 1
        assert "gap negative" in capsys.readouterr().out
        assert not json.loads((tmp_path / "validate.json").read_text())["gap_ok"]

    def test_config_shared_with_solve(self, workspace):
        # keys of another command are read by that command only, not refused
        tmp_path, make = workspace
        conf = make(BASE_CONF + "solve.tol = 1e-12\n")
        assert main(["validate", "--config", str(conf), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "validate.json").read_text())
        assert list(doc["config"]) == sorted(cli.COMMANDS["validate"].keys)

    def test_csv_format(self, workspace):
        tmp_path, make = workspace
        conf = make(BASE_CONF + "output.format = csv\n")
        rc = main(["validate", "--config", str(conf), "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "validate.csv").read_text()
        assert text.splitlines()[0].startswith("# ")
        assert "q1,D" in text


ORACLE_CONF = """\
lattice.dimension = 1
lattice.size = 2
couplings.path = {csv}
field.h = 2.5
thermal.beta = 1.0
oracle.q_index = 1
oracle.copies = 1,3
"""

DYNAMICS_CONF = """\
lattice.dimension = 1
lattice.size = 8
couplings.path = {csv}
field.h = 0.5
thermal.beta = 2.0
dynamics.times = 0.0,0.5,1.0
"""

PACKET_CONF = (
    DYNAMICS_CONF
    + "dynamics.initial = packet\ndynamics.m = -0.8\ndynamics.packet_center = 3\n"
    + "dynamics.packet_kick = 2\ndynamics.packet_width = 1.5\n"
)

ARTIFACTS = {"validate": "validate", "solve": "solution", "oracle": "convergence", "sectors": "sectors"}
COMMAND_CONF = {"validate": BASE_CONF, "solve": BASE_CONF, "oracle": ORACLE_CONF,
                "sectors": "sectors.copies = 5\n"}
# id -> (command, config body, artifact names)
EMIT_CASES = {
    f"{command}-{form}": (command, COMMAND_CONF[command] + f"output.format = {form}\n",
                          [f"{ARTIFACTS[command]}.{form}"])
    for command in ARTIFACTS
    for form in ("json", "csv")
}
EMIT_CASES["dynamics"] = ("dynamics", DYNAMICS_CONF, ["snapshot.json", "trajectory.csv"])
EMIT_CASES["dynamics-packet"] = ("dynamics", PACKET_CONF, ["snapshot.json", "trajectory.csv"])


class TestSolveCommand:
    def test_artifact_contents(self, workspace):
        tmp_path, make = workspace
        conf = make(BASE_CONF)
        rc = main(["solve", "--config", str(conf), "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "solution.json").read_text())
        assert doc["m_star"] == pytest.approx(-0.9555863598, abs=1e-9)
        assert doc["residual"] <= 1e-12
        assert len(doc["n_of_q"]) == 8 and len(doc["eps_of_q"]) == 8
        assert doc["roots"] == [doc["m_star"]]
        # 17 significant digits survive the JSON round trip
        assert abs(doc["bound"] - (-0.68696471450066876)) == 0.0

    def test_coupling_bound_from_the_validated_gap_at_zero(self, workspace):
        tmp_path, make = workspace
        conf = make(BASE_CONF.replace("lattice.dimension = 1", "lattice.dimension = 3")
                    .replace("lattice.size = 8", "lattice.size = 4")
                    .replace("field.h = 0.5", "field.h = 3.0")
                    .replace("thermal.beta = 2.0", "thermal.beta = 1.0"), ANISO_3D_CSV)
        for command in ("validate", "solve"):
            assert main([command, "--config", str(conf), "--out", str(tmp_path)]) == 0
        gap0 = json.loads((tmp_path / "validate.json").read_text())["gap_at_zero"]
        doc = json.loads((tmp_path / "solution.json").read_text())
        diagnostics = doc["diagnostics"]
        # beta = 1, h = 3: both bounds are the closed form -1 + 2/(e^{2 beta x} - 1)
        assert gap0 > 0.0
        assert diagnostics["bound_from_coupling"] == -1.0 + 2.0 / math.expm1(2.0 * gap0)
        assert doc["bound"] == -1.0 + 2.0 / math.expm1(6.0)
        assert "bound_tightest" not in diagnostics  # the smaller of the two, each stated above

    @pytest.mark.parametrize("size", [8, 9, 64])
    @pytest.mark.parametrize("csv_body", [ISO_CSV, "dz1,J,J3\n1,1.0,1.0\n2,0.2,0.2\n"], ids=["nn", "nnn"])
    def test_distinct_gaps_count_the_mirror_pairs_of_a_chain(self, size, csv_body, workspace):
        # q and -q give bit-equal gaps, and the gap rises strictly from q = 0 to pi
        tmp_path, make = workspace
        conf = make(BASE_CONF.replace("lattice.size = 8", f"lattice.size = {size}"), csv_body)
        assert main(["solve", "--config", str(conf), "--out", str(tmp_path)]) == 0
        diagnostics = json.loads((tmp_path / "solution.json").read_text())["diagnostics"]
        assert diagnostics["distinct_gaps"] == size // 2 + 1

    def test_removed_scan_points_key_exits_2(self, workspace, capsys):
        # the solver encloses its roots and has no scan to size; the old key is unknown now
        tmp_path, make = workspace
        conf = make(BASE_CONF + "solve.scan_points = 4096\n")
        assert main(["solve", "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert "unknown key 'solve.scan_points'" in capsys.readouterr().err

    def test_rejected_regime_exits_1(self, workspace):
        tmp_path, make = workspace
        conf = make(BASE_CONF.replace("field.h = 0.5", "field.h = 10.0"), ANTIFERRO_CSV)
        assert main(["solve", "--config", str(conf), "--out", str(tmp_path)]) == 1

    def test_tiny_beta_emits_no_warning(self, workspace, capsys):
        # the scan's defect values reach 1e296 here; their products overflowed when brackets
        # were found by the sign of fa * fb
        tmp_path, make = workspace
        conf = make(BASE_CONF.replace("thermal.beta = 2.0", "thermal.beta = 1e-300"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", str(conf), "--out", str(tmp_path)]) == 0
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("command, beta", [
        *(("solve", beta) for beta in ("1e308", "9e307", "5e307", "1e-310", "5e-324")),
        ("dynamics", "1e308"),
        ("dynamics", "5e-324"),
    ])
    def test_beta_past_the_float_range_is_refused(self, capped_cli, workspace, command, beta):
        # NaN enclosures exclude nothing: before the refusal these runs split every cell on every
        # pass until memory ran out, so they run in a capped child
        limit = "is too large: the Bose argument bound" if float(beta) > 1.0 else "is below the smallest normal float"
        tmp_path, make = workspace
        body = {"solve": BASE_CONF, "dynamics": DYNAMICS_CONF}[command]
        conf = make(body.replace("thermal.beta = 2.0", f"thermal.beta = {beta}"))
        result = capped_cli(command, "--config", conf, "--out", tmp_path, cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith(f"error: beta={float(beta)!r} ") and limit in result.stderr
        assert not any(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("case", EMIT_CASES)
    def test_idempotent_artifacts(self, case, workspace):
        # every command embeds its sorted effective config and reproduces its artifacts
        command, body, names = EMIT_CASES[case]
        tmp_path, make = workspace
        conf = make(body)
        effective = sorted(cli.RunConfig(cli.read_config(conf), command).effective.items())
        runs = []
        for k in range(2):
            out = tmp_path / f"out{k}"
            assert main([command, "--config", str(conf), "--out", str(out)]) == 0
            assert sorted(p.name for p in out.iterdir()) == sorted(names)
            runs.append({name: (out / name).read_bytes() for name in names})
        assert runs[0] == runs[1]
        for name, data in runs[0].items():
            if name.endswith(".json"):
                doc = json.loads(data)
                assert next(iter(doc)) == "config"
                assert list(doc["config"].items()) == effective
            else:
                preamble = data.decode().splitlines()[: len(effective) + 1]
                assert preamble == [f"# {key} = {value}" for key, value in effective] + ["# results"]

    def test_csv_artifact(self, workspace):
        tmp_path, make = workspace
        conf = make(BASE_CONF + "output.format = csv\n")
        rc = main(["solve", "--config", str(conf), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "solution.csv").read_text().splitlines()
        header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_at] == "q1,D,n,eps"
        assert len(lines) == header_at + 1 + 8


class TestOracleCommand:
    def test_small_ladder_passes(self, workspace):
        tmp_path, make = workspace
        conf = make(ORACLE_CONF)
        rc = main(["oracle", "--config", str(conf), "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "convergence.json").read_text())
        assert [row["n"] for row in doc["rows"]] == [1, 3]
        assert doc["rows"][1]["discrepancy"] < doc["rows"][0]["discrepancy"]

    def test_artifact_identical_across_reruns(self, workspace):
        tmp_path, make = workspace
        chain = (ORACLE_CONF.replace("oracle.copies = 1,3", "oracle.copies = 1,3,5"), ISO_CSV)
        square = (  # 2x2: orbits of the four translations
            ORACLE_CONF.replace("lattice.dimension = 1", "lattice.dimension = 2"),
            "dz1,dz2,J,J3\n1,0,1.0,1.0\n0,1,1.0,1.0\n",
        )
        for k, (body, csv_body) in enumerate((chain, square)):
            conf = make(body, csv_body, name=f"run{k}.conf")
            artifacts = []
            for run in range(2):
                out = tmp_path / f"{conf.stem}-{run}"
                assert main(["oracle", "--config", str(conf), "--out", str(out)]) == 0
                artifacts.append((out / "convergence.json").read_bytes())
            assert artifacts[0] == artifacts[1]

    def test_single_entry_ladder_trivially_passes(self, workspace):
        tmp_path, make = workspace
        conf = make(ORACLE_CONF.replace("oracle.copies = 1,3", "oracle.copies = 3"))
        assert main(["oracle", "--config", str(conf), "--out", str(tmp_path)]) == 0

    def test_infeasible_copies_exit_2(self, workspace):
        tmp_path, make = workspace
        conf = make(ORACLE_CONF.replace("lattice.size = 2", "lattice.size = 8"))
        assert main(["oracle", "--config", str(conf), "--out", str(tmp_path)]) == 2

    def test_prediction_is_the_solver_occupation(self, workspace):
        # two shells on a 5-site chain: p_n is the grid occupation at q, bit for bit
        tmp_path, make = workspace
        conf = make(ORACLE_CONF.replace("lattice.size = 2", "lattice.size = 5")
                    .replace("thermal.beta = 1.0", "thermal.beta = 0.8")
                    .replace("oracle.q_index = 1", "oracle.q_index = 3"),
                    "dz1,J,J3\n1,1.0,1.0\n2,0.25,0.25\n")
        assert main(["oracle", "--config", str(conf), "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "convergence.json").read_text())["rows"]
        couplings = CouplingSet({1: 1.0, 2: 0.25}, {1: 1.0, 2: 0.25}, 2.5)
        grid = MomentumGrid.from_lattice(LatticeSpec(1, 5))
        for row in rows:
            assert row["p_n"] == occupation(row["m_n"], ThermalParams(0.8, 2.5), couplings, grid)[3]

    @pytest.mark.parametrize("size, copies, message", [
        (4, "1,3,5,7,9,11", "largest sector block dimension 20736 at copies=11 exceeds "
                            "cap 10000 (MAX_SECTOR_BLOCK_DIM)"),
        (2, ",".join(map(str, range(1, 35, 2))), "copy count 33 exceeds supported maximum 31 (MAX_COPIES)"),
        (2, "", "config key 'oracle.copies': must list at least one copy count"),
        (2, "3,1", "config key 'oracle.copies': must increase strictly, got 3,1"),
        (2, "1,1", "config key 'oracle.copies': must increase strictly, got 1,1"),
    ])
    def test_oversized_rung_refused_before_any_build(self, workspace, capsys, monkeypatch, size, copies, message):
        # the ladder is the configuration's to refuse, before the regime check builds the gap grid
        def no_build(*args, **kwargs):
            raise AssertionError("a build started")

        monkeypatch.setattr(oracle, "_sector_blocks", no_build)
        monkeypatch.setattr(cli, "validate_ferromagnetic", no_gap_grid)
        tmp_path, make = workspace
        conf = make(ORACLE_CONF.replace("lattice.size = 2", f"lattice.size = {size}")
                    .replace("oracle.copies = 1,3", f"oracle.copies = {copies}"))
        assert main(["oracle", "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "convergence.json").exists()

    def test_removed_monotone_tol_key_exits_2(self, workspace, capsys):
        # the rounding floor alone decides what counts as noise, so no tolerance key exists
        tmp_path, make = workspace
        conf = make(ORACLE_CONF + "oracle.monotone_tol = 0\n")
        assert main(["oracle", "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert "unknown key 'oracle.monotone_tol'" in capsys.readouterr().err
        assert not (tmp_path / "convergence.json").exists()

    def test_bad_q_index_exit_2(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr(cli, "validate_ferromagnetic", no_gap_grid)
        tmp_path, make = workspace
        conf = make(ORACLE_CONF.replace("oracle.q_index = 1", "oracle.q_index = 7"))
        assert main(["oracle", "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: oracle.q_index 7 outside grid of 2 points\n"

    COLD_ORACLE_CONF = (  # nearly saturated: t_n ~ 1e-50, and q = 2 pi/3 cancels in its phase sum
        ORACLE_CONF.replace("lattice.size = 2", "lattice.size = 3").replace("field.h = 2.5", "field.h = 2.8")
        .replace("thermal.beta = 1.0", "thermal.beta = 6.6").replace("oracle.copies = 1,3", "oracle.copies = 1,3,5")
    )

    COLD_Q0_ORACLE_CONF = (  # t_n ~ 2e-23 at q = 0, where p_n carries m_n's rounding magnified
        ORACLE_CONF.replace("field.h = 2.5", "field.h = 2.2").replace("thermal.beta = 1.0", "thermal.beta = 8.5")
        .replace("oracle.q_index = 1", "oracle.q_index = 0").replace("oracle.copies = 1,3", "oracle.copies = 1,3,5")
    )

    WEIGHTS_Q0_ORACLE_CONF = (  # t_n ~ 1e-15 at q = 0, where its Gibbs weights' rounding dominates
        ORACLE_CONF.replace("field.h = 2.5", "field.h = 2.7").replace("thermal.beta = 1.0", "thermal.beta = 6.2")
        .replace("oracle.q_index = 1", "oracle.q_index = 0").replace("oracle.copies = 1,3", "oracle.copies = 1,3,5")
    )

    @pytest.mark.parametrize("body, couplings, code", [
        (COLD_ORACLE_CONF, "dz1,J,J3\n1,1.3,1.5\n", 0),  # every rise lies below t_n's rounding
        (COLD_Q0_ORACLE_CONF, "dz1,J,J3\n1,0.38,0.82\n", 0),  # a rise below p_n's rounding
        (WEIGHTS_Q0_ORACLE_CONF, "dz1,J,J3\n1,0.9,0.94\n", 0),  # a rise below the weights' rounding
        (ORACLE_CONF, ISO_CSV, 1),  # the rungs of 1,3 handed to the verdict reversed: a real rise
    ], ids=["cold", "cold-q0", "weights-q0", "reversed-ladder"])
    def test_rounding_floor_decides_only_noise(self, workspace, monkeypatch, body, couplings, code):
        if code == 1:  # a ladder must increase, and an increasing one in the regime shows no real rise
            study = cli.convergence_study
            monkeypatch.setattr(cli, "convergence_study", lambda *args, **kwargs: study(*args, **kwargs)[::-1])
        tmp_path, make = workspace
        conf = make(body, couplings)
        assert main(["oracle", "--config", str(conf), "--out", str(tmp_path)]) == code
        rows = json.loads((tmp_path / "convergence.json").read_text())["rows"]
        rises = [b for a, b in zip(rows, rows[1:]) if not b["discrepancy"] < a["discrepancy"]]
        assert rises  # the plain decrease test alone would fail
        # the verdict fails exactly when a rise lies above its row's floor
        failing = [b for b in rises if b["discrepancy"] > b["rounding_floor"]]
        assert bool(failing) == (code == 1)
        assert all(row["rounding_floor"] > 0.0 for row in rows)

    @pytest.mark.parametrize("beta", ["1e307", "5e307", "1e308"])
    def test_largest_betas_give_finite_floors_and_no_warning(self, workspace, beta):
        # 2 beta max|E| overflows here, and from 5e307 on so do beta times a gap and the Bose
        # argument of p_n; the weights' floor term is 0 at t_n = 0, not inf * 0
        tmp_path, make = workspace
        conf = make(ORACLE_CONF.replace("lattice.size = 2", "lattice.size = 3").replace("field.h = 2.5", "field.h = 2.3")
                    .replace("thermal.beta = 1.0", f"thermal.beta = {beta}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["oracle", "--config", str(conf), "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "convergence.json").read_text())["rows"]
        assert [row["n"] for row in rows] == [1, 3]
        assert all(not math.isnan(value) for row in rows for value in row.values())
        assert all(math.isfinite(row["rounding_floor"]) for row in rows)

    def test_rows_carry_ensemble_diagnostics(self, workspace):
        tmp_path, make = workspace
        conf = make(ORACLE_CONF.replace("oracle.copies = 1,3", "oracle.copies = 1,3,5"))
        assert main(["oracle", "--config", str(conf), "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "convergence.json").read_text())["rows"]
        assert list(rows[0]) == ["n", "m_n", "t_n", "p_n", "discrepancy", "rounding_floor", "logZ",
                                 "ground_energy", "representatives", "max_sector_dim"]
        couplings = CouplingSet.nearest_neighbor(1, j=1.0, j3=1.0, h=2.5)
        for row in rows:
            ensemble = oracle.build_gibbs(oracle.SpinConfig(row["n"], LatticeSpec(1, 2), couplings), 1.0)
            assert (row["logZ"], row["ground_energy"]) == (ensemble.logZ, ensemble.ground_energy)
        # 2-site chain: 1, 3 and 6 orbits of 1, 4 and 9 assignments; the largest
        # magnetization sector of (n+1)^2 states is n+1
        assert [(r["representatives"], r["max_sector_dim"]) for r in rows] == [(1, 2), (3, 4), (6, 6)]

    def test_csv_table(self, workspace):
        tmp_path, make = workspace
        conf = make(ORACLE_CONF + "output.format = csv\n")
        rc = main(["oracle", "--config", str(conf), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_at] == ("n,m_n,t_n,p_n,discrepancy,rounding_floor,logZ,ground_energy,"
                                    "representatives,max_sector_dim")
        assert len(lines) == header_at + 3


    @pytest.mark.parametrize("form", ["json", "csv"])
    def test_columns_are_the_convergence_row_fields(self, form, workspace):
        tmp_path, make = workspace
        conf = make(ORACLE_CONF + f"output.format = {form}\n")
        assert main(["oracle", "--config", str(conf), "--out", str(tmp_path)]) == 0
        names = [field.name for field in dataclasses.fields(oracle.ConvergenceRow)]
        if form == "json":
            rows = json.loads((tmp_path / "convergence.json").read_text())["rows"]
            assert [list(row) for row in rows] == [names, names]
        else:
            lines = (tmp_path / "convergence.csv").read_text().splitlines()
            table = [line.split(",") for line in lines if not line.startswith("#")]
            assert table[0] == names
            assert [len(row) for row in table[1:]] == [len(names)] * 2

    def test_positive_magnetization_is_a_regime_failure(self, workspace, capsys):
        # on one site J(+-1) folds onto the site itself, and the exact state orders along +S3
        tmp_path, make = workspace
        conf = make(ORACLE_CONF.replace("lattice.size = 2", "lattice.size = 1")
                    .replace("field.h = 2.5", "field.h = 0.5").replace("oracle.q_index = 1", "oracle.q_index = 0"))
        assert main(["oracle", "--config", str(conf), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("regime failure: oracle magnetization 0.90514825364486")
        assert "> 0 at n=1" in err
        assert not (tmp_path / "convergence.json").exists()


class TestDynamicsCommand:
    def test_equilibrium_run(self, workspace):
        tmp_path, make = workspace
        conf = make(DYNAMICS_CONF)
        rc = main(["dynamics", "--config", str(conf), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        data = [line for line in lines if not line.startswith("#")]
        assert data[0] == "t,x1,density"
        assert len(data) == 1 + 3 * 8
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert len(snapshot["gamma_mode_real"]) == 8

    def test_empty_times_writes_headers_only(self, workspace):
        tmp_path, make = workspace
        conf = make(DYNAMICS_CONF.replace("dynamics.times = 0.0,0.5,1.0", "dynamics.times ="))
        rc = main(["dynamics", "--config", str(conf), "--out", str(tmp_path)])
        assert rc == 0
        data = [
            line
            for line in (tmp_path / "trajectory.csv").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert data == ["t,x1,density"]

    @pytest.mark.parametrize("m", ["0.0", "-0.0", "0.5", "-1.5"])
    def test_magnetization_outside_its_range_exits_2(self, workspace, capsys, m):
        # zero is a bad key like any other value outside [-1, 0), not a failed verdict
        tmp_path, make = workspace
        conf = make(DYNAMICS_CONF + f"dynamics.initial = packet\ndynamics.m = {m}\n")
        assert main(["dynamics", "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: quantization parameter must lie in [-1, 0), got {float(m)}\n"

    def test_packet_center_outside_lattice_exits_2(self, workspace, capsys):
        tmp_path, make = workspace
        conf = make(DYNAMICS_CONF + "dynamics.initial = packet\ndynamics.m = -0.8\ndynamics.packet_center = 8\n")
        assert main(["dynamics", "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: packet center 8 outside the sites [0, 8)\n"

    def test_packet_run(self, workspace):
        tmp_path, make = workspace
        conf = make(
            DYNAMICS_CONF
            + "dynamics.initial = packet\ndynamics.m = -0.8\ndynamics.packet_center = 3\n"
            + "dynamics.packet_kick = 2\n"
        )
        assert main(["dynamics", "--config", str(conf), "--out", str(tmp_path)]) == 0

    def test_packet_artifacts_equal_site_basis_evolution(self, workspace):
        # the command evolves in the mode basis; every density and the snapshot
        # must equal, digit for digit, evolving the site-basis packet directly
        tmp_path, make = workspace
        assert main(["dynamics", "--config", str(make(PACKET_CONF)), "--out", str(tmp_path)]) == 0
        grid = MomentumGrid.from_lattice(LatticeSpec(1, 8))
        couplings = CouplingSet.nearest_neighbor(1, j=1.0, j3=1.0, h=0.5)
        state = packet_state(-0.8, grid, couplings, 0.5, center=3, width=1.5, kick_index=2)
        expected = [
            f"{fmt(t)},{x},{fmt(number_density(evolve(state, t))[x])}"
            for t in (0.0, 0.5, 1.0)
            for x in range(8)
        ]
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert [line for line in lines if not line.startswith("#")][1:] == expected
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert snapshot["gamma_mode_real"] == state.to_mode().gamma.real.tolist()


    def test_packet_reads_no_solver_keys(self, workspace, capsys):
        # thermal.beta and solve.* apply only to dynamics.initial = equilibrium
        tmp_path, make = workspace
        bare = make(PACKET_CONF.replace("thermal.beta = 2.0\n", ""), name="bare.conf")
        full = make(PACKET_CONF + "solve.tol = 1e-9\n", name="full.conf")
        runs = []
        for conf in (bare, full):
            out = tmp_path / conf.stem
            assert main(["dynamics", "--config", str(conf), "--out", str(out)]) == 0
            runs.append({f: (out / f).read_bytes() for f in ("snapshot.json", "trajectory.csv")})
        assert runs[0] == runs[1]
        config = json.loads(runs[0]["snapshot.json"])["config"]
        packet = ("dynamics.m", "dynamics.packet_center", "dynamics.packet_kick", "dynamics.packet_width")
        assert sorted(config) == sorted(cli.COMMANDS["dynamics"].keys + packet)
        assert not any(key.startswith(("thermal.", "solve.")) for key in config)
        # dynamics.m is a packet key like the others: required, with the standard message
        conf = make(PACKET_CONF.replace("dynamics.m = -0.8\n", ""), name="no-m.conf")
        assert main(["dynamics", "--config", str(conf), "--out", str(tmp_path / "no-m")]) == 2
        assert capsys.readouterr().err == "error: config key 'dynamics.m' is required for 'dynamics'\n"

    def test_equilibrium_requires_thermal_beta(self, workspace, capsys):
        tmp_path, make = workspace
        conf = make(DYNAMICS_CONF.replace("thermal.beta = 2.0\n", ""))
        assert main(["dynamics", "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert "config key 'thermal.beta' is required for 'dynamics'" in capsys.readouterr().err
        conf = make(DYNAMICS_CONF + "solve.tol = 1e-9\n")
        assert main(["dynamics", "--config", str(conf), "--out", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "snapshot.json").read_text())["config"]
        assert (config["thermal.beta"], config["solve.tol"]) == ("2.0", "1e-9")
        # dynamics.m, a packet key, is ignored and not embedded
        runs = []
        for k, body in enumerate((DYNAMICS_CONF, DYNAMICS_CONF + "dynamics.m = -0.5\n")):
            out = tmp_path / f"m{k}"
            assert main(["dynamics", "--config", str(make(body)), "--out", str(out)]) == 0
            runs.append({f: (out / f).read_bytes() for f in ("snapshot.json", "trajectory.csv")})
        assert runs[0] == runs[1]
        assert "dynamics.m" not in json.loads(runs[1]["snapshot.json"])["config"]

    def test_packet_rerun_is_byte_identical(self, workspace):
        tmp_path, make = workspace
        conf = make(PACKET_CONF)
        runs = []
        for name in ("first", "second"):
            assert main(["dynamics", "--config", str(conf), "--out", str(tmp_path / name)]) == 0
            runs.append({f: (tmp_path / name / f).read_bytes() for f in ("snapshot.json", "trajectory.csv")})
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("width", ["0", "-3", "1e-320"])
    def test_packet_width_not_positive_exits_2(self, width, workspace, capsys):
        # 1e-320 is positive, but 2 * width**2 underflows to 0
        tmp_path, make = workspace
        conf = make(PACKET_CONF.replace("packet_width = 1.5", f"packet_width = {width}"))
        out = tmp_path / "out"
        assert main(["dynamics", "--config", str(conf), "--out", str(out)]) == 2
        assert f"packet width must be > 0 with 2*width**2 > 0, got {float(width)}" in capsys.readouterr().err
        assert not out.exists()

    def test_packet_width_whose_square_overflows_is_flat(self, workspace):
        tmp_path, make = workspace
        conf = make(PACKET_CONF.replace("packet_width = 1.5", "packet_width = 1e300"))
        assert main(["dynamics", "--config", str(conf), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        densities = np.array([float(line.split(",")[-1]) for line in lines if line[0].isdigit()])
        assert len(densities) == 3 * 8
        assert np.ptp(densities) <= 1e-12 * densities.max()  # the plane wave of the kick

    def test_drift_diagnostics(self, workspace, capsys):
        # the snapshot reports the largest sampled drift of number and energy,
        # here one or a few roundings each
        tmp_path, make = workspace
        conf = make(PACKET_CONF)
        assert main(["dynamics", "--config", str(conf), "--out", str(tmp_path)]) == 0
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert list(snapshot)[-4:] == ["max_number_drift", "max_energy_drift", "number_drift_bound",
                                       "energy_drift_bound"]
        grid = MomentumGrid.from_lattice(LatticeSpec(1, 8))
        couplings = CouplingSet.nearest_neighbor(1, j=1.0, j3=1.0, h=0.5)
        state = packet_state(-0.8, grid, couplings, 0.5, center=3, width=1.5, kick_index=2)
        for name, total in (("number", total_number), ("energy", total_energy)):
            drifts = [abs(total(evolve(state, t)) - total(state)) for t in (0.0, 0.5, 1.0)]
            assert snapshot[f"max_{name}_drift"] == max(drifts)
            # 2 (N + 16) eps |X(0)| for the N = 8 modes
            assert snapshot[f"{name}_drift_bound"] == 2 * (8 + 16) * np.finfo(float).eps * abs(total(state))
            assert 0.0 < max(drifts) <= snapshot[f"{name}_drift_bound"]
        out = capsys.readouterr().out
        assert (f"conserved=True max_number_drift={fmt(snapshot['max_number_drift'])} "
                f"max_energy_drift={fmt(snapshot['max_energy_drift'])}\n") in out

    def test_non_finite_drift_fails_the_verdict(self, workspace, capsys, monkeypatch):
        # a NaN drift after a finite one must not vanish in the running maximum
        counts = []

        def nan_at_the_second_sample(state):
            counts.append(None)
            # call 1 is the initial number, calls 2-4 the samples at t = 0, 0.5, 1
            return math.nan if len(counts) == 3 else total_number(state)

        monkeypatch.setattr(cli, "total_number", nan_at_the_second_sample)
        tmp_path, make = workspace
        assert main(["dynamics", "--config", str(make(PACKET_CONF)), "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "conserved=False max_number_drift=nan" in captured.out
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert math.isnan(snapshot["max_number_drift"]) and snapshot["number_drift_bound"] > 0.0
        assert captured.err == (f"conservation drift exceeds its rounding bound (number "
                                f"{fmt(snapshot['number_drift_bound'])}, energy "
                                f"{fmt(snapshot['energy_drift_bound'])}) or is not finite\n")
        assert "# max_number_drift = nan\n" in (tmp_path / "trajectory.csv").read_text()  # CSV keeps '%.17g'

    def test_large_coupling_packet_conserves_within_its_own_bound(self, workspace, capsys):
        # energy 4.25e8 drifts by about 1e-7, 0.6 eps of it: far over an absolute 1e-10, far under its bound
        tmp_path, make = workspace
        conf = make("lattice.dimension = 1\nlattice.size = 512\ncouplings.path = {csv}\nfield.h = 0.5\n"
                    "dynamics.initial = packet\ndynamics.m = -0.8\ndynamics.packet_center = 100\n"
                    "dynamics.packet_width = 30\ndynamics.packet_kick = 256\n"
                    "dynamics.times = 0.5,1.0,2.5,7.0,30.0\n", "dz1,J,J3\n1,1e6,1e6\n")
        assert main(["dynamics", "--config", str(conf), "--out", str(tmp_path)]) == 0
        assert "conserved=True" in capsys.readouterr().out
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert 1e-10 < snapshot["max_energy_drift"] <= snapshot["energy_drift_bound"]
        assert snapshot["max_number_drift"] <= snapshot["number_drift_bound"]

    def test_overflowing_phases_exit_2(self, workspace, capsys):
        # m eps(q) t exceeds the float range at t = 1e308: refused before a phase or a file is made
        tmp_path, make = workspace
        conf = make(PACKET_CONF.replace("dynamics.times = 0.0,0.5,1.0", "dynamics.times = 1,1e308")
                    .replace("dynamics.m = -0.8", "dynamics.m = -0.5"))
        out = tmp_path / "out"
        assert main(["dynamics", "--config", str(conf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: time 1e+308: the phases m*eps(q)*t overflow")
        assert not out.exists()

    def test_oversized_snapshot_refused_before_any_state(self, workspace, capsys, monkeypatch):
        def no_state(*args, **kwargs):
            raise AssertionError("a state was built")

        monkeypatch.setattr(cli, "MAX_SNAPSHOT_BYTES", 16 * 8 * 8 - 1)
        monkeypatch.setattr(cli, "packet_state", no_state)
        monkeypatch.setattr(cli, "solve_magnetization", no_state)
        monkeypatch.setattr(cli, "validate_ferromagnetic", no_gap_grid)
        tmp_path, make = workspace
        for conf in (DYNAMICS_CONF, PACKET_CONF):
            assert main(["dynamics", "--config", str(make(conf)), "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: dynamics on 8 sites needs a 1024-byte dense snapshot")
            assert "above the limit of 1023 bytes" in err
        assert not (tmp_path / "snapshot.json").exists()
        monkeypatch.undo()
        monkeypatch.setattr(cli, "MAX_SNAPSHOT_BYTES", 16 * 8 * 8)  # exactly at the limit
        assert main(["dynamics", "--config", str(make(DYNAMICS_CONF)), "--out", str(tmp_path)]) == 0


@settings(max_examples=40)
@given(
    dimension=st.integers(1, 3),
    size=st.floats(0.0, 1.0),
    scale=st.floats(-2.0, 7.0),
    anisotropy=st.floats(1.0, 2.0),
    second=st.floats(0.0, 0.5),
    width=st.one_of(st.floats(-0.3, 3.0), st.just(200.0)),  # 10**200: its square overflows, the flat profile
    center=st.floats(0.0, 1.0),
    kick=st.floats(0.0, 1.0),
    m=st.floats(-1.0, -0.05),
    times=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5),
)
def test_packet_drift_stays_within_its_rounding_bound(dimension, size, scale, anisotropy, second, width,
                                                       center, kick, m, times):
    # couplings J <= J3 at scales 1e-2..1e7 on 1-3D tori up to 256 sites, widths up to flat
    size = 2 + int(size * {1: 254, 2: 14, 3: 4}[dimension])
    rows = []
    for axis in range(dimension):
        for step, j in ((1, 10.0**scale), (2, second * 10.0**scale)):
            z = ",".join(str(step if a == axis else 0) for a in range(dimension))
            rows.append(f"{z},{j!r},{j * anisotropy!r}\n")
    header = ",".join(f"dz{a + 1}" for a in range(dimension)) + ",J,J3\n"
    n_sites = size**dimension
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "couplings.csv"
        path.write_text(header + "".join(rows))
        gap0 = 2 * dimension * (1.0 + second) * 10.0**scale * (anisotropy - 1.0)  # J3(0) - J(0), below h
        raw = {"lattice.dimension": str(dimension), "lattice.size": str(size), "couplings.path": str(path),
               "field.h": repr(1.5 * gap0 + 0.5), "dynamics.initial": "packet", "dynamics.m": repr(m),
               "dynamics.packet_center": str(min(int(center * n_sites), n_sites - 1)),
               "dynamics.packet_width": repr(10.0**width),
               "dynamics.packet_kick": str(min(int(kick * n_sites), n_sites - 1)),
               "dynamics.times": ",".join(map(repr, times))}
        output = cli.cmd_dynamics(cli.RunConfig(raw, "dynamics"))
    doc = output.doc
    assert doc["max_number_drift"] <= doc["number_drift_bound"]
    assert doc["max_energy_drift"] <= doc["energy_drift_bound"]
    assert output.passed


class TestSectorsCommand:
    def test_table_artifact(self, workspace, capsys):
        tmp_path, make = workspace
        conf = make("sectors.copies = 5\n")
        rc = main(["sectors", "--config", str(conf), "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "sectors.json").read_text())
        assert doc["total_dimension"] == 32
        assert doc["entries"][0] == {"j": 2.5, "multiplicity": 1, "dim": 6}
        out = capsys.readouterr().out
        assert "total_dimension=32" in out

    def test_even_copies_exit_2(self, workspace):
        tmp_path, make = workspace
        conf = make("sectors.copies = 4\n")
        assert main(["sectors", "--config", str(conf), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("copies, message", [
    (0, "copy count must be odd and >= 1, got 0"),
    (2, "copy count must be odd and >= 1, got 2"),
    (33, "copy count 33 exceeds supported maximum 31 (MAX_COPIES)"),
])
def test_oracle_and_sectors_refuse_a_copy_count_alike(copies, message, workspace, capsys):
    # sectors.check_copies is the one owner of the rule and of its wording
    tmp_path, make = workspace
    bodies = {"oracle": ORACLE_CONF.replace("oracle.copies = 1,3", f"oracle.copies = {copies}"),
              "sectors": f"sectors.copies = {copies}\n"}
    for command, body in bodies.items():
        conf = make(body, name=f"{command}.conf")
        assert main([command, "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.glob("*.json"))


GOLDEN_CASES = {
    **{case: EMIT_CASES[case] for case in EMIT_CASES if case != "dynamics"},
    "dynamics-equilibrium": EMIT_CASES["dynamics"],
}


# the JSON body's entries that a CSV preamble lists after its '# results' marker, in body order
CSV_RESULTS = {
    "validate": ["gap_ok", "field_ok_strict", "field_ok_relaxed", "gap_at_zero", "minimum_gap", "minimizing_q"],
    "solve": ["m_star", "residual", "bound", "roots"],
    "oracle": [],
    "dynamics": ["m", "max_number_drift", "max_energy_drift", "number_drift_bound", "energy_drift_bound"],
    "sectors": ["copies", "total_dimension"],
}


def result_line(key, value) -> str:
    """A CSV result line: floats at full precision, a list space-joined, bools as True/False."""
    if isinstance(value, list):
        return f"{key} = " + " ".join(fmt(v) for v in value)
    return f"{key} = {fmt(value) if isinstance(value, float) else value}"


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_artifacts_equal_the_reference_writers(case, workspace):
    # every artifact of every subcommand, byte for byte against the test-side
    # whole-document JSON writer and the row-wise CSV writer, fed the same Output
    command, body, names = GOLDEN_CASES[case]
    tmp_path, make = workspace
    conf = make(body)
    assert main([command, "--config", str(conf), "--out", str(tmp_path)]) == 0
    cfg = cli.RunConfig(cli.read_config(conf), command)
    output = cli.COMMANDS[command].func(cfg)
    config = dict(sorted(cfg.effective.items()))
    for name in names:
        text = (tmp_path / name).read_text()
        if name.endswith(".json"):
            assert text == reference_dumps({"config": config, **output.doc})
        else:
            results = [result_line(key, output.doc[key]) for key in CSV_RESULTS[command]]
            preamble = [f"{key} = {value}" for key, value in config.items()] + ["results"] + results
            assert text == reference_csv(*output.table(), preamble)


@pytest.mark.parametrize("case", ["validate-json", "solve-json", "oracle-json", "dynamics-equilibrium",
                                  "dynamics-packet", "sectors-json"])
def test_run_computes_the_gap_grid_once(case, workspace):
    # the regime check computes it; the solver, the oracle's predictions and a state's spectrum read
    # the kept grid.  The sector table reads no couplings and computes none.
    command, body, _ = GOLDEN_CASES[case]
    tmp_path, make = workspace
    assert main([command, "--config", str(make(body)), "--out", str(tmp_path)]) == 0
    assert magnonkit.lattice.exchange_gap_grid.cache_info().misses == (command != "sectors")


@pytest.mark.parametrize("case", ["validate-json", "solve-json"])
def test_json_run_builds_no_csv_table(case, workspace, monkeypatch):
    # the CSV table, and so the grid's N x dimension points, is built only by a run that writes a CSV
    def points(self):
        raise AssertionError("the grid's points were formed")

    monkeypatch.setattr(MomentumGrid, "points", property(points))
    command, body, _ = GOLDEN_CASES[case]
    tmp_path, make = workspace
    assert main([command, "--config", str(make(body)), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("key, value, message", [
    ("dynamics.m", "0.0", "quantization parameter must lie in [-1, 0), got 0.0"),
    ("dynamics.packet_width", "1e-200", "packet width must be > 0 with 2*width**2 > 0, got 1e-200"),
    ("dynamics.packet_center", "8", "packet center 8 outside the sites [0, 8)"),
    ("dynamics.packet_kick", "999", "packet kick_index 999 outside the grid momenta [0, 8)"),
])
def test_packet_refusals_come_before_the_gap_grid(key, value, message, workspace, capsys):
    # the configuration and the lattice alone decide them, so the regime check has not run
    keys = {"dynamics.initial": "packet", "dynamics.m": "-0.8", key: value}
    tmp_path, make = workspace
    conf = make(DYNAMICS_CONF + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert main(["dynamics", "--config", str(conf), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert magnonkit.lattice.exchange_gap_grid.cache_info().misses == 0


def embedded_config(path: Path) -> dict[str, str]:
    """The configuration an artifact embeds: its "config" object, or its '# key = value' lines ahead of '# results'."""
    if path.suffix == ".json":
        return json.loads(path.read_text())["config"]
    lines = path.read_text().splitlines()
    return dict(line[2:].split(" = ", 1) for line in lines[:lines.index("# results")])


@pytest.mark.parametrize("case", EMIT_CASES)
def test_embedded_config_reruns_to_the_same_bytes(case, workspace, monkeypatch):
    # each artifact's own configuration, written back to a config file, reproduces the run's
    # files, and holds exactly the keys the run read
    command, body, names = EMIT_CASES[case]
    tmp_path, make = workspace
    first = tmp_path / "first"
    read = set()
    getitem = cli.RunConfig.__getitem__
    monkeypatch.setattr(cli.RunConfig, "__getitem__", lambda cfg, key: read.add(key) or getitem(cfg, key))
    assert main([command, "--config", str(make(body)), "--out", str(first)]) == 0
    for name in names:
        embedded = embedded_config(first / name)
        assert set(embedded) == read
        conf = tmp_path / f"{name}.conf"
        conf.write_text("".join(f"{key} = {value}\n" for key, value in embedded.items()))
        rerun = tmp_path / f"rerun-{name}"
        assert main([command, "--config", str(conf), "--out", str(rerun)]) == 0
        assert sorted(p.name for p in rerun.iterdir()) == sorted(names)
        for other in names:
            assert (rerun / other).read_bytes() == (first / other).read_bytes()


def test_artifacts_do_not_depend_on_the_blas_thread_count(capped_cli, tmp_path):
    # a 2D L=12 solve and a 3-site oracle ladder, each run in a child with one and with two
    # OpenBLAS threads; about 1 s of child start-ups
    (tmp_path / "square.csv").write_text("dz1,dz2,J,J3\n1,0,1.0,1.0\n0,1,1.0,1.0\n")
    (tmp_path / "chain.csv").write_text(ISO_CSV)
    runs = {
        "solve": ("lattice.dimension = 2\nlattice.size = 12\ncouplings.path = square.csv\n"
                  "field.h = 0.05\nthermal.beta = 0.7\n", "solution.json"),
        "oracle": ("lattice.dimension = 1\nlattice.size = 3\ncouplings.path = chain.csv\n"
                   "field.h = 2.5\nthermal.beta = 1.0\noracle.q_index = 1\noracle.copies = 1,3\n",
                   "convergence.json"),
    }
    for command, (body, artifact) in runs.items():
        (tmp_path / f"{command}.conf").write_text(body)
        blobs = []
        for threads in (1, 2):
            out = tmp_path / f"{command}-{threads}"
            result = capped_cli(command, "--config", f"{command}.conf", "--out", out, cwd=tmp_path,
                                threads=threads)
            assert result.returncode == 0, result.stderr
            blobs.append((out / artifact).read_bytes())
        assert blobs[0] == blobs[1], command


class TestParser:
    @pytest.mark.parametrize("command,flag", [
        ("solve", "--threads=2"),
        ("validate", "--threads=2"),
        ("sectors", "--threads=2"),
        ("dynamics", "--threads=2"),
        ("oracle", "--threads=2"),
        *((command, "--format=csv") for command in ("validate", "solve", "oracle", "sectors", "dynamics")),
    ])
    def test_flags_a_command_does_not_read_are_refused(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, "--config", "x.conf", flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_schema_and_commands_agree():
    # every schema key is read by some command, and every key a command lists is in the schema;
    # a keys_if switch is one of its command's keys and its value one that the key parses to
    listed = set()
    for command in cli.COMMANDS.values():
        listed.update(command.keys)
        for switch, value, group in command.keys_if:
            assert switch in command.keys
            assert cli._SCHEMA[switch][0](value) == value
            listed.update(group)
    assert listed == set(cli._SCHEMA)


def test_readme_key_table_matches_the_schema():
    # the README lists every schema key once, with its default and exactly the commands that read it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = readme.index("| key | read by | default | rule |") + 2
    lines = itertools.takewhile(lambda line: line.startswith("| "), readme[start:])
    defaults = {"required": None, "empty": ""}
    table = {}
    for key, read_by, default, _ in (line.split(" | ") for line in lines):
        key = key.removeprefix("| ").strip("`")
        assert key not in table, key
        table[key] = set(re.findall(r"`(\w+)`", read_by)), defaults.get(default, default.strip("`"))
    readers = {key: set() for key in cli._SCHEMA}
    for name, command in cli.COMMANDS.items():
        for key in command.keys + tuple(key for *_, group in command.keys_if for key in group):
            readers[key].add(name)
    assert table == {key: (readers[key], default) for key, (_, default) in cli._SCHEMA.items()}


def test_readme_artifact_table_matches_the_commands():
    # the README names each command's artifacts, either format's by output.format or both, as COMMANDS writes them
    readme = README.read_text().splitlines()
    start = readme.index("| command | artifacts in `DIR` |") + 2
    lines = itertools.takewhile(lambda line: line.startswith("| "), readme[start:])
    table = dict(line.strip("| ").split(" | ") for line in lines)
    assert table == {
        f"`{name}`": f"`{c.json}` {'or' if 'output.format' in c.keys else 'and'} `{c.csv}`"
        for name, c in cli.COMMANDS.items()
    }


def test_readme_relative_links_resolve():
    # every link of the README that is not a URL or an anchor names a file of the repository
    links = re.findall(r"\]\(([^)\s]+)\)", README.read_text())
    relative = [link for link in links if not re.match(r"[a-z]+:|#", link)]
    assert relative
    assert [link for link in relative if not (README.parent / link.split("#")[0]).is_file()] == []


class TestConfigParsing:
    def test_duplicate_key_rejected(self, workspace):
        tmp_path, make = workspace
        conf = make(BASE_CONF + "field.h = 0.7\n")
        assert main(["validate", "--config", str(conf), "--out", str(tmp_path)]) == 2

    def test_missing_required_key_rejected(self, workspace):
        tmp_path, make = workspace
        conf = make("lattice.dimension = 1\n")
        assert main(["validate", "--config", str(conf), "--out", str(tmp_path)]) == 2

    def test_malformed_line_rejected(self, workspace):
        tmp_path, make = workspace
        conf = make(BASE_CONF + "lattice size 4\n")
        assert main(["validate", "--config", str(conf), "--out", str(tmp_path)]) == 2

    def test_comments_and_blanks_ignored(self, workspace):
        tmp_path, make = workspace
        conf = make("# a comment\n\n" + BASE_CONF)
        assert main(["validate", "--config", str(conf), "--out", str(tmp_path)]) == 0

    def test_parse_error_names_the_key(self, workspace, capsys):
        tmp_path, make = workspace
        conf = make(BASE_CONF.replace("lattice.dimension = 1", "lattice.dimension = one"))
        assert main(["validate", "--config", str(conf), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "lattice.dimension" in err and "'one'" in err


NON_FINITE = {
    "solve.tol": ("solve", BASE_CONF + "solve.tol = nan\n", "nan"),
    "field.h": ("validate", BASE_CONF.replace("field.h = 0.5", "field.h = inf"), "inf"),
    "dynamics.times": ("dynamics", DYNAMICS_CONF.replace("0.0,0.5,1.0", "0.0,-inf"), "-inf"),
    "dynamics.m": (
        "dynamics", DYNAMICS_CONF + "dynamics.initial = packet\ndynamics.m = nan\n", "nan"),
}


@pytest.mark.parametrize("key", NON_FINITE)
def test_non_finite_config_float_exits_2_naming_the_key(key, workspace, capsys):
    command, body, shown = NON_FINITE[key]
    tmp_path, make = workspace
    conf = make(body)
    assert main([command, "--config", str(conf), "--out", str(tmp_path)]) == 2
    assert f"config key '{key}': must be finite, got {shown}" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.json"))


# id -> (command, config body, key, message)
OUT_OF_RANGE = {
    "solve.tol": ("solve", BASE_CONF + "solve.tol = 0\n", "solve.tol", "must be > 0, got 0.0"),
    "solve.tol-negative": ("solve", BASE_CONF + "solve.tol = -1e-12\n", "solve.tol", "must be > 0, got -1e-12"),
    "dynamics-solve.tol": ("dynamics", DYNAMICS_CONF + "solve.tol = 0\n", "solve.tol", "must be > 0, got 0.0"),
    **{f"{command}-thermal.beta={beta}": (command, re.sub(r"thermal\.beta = \S+", f"thermal.beta = {beta}", body),
                                          "thermal.beta", f"must be > 0, got {float(beta)}")
       for command, body in (("solve", BASE_CONF), ("oracle", ORACLE_CONF), ("dynamics", DYNAMICS_CONF))
       for beta in ("0", "-1")},
    "output.format": ("solve", BASE_CONF + "output.format = xml\n", "output.format",
                      "expected one of ('json', 'csv'), got 'xml'"),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_out_of_range_value_exits_2_before_the_lattice(case, workspace, capsys, monkeypatch):
    # refused when the config is parsed, naming the key, before any lattice or gap grid
    def no_lattice(*args, **kwargs):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(cli, "LatticeSpec", no_lattice)
    command, body, key, message = OUT_OF_RANGE[case]
    tmp_path, make = workspace
    assert main([command, "--config", str(make(body)), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: config key '{key}': {message}\n"
    assert not any(tmp_path.glob("*.json"))


# key -> (command, config body) of a removed key: the code owns the rule it set
REMOVED_KEYS = {
    "validate.tol": ("validate", BASE_CONF),  # validate reports the regime verdict every command enforces
    "dynamics.conservation_tol": ("dynamics", DYNAMICS_CONF),  # judged against the snapshot's rounding bounds
    "oracle.mode": ("oracle", ORACLE_CONF),  # the CLI builds by sector; the full-tensor referee is library-only
}


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_rule_keys_exit_2(key, workspace, capsys):
    command, body = REMOVED_KEYS[key]
    tmp_path, make = workspace
    conf = make(body + f"{key} = 0\n")
    assert main([command, "--config", str(conf), "--out", str(tmp_path)]) == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.json"))


class TestInternalErrors:
    def test_internal_error_exits_3(self, workspace, capsys, monkeypatch):
        def broken(copies):
            raise AssertionError("sector dimensions do not add up")

        monkeypatch.setattr(cli, "sector_decomposition", broken)
        tmp_path, make = workspace
        conf = make("sectors.copies = 3\n")
        assert main(["sectors", "--config", str(conf), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: AssertionError: sector dimensions do not add up (at ")
        assert "test_cli.py:" in err and err.count("\n") == 1

    def test_key_error_is_internal(self, workspace, capsys, monkeypatch):
        # no bad input raises a KeyError, so one is a bug: exit 3, not 2
        def broken(copies):
            raise KeyError("j")

        monkeypatch.setattr(cli, "sector_decomposition", broken)
        tmp_path, make = workspace
        assert main(["sectors", "--config", str(make("sectors.copies = 3\n")), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("internal error: KeyError: 'j' (at test_cli.py:")


def test_benchmark_wrap_points_record_spans(workspace):
    # bench/spans.py wraps names in the package's modules and classes; every one
    # must exist, be called under that name, and come back unwrapped after the pass
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tmp_path, make = workspace
    solve_conf = make(BASE_CONF, name="solve.conf")
    oracle_conf = make(ORACLE_CONF, name="oracle.conf")
    packet_conf = make(PACKET_CONF, name="packet.conf")
    recorder = spans.Recorder()
    instruments = spans.Instruments(magnonkit, recorder)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in instruments.points]
    instruments.install()
    try:
        recorder.begin_pass(0)
        assert cli.main(["solve", "--config", str(solve_conf), "--out", str(tmp_path)]) == 0
        assert cli.main(["oracle", "--config", str(oracle_conf), "--out", str(tmp_path)]) == 0
        assert cli.main(["dynamics", "--config", str(packet_conf), "--out", str(tmp_path)]) == 0
        recorder.end_pass()
    finally:
        instruments.uninstall()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, attr
    names = {span[0] for span in recorder.spans}
    for name in ("cli.main", "cli.config", "lattice.validate", "lattice.gap_grid",
                 "lattice.coupling_matrix", "spinwave.solve", "spinwave.occupation",
                 "sectors.decomposition", "oracle.build", "oracle.convergence", "oracle.sigma3",
                 "oracle.two_point", "artifacts.write_json", "dynamics.packet",
                 "dynamics.evolve", "dynamics.spectrum", "dynamics.energy", "dynamics.density"):
        assert name in names, name
    # one block per assignment: 1 at oracle.copies = 1 and 2**2 at 3 on the 2-site chain
    assert recorder.counts[0]["oracle.blocks"] == 5
    assert recorder.counts[0]["dynamics.samples"] == 3


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows what the CLI pulls in
    src = str(Path(magnonkit.__file__).resolve().parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import magnonkit.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
