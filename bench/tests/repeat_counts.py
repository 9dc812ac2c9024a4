"""The traced run's counts repeat exactly, and BENCHMARK.json mirrors the runner.

Each workload is run twice with tracing on, so this takes a few minutes and
pytest does not collect it by default.  Run it by name from the root of the
repository:

    python3 -m pytest bench/tests/repeat_counts.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Values fixed by the workload definitions; the seed never changes them.
STRUCTURE = {
    "solve-3d": {"lattice.grid_points": 4096, "spinwave.solves": 5, "oracle.builds": 0},
    "oracle-ladder": {
        "lattice.grid_points": 3,
        "oracle.builds": 8,
        "oracle.blocks": 200,
        "oracle.max_block_dim": 512,
        "oracle.rotated_mb": 82.944,
        "spinwave.solves": 0,
    },
    "dynamics-packet": {"lattice.grid_points": 512, "dynamics.samples": 10, "oracle.builds": 0},
}

COUNTS = [name for name, spec in PER_LAYER.items() if spec[2] in ("count", "computed")]


def traced_run(workload: str) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly(workload):
    first, second = traced_run(workload), traced_run(workload)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == list(PER_LAYER)
    assert {n: first["metrics"][n] for n in COUNTS} == {n: second["metrics"][n] for n in COUNTS}
    for name, value in STRUCTURE[workload].items():
        assert first["metrics"][name]["value"] == pytest.approx(value), name


def test_benchmark_json_mirrors_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in END_TO_END.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _, _) in PER_LAYER.items()
    ]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
