"""The benchmark's workloads: seeded inputs, one timed pass, and its checks.

Every workload is a closed loop with one client in one process.  A pass is
one repetition of the workload's job.  Each pass draws its own physical
parameters from ``(seed, pass index)``; sizes and coupling geometry never
depend on the seed.  Negative passes are the untimed warm-ups (-1 in the
measuring process, -2, -3, ... in the set-up probes), so their parameters
differ from every timed pass.

``prepare`` writes a pass's configs (untimed), ``run`` is the timed region
and only calls into magnonkit, and ``check`` verifies the outputs afterwards
and records one operation per CLI invocation or observable call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class Ops:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


def attempt(func, *args):
    """Call func; return (value, None) or (None, exception) so a pass never aborts."""
    try:
        return func(*args), None
    except Exception as exc:  # every failure is counted, none may stop the run
        return None, exc


def cli_main(mk, argv) -> int | Exception:
    """One CLI invocation through ``magnonkit.cli.main``; its chatter is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc, exc = attempt(mk.cli.main, argv)
    return exc if exc is not None else rc


def write_conf(path: Path, items: dict) -> None:
    path.write_text("".join(f"{key} = {value}\n" for key, value in items.items()))


def num(value: float) -> str:
    return "%.17g" % value


def cli_argv(command: str, conf: Path, out: Path) -> list[str]:
    return [command, "--config", str(conf), "--out", str(out)]


@dataclass
class Job:
    """One pass's inputs: its directory, parameters and CLI argument lists."""

    dir: Path
    params: dict
    argv: list[list[str]] = field(default_factory=list)

    @property
    def out(self) -> Path:
        return self.dir / "out"

    def artifacts(self) -> dict[str, str]:
        """SHA-256 of every file the pass wrote, by path relative to its output directory."""
        return {
            str(p.relative_to(self.out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(self.out.rglob("*"))
            if p.is_file()
        }


class Workload:
    """Fixed geometry and couplings; subclasses draw the per-pass physics."""

    name = ""
    why = ""
    dimension = 1
    size = 1
    coupling_rows: list[tuple] = []

    def __init__(self, mk, seed: int, inputs: Path):
        self.mk = mk
        self.seed = seed
        inputs.mkdir(parents=True, exist_ok=True)
        # Every process of one run reads this same path, and the CLI embeds it
        # in the artifacts, so their bytes can be compared across processes.
        self.csv = inputs / "couplings.csv"
        header = [f"dz{i + 1}" for i in range(self.dimension)] + ["J", "J3"]
        lines = [",".join(header)] + [",".join(str(c) for c in row) for row in self.coupling_rows]
        self.csv.write_text("\n".join(lines) + "\n")
        self.lattice = mk.lattice.LatticeSpec(self.dimension, self.size)
        self.grid = mk.lattice.MomentumGrid.from_lattice(self.lattice)
        gaps = mk.lattice.exchange_gap_grid(self.couplings(0.0), self.grid)
        # Computed from the input: the property gap compression depends on.  Gaps
        # equal up to rounding count once, whatever order the Fourier sum took.
        self.computed = {
            "lattice.grid_points": len(self.grid),
            "lattice.unique_gap_frac": np.unique(np.round(gaps, 10)).size / len(self.grid),
        }

    def couplings(self, h: float):
        return self.mk.lattice.load_couplings_csv(self.csv, self.dimension, h)

    def rng(self, pass_index: int) -> np.random.Generator:
        # Timed passes are 0, 1, ...; warm-ups are negative.  Both map one-to-one
        # onto the non-negative keys a seed sequence takes.
        key = 2 * pass_index if pass_index >= 0 else -2 * pass_index - 1
        return np.random.default_rng([self.seed, key])

    def base_conf(self, h: float, beta: float) -> dict:
        return {
            "lattice.dimension": self.dimension,
            "lattice.size": self.size,
            "couplings.path": self.csv,
            "field.h": num(h),
            "thermal.beta": num(beta),
        }

    def job(self, pass_index: int, directory: Path) -> Job:
        directory.mkdir(parents=True, exist_ok=True)
        job = Job(directory, self.params(self.rng(pass_index)))
        self.prepare(job)
        return job

    def params(self, rng: np.random.Generator) -> dict:
        raise NotImplementedError

    def prepare(self, job: Job) -> None:
        raise NotImplementedError

    def run(self, job: Job):
        raise NotImplementedError

    def check(self, job: Job, result, ops: Ops) -> None:
        raise NotImplementedError

    def finish(self, job: Job, ops: Ops) -> None:
        """Checks made once per process, on the warm-up's parameters."""


def check_rc(rc, what: str, ops: Ops) -> bool:
    ok = rc == 0
    ops.record(ok, f"{what}: exit {rc!r}")
    return ok


class Solve3D(Workload):
    """One ``validate`` and five ``solve`` runs on the 16^3 nearest-neighbour torus.

    The scan matrix of 4096 trial magnetizations by 4096 grid points sets the
    peak memory, and only 129 of the 4096 gap values differ, the property gap
    compression would use.  The oracle and the dynamics do no work.
    """

    name = "solve-3d"
    why = (
        "Memory-bound 4096 x N defect scan in spinwave; only 129 of 4096 gap values differ; "
        "validate + solves from near-critical to cold beta; oracle and dynamics idle."
    )
    dimension = 3
    size = 16
    coupling_rows = [(1, 0, 0, 1.0, 1.0), (0, 1, 0, 1.0, 1.0), (0, 0, 1, 1.0, 1.0)]
    solves = 5
    tol = 1e-12

    def params(self, rng):
        # beta 0.2 is near-critical (m ~ -0.1) and beta 8 is cold (m ~ -1) at h ~ 0.05.
        betas = np.geomspace(0.2, 8.0, self.solves) * np.exp(rng.uniform(-0.05, 0.05, self.solves))
        return {"h": float(rng.uniform(0.04, 0.06)), "betas": [float(b) for b in betas]}

    def prepare(self, job):
        h = job.params["h"]
        for k, beta in enumerate(job.params["betas"]):
            conf = job.dir / f"solve{k}.conf"
            write_conf(conf, self.base_conf(h, beta) | {"solve.tol": num(self.tol)})
            if k == 0:
                job.argv.append(cli_argv("validate", conf, job.out / "validate"))
            job.argv.append(cli_argv("solve", conf, job.out / f"solve{k}"))

    def run(self, job):
        return [cli_main(self.mk, argv) for argv in job.argv]

    def check(self, job, result, ops):
        check_rc(result[0], "validate", ops)
        h = job.params["h"]
        couplings = self.couplings(h)
        n_points = len(self.grid)
        for k, (beta, rc) in enumerate(zip(job.params["betas"], result[1:])):
            what = f"solve beta={beta:.6g} h={h:.6g}"
            if rc != 0:
                ops.record(False, f"{what}: exit {rc!r}")
                continue
            doc = json.loads((job.out / f"solve{k}" / "solution.json").read_text())
            m_star = doc["m_star"]
            params = self.mk.spinwave.ThermalParams(beta=beta, h=h)
            defect, exc = attempt(
                self.mk.spinwave.selfconsistency_defect, m_star, params, couplings, self.grid
            )
            ok = (
                exc is None
                and doc["residual"] <= self.tol
                and abs(defect) <= self.tol
                and m_star <= doc["bound"]
                and len(doc["n_of_q"]) == n_points
            )
            ops.record(ok, f"{what}: residual={doc['residual']} defect={defect} "
                           f"m_star={m_star} bound={doc['bound']} exc={exc!r}")


class OracleLadder(Workload):
    """A CLI ``oracle`` ladder, then the observable suite on the same rungs.

    The suite builds each rung with ``build_gibbs`` and queries the two-point
    function, the Wick residual, both energy-entropy margins and the
    commutator for k = q and one k != q at every grid momentum, so a change
    that speeds up the build but slows the queries shows.
    """

    name = "oracle-ladder"
    why = (
        "Sector build (block assembly, eigh, rotation; 64 blocks, largest 512 at n=7) and the "
        "dense observable products on a 3-site ladder n=1,3,5,7; spinwave, dynamics idle."
    )
    dimension = 1
    size = 3
    coupling_rows = [(1, 1.0, 1.0)]
    ladder = (1, 3, 5, 7)
    q_index = 1
    # Acceptance-suite tolerances (criteria 01, 05 and 09).
    commutator_tol = 1e-12
    margin_tol = 1e-9
    referee_tol = 1e-10

    def params(self, rng):
        return {"h": float(rng.uniform(2.0, 2.6)), "beta": float(rng.uniform(0.6, 1.0))}

    def prepare(self, job):
        h, beta = job.params["h"], job.params["beta"]
        conf = job.dir / "oracle.conf"
        write_conf(
            conf,
            self.base_conf(h, beta)
            | {"oracle.copies": ",".join(map(str, self.ladder)), "oracle.q_index": self.q_index},
        )
        job.argv.append(cli_argv("oracle", conf, job.out))
        job.params["couplings"] = self.couplings(h)

    def run(self, job):
        mk = self.mk
        rc = cli_main(mk, job.argv[0])
        beta, couplings = job.params["beta"], job.params["couplings"]
        points = self.grid.points
        rungs = []
        for n in self.ladder:
            config = mk.oracle.SpinConfig(copies=n, lattice=self.lattice, couplings=couplings)
            ensemble, exc = attempt(mk.oracle.build_gibbs, config, beta)
            if exc is not None:
                rungs.append((n, exc, None, []))
                continue
            sigma3 = attempt(lambda: ensemble.sigma3)
            per_q = []
            for i, q in enumerate(points):
                other = points[(i + 1) % len(points)]
                per_q.append({
                    "two_point": attempt(mk.oracle.fluctuation_two_point, ensemble, q),
                    "wick": attempt(mk.oracle.wick_residual, ensemble, q),
                    "margin-": attempt(mk.oracle.energy_entropy_margin, ensemble, q, "-"),
                    "margin+": attempt(mk.oracle.energy_entropy_margin, ensemble, q, "+"),
                    "comm_same": attempt(mk.oracle.commutator_expectation, ensemble, q, q),
                    "comm_other": attempt(mk.oracle.commutator_expectation, ensemble, q, other),
                })
            rungs.append((n, None, sigma3, per_q))
            del ensemble
        return rc, rungs

    def check(self, job, result, ops):
        rc, rungs = result
        if check_rc(rc, "oracle", ops):
            doc = json.loads((job.out / "convergence.json").read_text())
            ops.record([r["n"] for r in doc["rows"]] == list(self.ladder), "convergence.json rows")
        previous_wick = None
        for n, build_exc, sigma3, per_q in rungs:
            if build_exc is not None:
                ops.record(False, f"build n={n}: {build_exc!r}")
                previous_wick = None
                continue
            s3, exc = sigma3
            ops.record(exc is None and -1.0 - 1e-9 <= s3 <= 1e-9, f"sigma3 n={n}: {s3} {exc!r}")
            wicks = []
            for i, obs in enumerate(per_q):
                tag = f"n={n} q_index={i}"
                value, exc = obs["two_point"]
                ops.record(exc is None and value >= -self.margin_tol, f"two_point {tag}: {value} {exc!r}")
                value, exc = obs["wick"]
                ok = exc is None and (previous_wick is None or value < previous_wick[i])
                ops.record(ok, f"wick {tag}: {value} after {previous_wick} {exc!r}")
                wicks.append(value)
                for kind in ("margin-", "margin+"):
                    value, exc = obs[kind]
                    ok = exc is None and value.lhs >= value.rhs - self.margin_tol
                    ops.record(ok, f"energy-entropy {kind} {tag}: {value} {exc!r}")
                value, exc = obs["comm_same"]
                ok = exc is None and s3 is not None and abs(value - s3) <= self.commutator_tol
                ops.record(ok, f"commutator k=q {tag}: {value} vs sigma3 {s3} {exc!r}")
                value, exc = obs["comm_other"]
                ok = exc is None and abs(value) <= self.commutator_tol
                ops.record(ok, f"commutator k!=q {tag}: {value} {exc!r}")
            previous_wick = None if any(w is None for w in wicks) else wicks

    def finish(self, job, ops):
        """The full-tensor referee on the n=1 and n=3 rungs (criterion 09)."""
        oracle = self.mk.oracle
        beta, couplings = job.params["beta"], job.params["couplings"]
        for n in (1, 3):
            config = oracle.SpinConfig(copies=n, lattice=self.lattice, couplings=couplings)
            pair, exc = attempt(
                lambda: (oracle.build_gibbs(config, beta), oracle.build_gibbs(config, beta, mode="full"))
            )
            if exc is not None:
                ops.record(False, f"referee n={n}: {exc!r}")
                continue
            sector, full = pair
            worst = max(abs(sector.logZ - full.logZ), abs(sector.sigma3 - full.sigma3))
            for q in self.grid.points:
                worst = max(
                    worst,
                    abs(oracle.fluctuation_two_point(sector, q) - oracle.fluctuation_two_point(full, q)),
                )
            ops.record(worst <= self.referee_tol, f"referee n={n}: sector vs full {worst:.3e}")


class DynamicsPacket(Workload):
    """One CLI ``dynamics`` run from a packet with ten seeded sample times.

    Packet widths stay at 12 sites or more: narrower packets put subnormal
    numbers into the dense products, which slows a pass up to threefold and
    would make the pass time depend on the seed instead of on the code.
    """

    name = "dynamics-packet"
    why = (
        "Dense N^3 basis changes of a packet on an L=512 chain with next-nearest couplings, "
        "and the 16 MB snapshot.json; the solver does not run, so spinwave is bypassed."
    )
    dimension = 1
    size = 512
    coupling_rows = [(1, 1.0, 1.0), (2, 0.25, 0.25)]
    h = 0.5
    m = -0.8
    samples = 10
    density_tol = 1e-10

    def params(self, rng):
        return {
            "center": int(rng.integers(self.size)),
            "width": float(rng.uniform(12.0, 24.0)),
            "kick": int(rng.integers(self.size)),
            "times": [float(t) for t in np.sort(rng.uniform(0.1, 60.0, self.samples))],
        }

    def prepare(self, job):
        p = job.params
        conf = job.dir / "dynamics.conf"
        write_conf(
            conf,
            self.base_conf(self.h, 1.0)
            | {
                "dynamics.initial": "packet",
                "dynamics.m": num(self.m),
                "dynamics.packet_center": p["center"],
                "dynamics.packet_width": num(p["width"]),
                "dynamics.packet_kick": p["kick"],
                "dynamics.times": ",".join(num(t) for t in p["times"]),
            },
        )
        job.argv.append(cli_argv("dynamics", conf, job.out))

    def run(self, job):
        return cli_main(self.mk, job.argv[0])

    def check(self, job, result, ops):
        p = job.params
        what = f"dynamics center={p['center']} width={p['width']:.6g} kick={p['kick']}"
        if not check_rc(result, what, ops):
            return
        dyn = self.mk.dynamics
        state = dyn.packet_state(
            self.m, self.grid, self.couplings(self.h), self.h,
            center=p["center"], width=p["width"], kick_index=p["kick"],
        )
        number = dyn.total_number(state)
        sums: dict[float, float] = {}
        with open(job.out / "trajectory.csv", newline="") as fh:
            rows = csv.reader(line for line in fh if not line.startswith("#"))
            next(rows)
            for row in rows:
                sums[float(row[0])] = sums.get(float(row[0]), 0.0) + float(row[-1])
        worst = max((abs(s - number) for s in sums.values()), default=math.inf)
        snapshot, exc = attempt(json.loads, (job.out / "snapshot.json").read_text())
        ok = (
            len(sums) == self.samples
            and worst <= self.density_tol * max(1.0, number)
            and exc is None
            and len(snapshot["gamma_mode_real"]) == self.size
        )
        ops.record(ok, f"{what}: density sums off by {worst:.3e} of {number}, snapshot {exc!r}")


WORKLOADS = {w.name: w for w in (Solve3D, OracleLadder, DynamicsPacket)}
