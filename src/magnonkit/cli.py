"""Command-line front end.

Subcommands: validate | solve | oracle | dynamics | sectors, one entry each
in :data:`COMMANDS` with the config keys it reads and its artifact names.
Every run reads a flat key/value config file (``section.key = value``
lines, '#' comments) and resolves defaults for its command's keys.  Keys
outside the schema are refused; keys of another command are ignored, so one
file can serve several commands (``validate`` and ``solve`` of the same
problem, say), and the embedded configuration lists only the keys the
command read.  ``dynamics`` reads the solver's keys (``thermal.beta`` and
``solve.*``) only when ``dynamics.initial = equilibrium``, ``dynamics.m``
and the ``dynamics.packet_*`` keys only when it is ``packet``.  What the
configuration and the lattice alone decide (a grid index, the oracle's
ladder, a packet, the snapshot's size) is refused before the regime check
builds the gap grid.  A ``cmd_*`` function takes only the resolved
configuration and computes; :func:`_emit` writes the artifacts, prints the
summary and maps the verdict to an exit code.  An artifact embeds the effective
configuration, so results are reproducible and diffable: a JSON artifact as
a leading ``"config"`` object, a CSV as '#' lines of ``key = value`` ahead
of the marker line ``# results`` and the result lines of :func:`_results`.
``output.format`` is the one format switch: a command that reads it writes
one artifact in that format, whose embedded configuration reruns to the
same bytes; ``dynamics`` writes both of its files.  No key sets a verdict's
rule: every command judges the regime against ``lattice.GAP_TOL``, the
oracle's ladder against each row's rounding floor, and conservation against
the rounding bounds that ``snapshot.json`` records.  No command takes a
thread count or an engine: the oracle builds its blocks serially, by
sector.  Exit codes: 0 success, 1 a scientific condition failed, 2 usage or
I/O failure, 3 internal error (a bug or a failed internal consistency
check, never a verdict on the physics).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import traceback
from collections.abc import Callable
from dataclasses import asdict, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .artifacts import fmt, write_csv, write_json
from .dynamics import (
    equilibrium_state,
    evolve,
    number_density,
    packet_state,
    total_energy,
    total_number,
)
from .lattice import LatticeSpec, MomentumGrid, load_couplings_csv, validate_ferromagnetic
from .oracle import ConvergenceRow, SpinConfig, convergence_study
from .sectors import sector_decomposition
from .spinwave import DEFAULT_SOLVE_TOL, RegimeError, ThermalParams, solve_magnetization


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _parse_nonnegative(text):
    value = _parse_float(text)
    if value < 0.0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def _parse_positive(text):
    value = _parse_float(text)
    if value <= 0.0:
        raise ValueError(f"must be > 0, got {value}")
    return value


def _parse_choice(*choices):
    def parse(text):
        if text not in choices:
            raise ValueError(f"expected one of {choices}, got {text!r}")
        return text

    return parse


def _parse_ladder(text):
    copies = [int(tok) for tok in text.split(",") if tok.strip()]
    if not copies:
        raise ValueError("must list at least one copy count")
    if any(b <= a for a, b in zip(copies, copies[1:])):
        raise ValueError(f"must increase strictly, got {text}")
    return copies


def _parse_float_list(text):
    return [_parse_float(tok) for tok in text.split(",") if tok.strip()] if text.strip() else []


# key -> (parser, default); None default means the key is required when used.
_SCHEMA = {
    "lattice.dimension": (int, None),
    "lattice.size": (int, None),
    "couplings.path": (str, None),
    "field.h": (_parse_nonnegative, None),
    "thermal.beta": (_parse_positive, None),
    "output.format": (_parse_choice("json", "csv"), "json"),
    "solve.tol": (_parse_positive, repr(DEFAULT_SOLVE_TOL)),
    "oracle.copies": (_parse_ladder, "1,3,5,7"),
    "oracle.q_index": (int, None),
    "dynamics.m": (_parse_float, None),
    "dynamics.times": (_parse_float_list, ""),
    "dynamics.initial": (_parse_choice("equilibrium", "packet"), "equilibrium"),
    "dynamics.packet_center": (int, "0"),
    "dynamics.packet_width": (_parse_float, "1.0"),
    "dynamics.packet_kick": (int, "0"),
    "sectors.copies": (int, None),
}

_PROBLEM_KEYS = ("lattice.dimension", "lattice.size", "couplings.path", "field.h")
_SOLVE_KEYS = ("thermal.beta", "solve.tol")
_ORACLE_KEYS = ("thermal.beta", "oracle.copies", "oracle.q_index")
_DYNAMICS_KEYS = ("dynamics.times", "dynamics.initial")


def read_config(path) -> dict[str, str]:
    """Parse the flat key = value config format; unknown keys are rejected."""
    raw: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        if key not in _SCHEMA:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = value
    return raw


class RunConfig:
    """Defaults-resolved view of the config for one subcommand.

    A command reads its ``keys``, then each group of ``keys_if`` whose
    switch key (one of ``keys``) has the group's value.
    """

    def __init__(self, raw: dict[str, str], command: str):
        self.effective: dict[str, str] = {}
        self._values = {}
        spec = COMMANDS[command]
        for key in spec.keys:
            self._resolve(raw, key, command)
        for switch, value, group in spec.keys_if:
            if self._values[switch] == value:
                for key in group:
                    self._resolve(raw, key, command)

    def _resolve(self, raw: dict[str, str], key: str, command: str) -> None:
        parser, default = _SCHEMA[key]
        if key in raw:
            text = raw[key]
        elif default is not None:
            text = default
        else:
            raise ValueError(f"config key {key!r} is required for '{command}'")
        try:
            self._values[key] = parser(text)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
        self.effective[key] = text

    def __getitem__(self, key):
        return self._values[key]


class Output(NamedTuple):
    """What a subcommand computed: JSON body, CSV table, stdout lines, verdict.

    ``table()`` builds the CSV table, called only when a CSV is written: its
    header and one equal-length 1-D float64 or integer array per entry.
    """

    doc: dict
    table: Callable[[], tuple[list[str], list[np.ndarray]]]
    lines: list[str]
    passed: bool = True
    failure: str | None = None  # stderr line of a run that did not pass


def _load_problem(cfg: RunConfig):
    """The lattice, grid and couplings of the config; none holds O(N) memory (the grid's points are lazy)."""
    lattice = LatticeSpec(dimension=cfg["lattice.dimension"], size=cfg["lattice.size"])
    grid = MomentumGrid.from_lattice(lattice)
    path = cfg["couplings.path"]
    if not Path(path).exists():
        raise OSError(f"coupling CSV not found: {path}")
    return lattice, grid, load_couplings_csv(path, lattice.dimension, cfg["field.h"])


def _check_regime(couplings, grid: MomentumGrid) -> None:
    """A RegimeError unless the run is in the ferromagnetic regime; the check computes the run's one gap grid."""
    report = validate_ferromagnetic(couplings, grid)
    if not report.passed:
        raise RegimeError("; ".join(report.failures))


def cmd_validate(cfg: RunConfig) -> Output:
    lattice, grid, couplings = _load_problem(cfg)
    report = validate_ferromagnetic(couplings, grid)
    doc = {
        "gap_ok": report.gap_ok,
        "field_ok_strict": report.field_ok_strict,
        "field_ok_relaxed": report.field_ok_relaxed,
        "gap_at_zero": report.gap_at_zero,
        "minimum_gap": report.minimum_gap,
        "minimizing_q": list(report.minimizing_momentum),
        "messages": report.messages,
        "d_of_q": report.gap_values,
    }

    def table():
        header = [f"q{i + 1}" for i in range(lattice.dimension)] + ["D"]
        return header, [grid.points[:, i] for i in range(lattice.dimension)] + [report.gap_values]

    lines = report.messages + [
        f"gap_ok={report.gap_ok} field_ok_strict={report.field_ok_strict} "
        f"field_ok_relaxed={report.field_ok_relaxed}"
    ]
    return Output(doc, table, lines, report.passed)


def cmd_solve(cfg: RunConfig) -> Output:
    lattice, grid, couplings = _load_problem(cfg)
    _check_regime(couplings, grid)
    params = ThermalParams(beta=cfg["thermal.beta"], h=cfg["field.h"])
    solution = solve_magnetization(params, couplings, grid, tol=cfg["solve.tol"])
    doc = {
        "m_star": solution.m_star,
        "residual": solution.residual,
        "bound": solution.bound,
        "roots": solution.all_roots,
        "n_of_q": solution.occupations,
        "eps_of_q": solution.dispersion,
        "d_of_q": solution.gap_values,
        "diagnostics": solution.diagnostics,
    }

    def table():
        header = [f"q{i + 1}" for i in range(lattice.dimension)] + ["D", "n", "eps"]
        return header, [grid.points[:, i] for i in range(lattice.dimension)] + [
            solution.gap_values, solution.occupations, solution.dispersion
        ]

    lines = [f"m_star={fmt(solution.m_star)} residual={fmt(solution.residual)} "
             f"bound={fmt(solution.bound)} roots={len(solution.all_roots)}"]
    return Output(doc, table, lines)


def cmd_oracle(cfg: RunConfig) -> Output:
    lattice, grid, couplings = _load_problem(cfg)
    q_index = cfg["oracle.q_index"]
    if not 0 <= q_index < len(grid):
        raise ValueError(f"oracle.q_index {q_index} outside grid of {len(grid)} points")
    copies_list = cfg["oracle.copies"]
    for copies in copies_list:  # each rung's config refuses its copy count or its size
        SpinConfig(copies=copies, lattice=lattice, couplings=couplings)
    _check_regime(couplings, grid)
    study = convergence_study(lattice, couplings, cfg["thermal.beta"], grid.point(q_index), copies_list)
    header = [field.name for field in fields(ConvergenceRow)]
    rows = [asdict(row) for row in study]
    lines = [f"n={r.n} m_n={fmt(r.m_n)} t_n={fmt(r.t_n)} p_n={fmt(r.p_n)} discrepancy={fmt(r.discrepancy)}"
             for r in study]
    # a step passes when the discrepancy decreases or is at most its rounding floor, where its order is noise
    monotone = all(b.discrepancy < a.discrepancy or b.discrepancy <= b.rounding_floor
                   for a, b in zip(study, study[1:]))
    return Output({"rows": rows}, lambda: (header, [np.array([row[name] for row in rows]) for name in header]),
                  lines, monotone,
                  "discrepancy column is not monotone decreasing")


# Largest dense mode-basis covariance (N x N complex) the dynamics snapshot may hold: N <= 8192.
MAX_SNAPSHOT_BYTES = 2**30


def cmd_dynamics(cfg: RunConfig) -> Output:
    lattice, grid, couplings = _load_problem(cfg)
    snapshot_bytes = 16 * lattice.n_sites**2
    if snapshot_bytes > MAX_SNAPSHOT_BYTES:
        raise ValueError(
            f"dynamics on {lattice.n_sites} sites needs a {snapshot_bytes}-byte dense snapshot "
            f"covariance, above the limit of {MAX_SNAPSHOT_BYTES} bytes (MAX_SNAPSHOT_BYTES)"
        )
    packet = cfg["dynamics.initial"] == "packet"
    if packet:  # refuses its m, width, center and kick; its spectrum, and so the gap grid, is lazy
        state = packet_state(
            cfg["dynamics.m"], grid, couplings, cfg["field.h"],
            center=cfg["dynamics.packet_center"], width=cfg["dynamics.packet_width"],
            kick_index=cfg["dynamics.packet_kick"],
        )
    _check_regime(couplings, grid)
    if not packet:
        params = ThermalParams(beta=cfg["thermal.beta"], h=cfg["field.h"])
        solution = solve_magnetization(params, couplings, grid, tol=cfg["solve.tol"])
        state = equilibrium_state(solution)

    times = cfg["dynamics.times"]
    number0 = total_number(state)
    energy0 = total_energy(state)
    densities = np.empty((len(times), lattice.n_sites))
    drifts = np.empty((len(times), 2))
    for k, t in enumerate(times):
        evolved = evolve(state, t)
        drifts[k] = abs(total_number(evolved) - number0), abs(total_energy(evolved) - energy0)
        densities[k] = number_density(evolved)
    drift_n, drift_e = drifts.max(axis=0, initial=0.0).tolist()  # a NaN drift stays NaN and fails below
    # A priori bound of |X(t) - X(0)| for X = sum_q w(q) (n(q) + |psi(q)|^2), N terms all >= 0: each of X(t)
    # and X(0) carries N eps |X| from the sum and 16 eps |X| from the per-term roundings (the unit phase,
    # the complex product, the squared modulus, the addition of n, the weight w = 1 or eps(q)).  Over 300
    # random packets (1-3D, up to 4096 sites, couplings from 1e-2 to 1e7, widths up to flat) the largest
    # drift was 2% of its bound.
    slack = 2 * (lattice.n_sites + 16) * sys.float_info.epsilon
    bound_n, bound_e = slack * abs(number0), slack * abs(energy0)
    conserved = drift_n <= bound_n and drift_e <= bound_e

    def table():  # one row per (sample, site), samples outer
        header = ["t"] + [f"x{i + 1}" for i in range(lattice.dimension)] + ["density"]
        sites = lattice.site_vectors()
        return header, (
            [np.repeat(np.asarray(times, dtype=float), lattice.n_sites)]
            + [np.tile(sites[:, i], len(times)) for i in range(lattice.dimension)]
            + [densities.ravel()]
        )

    gamma = state.to_mode().gamma
    snapshot = {
        "m": state.m,
        "eps_of_q": state.spectrum,
        "gamma_mode_real": gamma.real,
        "gamma_mode_imag": gamma.imag,
        "max_number_drift": drift_n,
        "max_energy_drift": drift_e,
        "number_drift_bound": bound_n,
        "energy_drift_bound": bound_e,
    }
    lines = [f"samples={len(times)} number={fmt(number0)} energy={fmt(energy0)} "
             f"conserved={conserved} max_number_drift={fmt(drift_n)} "
             f"max_energy_drift={fmt(drift_e)}"]
    return Output(snapshot, table, lines, conserved,
                  f"conservation drift exceeds its rounding bound (number {fmt(bound_n)}, "
                  f"energy {fmt(bound_e)}) or is not finite")


def cmd_sectors(cfg: RunConfig) -> Output:
    table = sector_decomposition(cfg["sectors.copies"])
    header = ["j", "multiplicity", "dim"]
    rows = [[e.j, e.multiplicity, e.dim] for e in table.entries]
    doc = {"copies": table.copies, "total_dimension": table.total_dimension(),
           "entries": [dict(zip(header, row)) for row in rows]}
    lines = [f"j={fmt(j)} multiplicity={mult} dim={dim}" for j, mult, dim in rows]
    lines.append(f"total_dimension={table.total_dimension()}")
    return Output(doc, lambda: (header, [np.array(column) for column in zip(*rows)]), lines)


class Command(NamedTuple):
    func: Callable[[RunConfig], Output]
    help: str
    keys: tuple[str, ...]
    json: str  # artifact names in the output directory
    csv: str
    # (switch key, value, keys read only when the switch has that value)
    keys_if: tuple[tuple[str, str, tuple[str, ...]], ...] = ()


# A command whose keys include output.format writes the artifact of that
# format; one without it (dynamics) writes both.
COMMANDS = {
    "validate": Command(
        cmd_validate, "check the ferromagnetic regime of a coupling set",
        _PROBLEM_KEYS + ("output.format",), "validate.json", "validate.csv",
    ),
    "solve": Command(
        cmd_solve, "solve the magnetization self-consistency equation",
        _PROBLEM_KEYS + _SOLVE_KEYS + ("output.format",), "solution.json", "solution.csv",
    ),
    "oracle": Command(
        cmd_oracle, "compare exact finite-spin data with the spin-wave prediction",
        _PROBLEM_KEYS + _ORACLE_KEYS + ("output.format",), "convergence.json", "convergence.csv",
    ),
    "dynamics": Command(
        cmd_dynamics, "evolve a Gaussian magnon state and emit trajectories",
        _PROBLEM_KEYS + _DYNAMICS_KEYS, "snapshot.json", "trajectory.csv",
        keys_if=(
            ("dynamics.initial", "equilibrium", _SOLVE_KEYS),
            ("dynamics.initial", "packet",
             ("dynamics.m", "dynamics.packet_center", "dynamics.packet_width", "dynamics.packet_kick")),
        ),
    ),
    "sectors": Command(
        cmd_sectors, "print the permutation-symmetry sector table",
        ("sectors.copies", "output.format"), "sectors.json", "sectors.csv",
    ),
}


def _results(doc: dict) -> list[str]:
    """A CSV's ``key = value`` result lines: each bool, int, float or float list (space-joined) of the JSON body."""
    lines = []
    for key, value in doc.items():
        if isinstance(value, float):
            lines.append(f"{key} = {fmt(value)}")
        elif isinstance(value, int):  # bools print True/False
            lines.append(f"{key} = {value}")
        elif isinstance(value, list) and all(isinstance(v, float) for v in value):
            lines.append(f"{key} = {' '.join(map(fmt, value))}")
    return lines


def _emit(args) -> int:
    """Run one subcommand, write its artifacts and summary, return the exit code."""
    command = COMMANDS[args.command]
    cfg = RunConfig(read_config(args.config), args.command)
    output = command.func(cfg)
    out = Path(args.out or os.environ.get("MAGNONKIT_OUT") or ".")
    out.mkdir(parents=True, exist_ok=True)
    config = dict(sorted(cfg.effective.items()))
    formats = {cfg["output.format"]} if "output.format" in command.keys else {"json", "csv"}
    if "json" in formats:
        write_json(out / command.json, {"config": config, **output.doc})
    if "csv" in formats:
        preamble = [f"{key} = {value}" for key, value in config.items()] + ["results"] + _results(output.doc)
        write_csv(out / command.csv, *output.table(), preamble)
    for line in output.lines:
        print(line)
    if output.passed:
        return 0
    if output.failure:
        print(output.failure, file=sys.stderr)
    return 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="magnonkit",
        description="Ferromagnetic spin-wave theory with an exact finite-spin oracle.",
    )
    parser.add_argument("--version", action="version", version=f"magnonkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        cmd.add_argument("--config", required=True, help="path to the key = value config file")
        cmd.add_argument("--out", default=None, help="output directory (default: $MAGNONKIT_OUT or .)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _emit(args)
    except RegimeError as exc:
        print(f"regime failure: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {type(exc).__name__}: {exc} "
              f"(at {Path(where.filename).name}:{where.lineno})", file=sys.stderr)
        return 3


def entry_point() -> None:
    raise SystemExit(main())
