"""Command-line front end.

Subcommands: validate | solve | oracle | dynamics | sectors, one entry each
in :data:`COMMANDS` with the config keys it reads and its artifact names.
Every run reads a flat key/value config file (``section.key = value`` lines,
'#' comments) and resolves defaults for its command's keys.  Keys outside
the schema are refused; keys of another command are ignored, so one file
can serve several commands (``validate`` and ``solve`` of the same
problem, say), and the embedded configuration lists only the keys the
command read.  ``dynamics`` reads the solver's keys (``thermal.beta`` and
``solve.*``) only when ``dynamics.initial = equilibrium``.  A ``cmd_*``
function takes only the resolved configuration and computes; :func:`_emit`
writes the artifacts with the effective configuration embedded (a leading
``"config"`` JSON key, ``# key = value`` CSV preamble lines) so results are
reproducible and diffable, prints the summary and maps the verdict to an
exit code.  A command that reads ``output.format`` writes one artifact in
that format, and only it takes ``--format``; ``dynamics`` writes both of
its files.  No command takes a thread count: the oracle builds its blocks
serially.  Exit codes: 0 success, 1 a scientific condition failed, 2 usage
or I/O failure, 3 internal error (a bug or a failed internal consistency
check, never a verdict on the physics).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import traceback
from collections.abc import Callable, Sequence
from dataclasses import astuple
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
from .oracle import convergence_study
from .sectors import sector_decomposition
from .spinwave import RegimeError, ThermalParams, solve_magnetization


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _parse_tolerance(text):
    value = _parse_float(text)
    if value < 0.0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def _parse_choice(*choices):
    def parse(text):
        if text not in choices:
            raise ValueError(f"expected one of {choices}, got {text!r}")
        return text

    return parse


def _parse_int_list(text):
    return [int(tok) for tok in text.split(",") if tok.strip()] if text.strip() else []


def _parse_float_list(text):
    return [_parse_float(tok) for tok in text.split(",") if tok.strip()] if text.strip() else []


def _parse_optional_float(text):
    return _parse_float(text) if text.strip() else None


# key -> (parser, default); None default means the key is required when used.
_SCHEMA = {
    "lattice.dimension": (int, None),
    "lattice.size": (int, None),
    "couplings.path": (str, None),
    "field.h": (_parse_float, None),
    "thermal.beta": (_parse_float, None),
    "output.format": (_parse_choice("json", "csv"), "json"),
    "validate.tol": (_parse_float, "1e-12"),
    "solve.tol": (_parse_float, "1e-12"),
    "solve.scan_points": (int, "4096"),
    "oracle.copies": (_parse_int_list, "1,3,5,7"),
    "oracle.q_index": (int, None),
    "oracle.mode": (_parse_choice("sector", "full"), "sector"),
    "oracle.monotone_tol": (_parse_float, "0"),
    "dynamics.m": (_parse_optional_float, ""),
    "dynamics.times": (_parse_float_list, ""),
    "dynamics.initial": (_parse_choice("equilibrium", "packet"), "equilibrium"),
    "dynamics.packet_center": (int, "0"),
    "dynamics.packet_width": (_parse_float, "1.0"),
    "dynamics.packet_kick": (int, "0"),
    "dynamics.conservation_tol": (_parse_tolerance, "1e-10"),
    "sectors.copies": (int, None),
}

_PROBLEM_KEYS = ("lattice.dimension", "lattice.size", "couplings.path", "field.h")
_SOLVE_KEYS = ("thermal.beta", "solve.tol", "solve.scan_points")
_ORACLE_KEYS = ("thermal.beta", "oracle.copies", "oracle.q_index", "oracle.mode", "oracle.monotone_tol")
_DYNAMICS_KEYS = (
    "dynamics.m", "dynamics.times", "dynamics.initial", "dynamics.packet_center",
    "dynamics.packet_width", "dynamics.packet_kick", "dynamics.conservation_tol",
)


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

    The CSV table is ``columns``, one equal-length sequence per ``header``
    entry; the float columns are the arrays the JSON body holds.
    """

    doc: dict
    header: list[str]
    columns: list[Sequence]
    preamble: list[str]
    lines: list[str]
    passed: bool = True
    failure: str | None = None  # stderr line of a run that did not pass


def _load_problem(cfg: RunConfig, require_regime: bool = True):
    dimension = cfg["lattice.dimension"]
    size = cfg["lattice.size"]
    lattice = LatticeSpec(dimension=dimension, size=size)
    grid = MomentumGrid.from_lattice(lattice)
    path = cfg["couplings.path"]
    if not Path(path).exists():
        raise OSError(f"coupling CSV not found: {path}")
    couplings = load_couplings_csv(path, dimension, cfg["field.h"])
    if require_regime:
        report = validate_ferromagnetic(couplings, grid)
        if not report.passed:
            raise RegimeError("; ".join(report.messages))
    return lattice, grid, couplings


def cmd_validate(cfg: RunConfig) -> Output:
    lattice, grid, couplings = _load_problem(cfg, require_regime=False)
    report = validate_ferromagnetic(couplings, grid, tol=cfg["validate.tol"])
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
    header = [f"q{i + 1}" for i in range(lattice.dimension)] + ["D"]
    columns = [grid.points[:, i] for i in range(lattice.dimension)] + [report.gap_values]
    preamble = [
        f"gap_ok = {report.gap_ok}",
        f"field_ok_strict = {report.field_ok_strict}",
        f"field_ok_relaxed = {report.field_ok_relaxed}",
        f"minimizing_q = {' '.join(fmt(v) for v in report.minimizing_momentum)}",
    ]
    lines = report.messages + [
        f"gap_ok={report.gap_ok} field_ok_strict={report.field_ok_strict} "
        f"field_ok_relaxed={report.field_ok_relaxed}"
    ]
    return Output(doc, header, columns, preamble, lines, report.passed)


def cmd_solve(cfg: RunConfig) -> Output:
    lattice, grid, couplings = _load_problem(cfg)
    params = ThermalParams(beta=cfg["thermal.beta"], h=cfg["field.h"])
    solution = solve_magnetization(
        params, couplings, grid, tol=cfg["solve.tol"], scan_points=cfg["solve.scan_points"]
    )
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
    header = [f"q{i + 1}" for i in range(lattice.dimension)] + ["D", "n", "eps"]
    columns = [grid.points[:, i] for i in range(lattice.dimension)] + [
        solution.gap_values, solution.occupations, solution.dispersion
    ]
    preamble = [
        f"m_star = {fmt(solution.m_star)}",
        f"residual = {fmt(solution.residual)}",
        f"bound = {fmt(solution.bound)}",
        "roots = " + " ".join(fmt(r) for r in solution.all_roots),
    ]
    lines = [f"m_star={fmt(solution.m_star)} residual={fmt(solution.residual)} "
             f"bound={fmt(solution.bound)} roots={len(solution.all_roots)}"]
    return Output(doc, header, columns, preamble, lines)


def cmd_oracle(cfg: RunConfig) -> Output:
    lattice, grid, couplings = _load_problem(cfg)
    q_index = cfg["oracle.q_index"]
    if not 0 <= q_index < len(grid):
        raise ValueError(f"oracle.q_index {q_index} outside grid of {len(grid)} points")
    copies_list = cfg["oracle.copies"]
    if not copies_list:
        raise ValueError("oracle.copies must list at least one copy count")
    study = convergence_study(
        lattice,
        couplings,
        beta=cfg["thermal.beta"],
        q=grid.points[q_index],
        copies_list=copies_list,
        mode=cfg["oracle.mode"],
    )
    header = ["n", "m_n", "t_n", "p_n", "discrepancy", "rounding_floor", "logZ",
              "ground_energy", "representatives", "max_sector_dim"]
    rows = [astuple(r) for r in study]
    lines = [f"n={n} m_n={fmt(m)} t_n={fmt(t)} p_n={fmt(p)} discrepancy={fmt(d)}"
             for n, m, t, p, d, *_ in rows]
    # a step passes when the discrepancy decreases (up to the tolerance) or
    # has fallen to the rounding of t_n and p_n, where its order is noise
    tol = cfg["oracle.monotone_tol"]
    monotone = all(b.discrepancy < a.discrepancy + tol or b.discrepancy <= b.rounding_floor
                   for a, b in zip(study, study[1:]))
    doc = {"rows": [dict(zip(header, row)) for row in rows]}
    return Output(doc, header, [list(column) for column in zip(*rows)], [], lines, monotone,
                  "discrepancy column is not monotone decreasing")


# Largest dense mode-basis covariance (N x N complex) the dynamics snapshot may hold.
MAX_SNAPSHOT_BYTES = 2**30


def cmd_dynamics(cfg: RunConfig) -> Output:
    lattice, grid, couplings = _load_problem(cfg)
    snapshot_bytes = 16 * lattice.n_sites**2
    if snapshot_bytes > MAX_SNAPSHOT_BYTES:
        raise ValueError(
            f"dynamics on {lattice.n_sites} sites needs a {snapshot_bytes}-byte dense snapshot "
            f"covariance, above the limit of {MAX_SNAPSHOT_BYTES} bytes (MAX_SNAPSHOT_BYTES)"
        )
    m_text = cfg.effective["dynamics.m"]
    if cfg["dynamics.initial"] == "equilibrium":
        if m_text:
            raise ValueError("dynamics.m conflicts with dynamics.initial = equilibrium")
        params = ThermalParams(beta=cfg["thermal.beta"], h=cfg["field.h"])
        solution = solve_magnetization(
            params, couplings, grid, tol=cfg["solve.tol"], scan_points=cfg["solve.scan_points"]
        )
        state = equilibrium_state(solution)
    else:
        if not m_text:
            raise ValueError("dynamics.initial = packet requires dynamics.m")
        m = cfg["dynamics.m"]
        if m == 0.0:
            raise RegimeError("dynamics undefined at vanishing magnetization")
        center = cfg["dynamics.packet_center"]
        if not 0 <= center < lattice.n_sites:
            raise ValueError(f"dynamics.packet_center {center} outside lattice")
        kick = cfg["dynamics.packet_kick"]
        if not 0 <= kick < len(grid):
            raise ValueError(f"dynamics.packet_kick {kick} outside grid")
        state = packet_state(
            m, grid, couplings, cfg["field.h"], center=center,
            width=cfg["dynamics.packet_width"], kick_index=kick,
        )

    times = cfg["dynamics.times"]
    tol = cfg["dynamics.conservation_tol"]
    number0 = total_number(state)
    energy0 = total_energy(state)
    densities = np.empty((len(times), lattice.n_sites))
    drift_n = drift_e = 0.0
    for k, t in enumerate(times):
        evolved = evolve(state, t)
        drift_n = max(drift_n, abs(total_number(evolved) - number0))
        drift_e = max(drift_e, abs(total_energy(evolved) - energy0))
        densities[k] = number_density(evolved)
    conserved = drift_n <= tol and drift_e <= tol

    # one row per (sample, site), samples outer
    header = ["t"] + [f"x{i + 1}" for i in range(lattice.dimension)] + ["density"]
    sites = lattice.site_vectors()
    columns = (
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
    }
    lines = [f"samples={len(times)} number={fmt(number0)} energy={fmt(energy0)} "
             f"conserved={conserved} max_number_drift={fmt(drift_n)} "
             f"max_energy_drift={fmt(drift_e)}"]
    return Output(snapshot, header, columns, [], lines, conserved,
                  f"conservation drift exceeded {fmt(tol)}")


def cmd_sectors(cfg: RunConfig) -> Output:
    table = sector_decomposition(cfg["sectors.copies"])
    header = ["j", "multiplicity", "dim"]
    rows = [[e.j, e.multiplicity, e.dim] for e in table.entries]
    doc = {
        "copies": table.copies,
        "total_dimension": table.total_dimension(),
        "entries": [dict(zip(header, row)) for row in rows],
    }
    lines = [f"j={fmt(j)} multiplicity={mult} dim={dim}" for j, mult, dim in rows]
    lines.append(f"total_dimension={table.total_dimension()}")
    return Output(doc, header, [list(column) for column in zip(*rows)], [], lines)


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
        _PROBLEM_KEYS + ("validate.tol", "output.format"), "validate.json", "validate.csv",
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
        keys_if=(("dynamics.initial", "equilibrium", _SOLVE_KEYS),),
    ),
    "sectors": Command(
        cmd_sectors, "print the permutation-symmetry sector table",
        ("sectors.copies", "output.format"), "sectors.json", "sectors.csv",
    ),
}


def _emit(args) -> int:
    """Run one subcommand, write its artifacts and summary, return the exit code."""
    command = COMMANDS[args.command]
    cfg = RunConfig(read_config(args.config), args.command)
    output = command.func(cfg)
    out = Path(args.out or os.environ.get("MAGNONKIT_OUT") or ".")
    out.mkdir(parents=True, exist_ok=True)
    config = dict(sorted(cfg.effective.items()))
    if "output.format" in command.keys:
        formats = {args.format or cfg["output.format"]}
    else:
        formats = {"json", "csv"}
    if "json" in formats:
        write_json(out / command.json, {"config": config, **output.doc})
    if "csv" in formats:
        preamble = [f"{key} = {value}" for key, value in config.items()] + output.preamble
        write_csv(out / command.csv, output.header, output.columns, preamble)
    for line in output.lines:
        print(line)
    if output.passed:
        return 0
    if output.failure:
        print(output.failure, file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
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
        if "output.format" in command.keys:
            cmd.add_argument("--format", choices=["json", "csv"], default=None,
                             help="artifact format (overrides output.format)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _emit(args)
    except RegimeError as exc:
        print(f"regime failure: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {type(exc).__name__}: {exc} "
              f"(at {Path(where.filename).name}:{where.lineno})", file=sys.stderr)
        return 3


def entry_point() -> None:
    raise SystemExit(main())
