"""Command-line front end.

Subcommands: validate | solve | oracle | dynamics | sectors.  Every run reads
a flat key/value config file (``section.key = value`` lines, '#' comments),
resolves defaults, and embeds the effective configuration in each artifact so
results are reproducible and diffable.  Exit codes: 0 success, 1 a scientific
condition failed, 2 usage or I/O failure, 3 internal error (a bug or a failed
internal consistency check, never a verdict on the physics).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import fmt, write_csv, write_json
from .dynamics import (
    GaussianMagnonState,
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


def _parse_int(text):
    return int(text)


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _parse_str(text):
    return text


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


def _parse_threads(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# key -> (parser, default); None default means the key is required when used.
_SCHEMA = {
    "lattice.dimension": (_parse_int, None),
    "lattice.size": (_parse_int, None),
    "couplings.path": (_parse_str, None),
    "field.h": (_parse_float, None),
    "thermal.beta": (_parse_float, None),
    "output.format": (_parse_choice("json", "csv"), "json"),
    "validate.tol": (_parse_float, "1e-12"),
    "solve.tol": (_parse_float, "1e-12"),
    "solve.scan_points": (_parse_int, "4096"),
    "oracle.copies": (_parse_int_list, "1,3,5,7"),
    "oracle.q_index": (_parse_int, None),
    "oracle.mode": (_parse_choice("sector", "full"), "sector"),
    "oracle.monotone_tol": (_parse_float, "0"),
    "dynamics.m": (_parse_optional_float, ""),
    "dynamics.times": (_parse_float_list, ""),
    "dynamics.initial": (_parse_choice("equilibrium", "packet"), "equilibrium"),
    "dynamics.packet_center": (_parse_int, "0"),
    "dynamics.packet_width": (_parse_float, "1.0"),
    "dynamics.packet_kick": (_parse_int, "0"),
    "dynamics.conservation_tol": (_parse_float, "1e-10"),
    "sectors.copies": (_parse_int, None),
}

_PROBLEM_KEYS = ("lattice.dimension", "lattice.size", "couplings.path", "field.h")

_COMMAND_KEYS = {
    "validate": _PROBLEM_KEYS + ("validate.tol", "output.format"),
    "solve": _PROBLEM_KEYS + ("thermal.beta", "solve.tol", "solve.scan_points", "output.format"),
    "oracle": _PROBLEM_KEYS
    + (
        "thermal.beta",
        "oracle.copies",
        "oracle.q_index",
        "oracle.mode",
        "oracle.monotone_tol",
        "output.format",
    ),
    "dynamics": _PROBLEM_KEYS
    + (
        "thermal.beta",
        "solve.tol",
        "solve.scan_points",
        "dynamics.m",
        "dynamics.times",
        "dynamics.initial",
        "dynamics.packet_center",
        "dynamics.packet_width",
        "dynamics.packet_kick",
        "dynamics.conservation_tol",
        "output.format",
    ),
    "sectors": ("sectors.copies", "output.format"),
}


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
    """Defaults-resolved view of the config for one subcommand."""

    def __init__(self, raw: dict[str, str], command: str):
        self.command = command
        self.effective: dict[str, str] = {}
        self._values = {}
        for key in _COMMAND_KEYS[command]:
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


def _load_problem(cfg: RunConfig):
    dimension = cfg["lattice.dimension"]
    size = cfg["lattice.size"]
    lattice = LatticeSpec(dimension=dimension, size=size)
    grid = MomentumGrid.from_lattice(lattice)
    path = cfg["couplings.path"]
    if not Path(path).exists():
        raise OSError(f"coupling CSV not found: {path}")
    couplings = load_couplings_csv(path, dimension, cfg["field.h"])
    return lattice, grid, couplings


def _config_lines(cfg: RunConfig):
    return [f"{key} = {value}" for key, value in sorted(cfg.effective.items())]


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("MAGNONKIT_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _artifact_format(args, cfg: RunConfig) -> str:
    return args.format or cfg["output.format"]


def cmd_validate(args) -> int:
    cfg = RunConfig(read_config(args.config), "validate")
    lattice, grid, couplings = _load_problem(cfg)
    report = validate_ferromagnetic(couplings, grid, tol=cfg["validate.tol"])
    out = _out_dir(args)
    doc = {
        "config": dict(sorted(cfg.effective.items())),
        "gap_ok": report.gap_ok,
        "field_ok_strict": report.field_ok_strict,
        "field_ok_relaxed": report.field_ok_relaxed,
        "gap_at_zero": report.gap_at_zero,
        "minimum_gap": report.minimum_gap,
        "minimizing_q": list(report.minimizing_momentum),
        "messages": report.messages,
        "d_of_q": report.gap_values,
    }
    if _artifact_format(args, cfg) == "json":
        write_json(out / "validate.json", doc)
    else:
        header = [f"q{i + 1}" for i in range(lattice.dimension)] + ["D"]
        rows = [list(grid.points[i]) + [report.gap_values[i]] for i in range(len(grid))]
        preamble = _config_lines(cfg) + [
            f"gap_ok = {report.gap_ok}",
            f"field_ok_strict = {report.field_ok_strict}",
            f"field_ok_relaxed = {report.field_ok_relaxed}",
            f"minimizing_q = {' '.join(fmt(v) for v in report.minimizing_momentum)}",
        ]
        write_csv(out / "validate.csv", header, rows, preamble)
    for message in report.messages:
        print(message)
    print(f"gap_ok={report.gap_ok} field_ok_strict={report.field_ok_strict} "
          f"field_ok_relaxed={report.field_ok_relaxed}")
    return 0 if report.passed else 1


def _require_regime(couplings, grid) -> None:
    report = validate_ferromagnetic(couplings, grid)
    if not report.passed:
        raise RegimeError("; ".join(report.messages))


def cmd_solve(args) -> int:
    cfg = RunConfig(read_config(args.config), "solve")
    lattice, grid, couplings = _load_problem(cfg)
    _require_regime(couplings, grid)
    params = ThermalParams(beta=cfg["thermal.beta"], h=cfg["field.h"])
    solution = solve_magnetization(
        params, couplings, grid, tol=cfg["solve.tol"], scan_points=cfg["solve.scan_points"]
    )
    out = _out_dir(args)
    if _artifact_format(args, cfg) == "json":
        doc = {
            "config": dict(sorted(cfg.effective.items())),
            "m_star": solution.m_star,
            "residual": solution.residual,
            "bound": solution.bound,
            "roots": solution.all_roots,
            "n_of_q": solution.occupations,
            "eps_of_q": solution.dispersion,
            "d_of_q": solution.gap_values,
            "diagnostics": solution.diagnostics,
        }
        write_json(out / "solution.json", doc)
    else:
        header = [f"q{i + 1}" for i in range(lattice.dimension)] + ["D", "n", "eps"]
        rows = [
            list(grid.points[i])
            + [solution.gap_values[i], solution.occupations[i], solution.dispersion[i]]
            for i in range(len(grid))
        ]
        preamble = _config_lines(cfg) + [
            f"m_star = {fmt(solution.m_star)}",
            f"residual = {fmt(solution.residual)}",
            f"bound = {fmt(solution.bound)}",
            "roots = " + " ".join(fmt(r) for r in solution.all_roots),
        ]
        write_csv(out / "solution.csv", header, rows, preamble)
    print(f"m_star={fmt(solution.m_star)} residual={fmt(solution.residual)} "
          f"bound={fmt(solution.bound)} roots={len(solution.all_roots)}")
    return 0


def cmd_oracle(args) -> int:
    cfg = RunConfig(read_config(args.config), "oracle")
    lattice, grid, couplings = _load_problem(cfg)
    _require_regime(couplings, grid)
    q_index = cfg["oracle.q_index"]
    if not 0 <= q_index < len(grid):
        raise ValueError(f"oracle.q_index {q_index} outside grid of {len(grid)} points")
    copies_list = cfg["oracle.copies"]
    if not copies_list:
        raise ValueError("oracle.copies must list at least one copy count")
    rows = convergence_study(
        lattice,
        couplings,
        beta=cfg["thermal.beta"],
        q=grid.points[q_index],
        copies_list=copies_list,
        mode=cfg["oracle.mode"],
        threads=args.threads,
    )
    out = _out_dir(args)
    row_dicts = [
        {
            "n": r.copies,
            "m_n": r.magnetization,
            "t_n": r.two_point,
            "p_n": r.prediction,
            "discrepancy": r.discrepancy,
        }
        for r in rows
    ]
    if _artifact_format(args, cfg) == "json":
        write_json(out / "convergence.json", {"config": dict(sorted(cfg.effective.items())), "rows": row_dicts})
    else:
        write_csv(
            out / "convergence.csv",
            ["n", "m_n", "t_n", "p_n", "discrepancy"],
            [[d["n"], d["m_n"], d["t_n"], d["p_n"], d["discrepancy"]] for d in row_dicts],
            _config_lines(cfg),
        )
    for d in row_dicts:
        print(f"n={d['n']} m_n={fmt(d['m_n'])} t_n={fmt(d['t_n'])} "
              f"p_n={fmt(d['p_n'])} discrepancy={fmt(d['discrepancy'])}")
    tol = cfg["oracle.monotone_tol"]
    discs = [d["discrepancy"] for d in row_dicts]
    monotone = all(discs[i + 1] < discs[i] + tol for i in range(len(discs) - 1))
    if not monotone:
        print("discrepancy column is not monotone decreasing", file=sys.stderr)
        return 1
    return 0


def cmd_dynamics(args) -> int:
    cfg = RunConfig(read_config(args.config), "dynamics")
    lattice, grid, couplings = _load_problem(cfg)
    _require_regime(couplings, grid)
    params = ThermalParams(beta=cfg["thermal.beta"], h=cfg["field.h"])

    m_text = cfg.effective["dynamics.m"]
    if cfg["dynamics.initial"] == "equilibrium":
        solution = solve_magnetization(
            params, couplings, grid, tol=cfg["solve.tol"], scan_points=cfg["solve.scan_points"]
        )
        if m_text:
            raise ValueError("dynamics.m conflicts with dynamics.initial = equilibrium")
        state = equilibrium_state(solution, grid)
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
    # Evolution is a phase in the mode basis, so the state is evolved and
    # checked there and changes basis once per sample, for the density.  At
    # t = 0 the density is read off the state as given, as evolve does.
    mode_state = state.to_mode()
    number0 = total_number(mode_state)
    energy0 = total_energy(mode_state)
    sites = lattice.site_vectors()
    rows = []
    conserved = True
    for t in times:
        evolved = evolve(mode_state, t)
        drift_n = abs(total_number(evolved) - number0)
        drift_e = abs(total_energy(evolved) - energy0)
        if drift_n > tol or drift_e > tol:
            conserved = False
        density = number_density(evolved if t != 0.0 else state)
        for x in range(lattice.n_sites):
            rows.append([t] + list(sites[x]) + [density[x]])

    out = _out_dir(args)
    header = ["t"] + [f"x{i + 1}" for i in range(lattice.dimension)] + ["density"]
    write_csv(out / "trajectory.csv", header, rows, _config_lines(cfg))
    snapshot = {
        "config": dict(sorted(cfg.effective.items())),
        "m": state.m,
        "eps_of_q": state.spectrum.eps,
        "gamma_mode_real": mode_state.gamma.real,
        "gamma_mode_imag": mode_state.gamma.imag,
    }
    write_json(out / "snapshot.json", snapshot)
    print(f"samples={len(times)} number={fmt(number0)} energy={fmt(energy0)} "
          f"conserved={conserved}")
    if not conserved:
        print(f"conservation drift exceeded {fmt(tol)}", file=sys.stderr)
        return 1
    return 0


def cmd_sectors(args) -> int:
    cfg = RunConfig(read_config(args.config), "sectors")
    table = sector_decomposition(cfg["sectors.copies"])
    out = _out_dir(args)
    rows = [[e.j, e.multiplicity, e.dim] for e in table.entries]
    if _artifact_format(args, cfg) == "json":
        doc = {
            "config": dict(sorted(cfg.effective.items())),
            "copies": table.copies,
            "total_dimension": table.total_dimension(),
            "entries": [
                {"j": e.j, "multiplicity": e.multiplicity, "dim": e.dim} for e in table.entries
            ],
        }
        write_json(out / "sectors.json", doc)
    else:
        write_csv(out / "sectors.csv", ["j", "multiplicity", "dim"], rows, _config_lines(cfg))
    for e in table.entries:
        print(f"j={fmt(e.j)} multiplicity={e.multiplicity} dim={e.dim}")
    print(f"total_dimension={table.total_dimension()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magnonkit",
        description="Ferromagnetic spin-wave theory with an exact finite-spin oracle.",
    )
    parser.add_argument("--version", action="version", version=f"magnonkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "validate": (cmd_validate, "check the ferromagnetic regime of a coupling set"),
        "solve": (cmd_solve, "solve the magnetization self-consistency equation"),
        "oracle": (cmd_oracle, "compare exact finite-spin data with the spin-wave prediction"),
        "dynamics": (cmd_dynamics, "evolve a Gaussian magnon state and emit trajectories"),
        "sectors": (cmd_sectors, "print the permutation-symmetry sector table"),
    }
    for name, (func, help_text) in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the key = value config file")
        cmd.add_argument("--out", default=None, help="output directory (default: $MAGNONKIT_OUT or .)")
        cmd.add_argument("--format", choices=["json", "csv"], default=None,
                         help="artifact format (overrides output.format)")
        cmd.add_argument("--threads", type=_parse_threads, default=1,
                         help="worker threads for block diagonalization (0 = auto)")
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
