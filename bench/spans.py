"""Spans and counters recorded around magnonkit's public calls, from outside.

The package itself carries no instrumentation.  :class:`Instruments` replaces
selected functions, methods and properties at the names where they are
called (for example ``magnonkit.cli.solve_magnetization``, the name
``cmd_solve`` looks up) with wrappers that record a span per call, and puts
the originals back when a traced pass ends.  Untraced passes therefore run
the unmodified package.

Spans live in memory as ``(name, start, end, parent, pass)`` rows and are
written out once the run ends.  Counters are recorded at the same call
boundaries, per pass.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from contextlib import contextmanager

MB = 1e6


class Recorder:
    """In-memory span log and per-pass counters of one benchmark run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.alloc_peaks_mb: dict[str, float] = {}
        self.measure_alloc = False
        self.pass_index: int | None = None
        self._stack: list[int] = []

    def begin_pass(self, index: int) -> None:
        self.pass_index = index
        self.counts[index] = {}

    def end_pass(self) -> None:
        self.pass_index = None
        self._stack.clear()

    @contextmanager
    def span(self, name: str):
        if self.pass_index is None:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.pass_index))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, pass_index = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, pass_index)

    def add(self, name: str, value: float) -> None:
        if self.pass_index is not None:
            counts = self.counts[self.pass_index]
            counts[name] = counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        if self.pass_index is not None:
            counts = self.counts[self.pass_index]
            counts[name] = max(counts.get(name, value), value)

    @contextmanager
    def alloc(self, name: str):
        """tracemalloc peak of the wrapped call, only while ``measure_alloc`` is set."""
        if not self.measure_alloc:
            yield
            return
        tracemalloc.start()
        try:
            yield
        finally:
            peak = tracemalloc.get_traced_memory()[1] / MB
            tracemalloc.stop()
            self.alloc_peaks_mb[name] = max(self.alloc_peaks_mb.get(name, 0.0), peak)


# --- counters taken from arguments and results at the call boundary ---------


def _count_solve(rec, args, result):
    rec.add("spinwave.solves", 1)
    rec.add("spinwave.roots", len(result.all_roots))


def _count_build(rec, args, ensemble):
    dims = [block.dim for block in ensemble.blocks]
    n_sites = ensemble.n_sites
    rec.add("oracle.builds", 1)
    rec.add("oracle.blocks", len(dims))
    rec.peak("oracle.max_block_dim", max(dims))
    rec.add("oracle.eigh_flops", sum(d**3 for d in dims))
    # Rotated site operators held by one ensemble: S+ and S3 per site, float64.
    rec.peak("oracle.rotated_mb", sum(2 * n_sites * d * d * 8 for d in dims) / MB)


def _count_basis(target):
    def count(rec, args, result):
        rec.add("dynamics.basis_changes", int(args[0].basis != target))

    return count


def _count_one(name):
    def count(rec, args, result):
        rec.add(name, 1)

    return count


def _count_bytes(rec, args, result):
    rec.add("artifacts.bytes", os.path.getsize(args[0]))


def _traced(rec, name, func, count=None, alloc=False):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            if alloc:
                with rec.alloc(name):
                    result = func(*args, **kwargs)
            else:
                result = func(*args, **kwargs)
        if count is not None:
            count(rec, args, result)
        return result

    return wrapper


class Instruments:
    """The wrap points of every per-layer metric, installable and removable."""

    def __init__(self, magnonkit, recorder: Recorder):
        cli, lattice, spinwave = magnonkit.cli, magnonkit.lattice, magnonkit.spinwave
        oracle, dynamics = magnonkit.oracle, magnonkit.dynamics
        state = dynamics.GaussianMagnonState
        ensemble = oracle.GibbsEnsemble
        # (owner, attribute, span name, counter, measure tracemalloc peak)
        self.points = [
            (cli, "main", "cli.main", None, False),
            (cli, "read_config", "cli.config", None, False),
            (cli, "RunConfig", "cli.config", None, False),
            (cli, "load_couplings_csv", "cli.config", None, False),
            (cli, "validate_ferromagnetic", "lattice.validate", None, False),
            (lattice, "exchange_gap_grid", "lattice.gap_grid", None, False),
            (spinwave, "exchange_gap_grid", "lattice.gap_grid", None, False),
            (dynamics, "exchange_gap_grid", "lattice.gap_grid", None, False),
            (oracle, "coupling_matrix", "lattice.coupling_matrix", None, False),
            (dynamics, "coupling_matrix", "lattice.coupling_matrix", None, False),
            (cli, "solve_magnetization", "spinwave.solve", _count_solve, True),
            (oracle, "occupation", "spinwave.occupation", None, False),
            (oracle, "sector_decomposition", "sectors.decomposition", None, False),
            (oracle, "build_gibbs", "oracle.build", _count_build, True),
            (cli, "convergence_study", "oracle.convergence", None, False),
            (ensemble, "sigma3", "oracle.sigma3", None, False),
            (oracle, "fluctuation_two_point", "oracle.two_point", None, False),
            (oracle, "wick_residual", "oracle.wick", None, False),
            (oracle, "energy_entropy_margin", "oracle.energy_entropy", None, False),
            (oracle, "commutator_expectation", "oracle.commutator", None, False),
            (cli, "packet_state", "dynamics.packet", None, False),
            (cli, "evolve", "dynamics.evolve", _count_one("dynamics.samples"), False),
            (state, "to_mode", "dynamics.to_mode", _count_basis("mode"), False),
            (state, "to_site", "dynamics.to_site", _count_basis("site"), False),
            (state, "spectrum", "dynamics.spectrum", _count_one("dynamics.spectrum_calls"), False),
            (cli, "total_energy", "dynamics.energy", None, False),
            (cli, "number_density", "dynamics.density", None, False),
            (cli, "write_json", "artifacts.write_json", _count_bytes, False),
            (cli, "write_csv", "artifacts.write_csv", _count_bytes, False),
        ]
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        rec = self.recorder
        for owner, attr, name, count, alloc in self.points:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if isinstance(original, functools.cached_property):
                wrapped = functools.cached_property(_traced(rec, name, original.func, count, alloc))
                wrapped.__set_name__(owner, attr)
            elif isinstance(original, property):
                wrapped = property(_traced(rec, name, original.fget, count, alloc))
            else:
                wrapped = _traced(rec, name, original, count, alloc)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# --- derived figures ----------------------------------------------------------


def pass_times(spans, pass_index: int) -> tuple[dict[str, float], dict[str, float], float]:
    """Inclusive time per span name, self time per span name, and top-level time.

    A span nested inside a span of the same name is not counted twice in the
    inclusive figure.  Self time is a span's duration minus its direct
    children's durations (one thread, so children never overlap).
    """
    rows = [(i, s) for i, s in enumerate(spans) if s[4] == pass_index]
    children: dict[int, float] = {}
    for _, (name, start, end, parent, _) in rows:
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + (end - start)
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    top = 0.0
    for i, (name, start, end, parent, _) in rows:
        duration = end - start
        self_time[name] = self_time.get(name, 0.0) + duration - children.get(i, 0.0)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] = inclusive.get(name, 0.0) + duration
        if parent < 0:
            top += duration
    return inclusive, self_time, top
