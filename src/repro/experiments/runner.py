"""The experiment suite: memoized (application x algorithm x machine) runs.

Every table and figure in the paper's evaluation is a view over the same
underlying grid of simulations.  :class:`ExperimentSuite` owns that grid:
it builds each application once, analyzes it once, computes each placement
once and simulates each (application, algorithm, processors, cache) cell
once, memoizing everything in process.  :meth:`ExperimentSuite.prefetch`
delegates the whole grid to the :mod:`repro.exec` engine, which computes
the same cells on worker processes and seeds this memo with the results.

Machine sizing follows the paper: contexts per processor are nominally
⌈t/p⌉ ("all threads have been loaded into the hardware contexts"); when an
algorithm that does not thread-balance (LOAD-BAL, the "+LB" family)
produces a larger cluster, the machine is given exactly as many contexts
as the placement needs, and the nominal value is what configuration labels
report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import ArchConfig
from repro.arch.delta import speculate_from_neighbor, stash_speculation
from repro.arch.simulator import ENGINES, simulate
from repro.arch.stats import SimulationResult
from repro.experiments.cache import ResultStore, cell_store_key
from repro.placement.algorithms import algorithm_by_name
from repro.placement.base import PlacementInputs, PlacementMap
from repro.placement.dynamic import measure_coherence_matrix
from repro.topo.model import Topology, canonical_topology
from repro.trace.analysis import TraceSetAnalysis
from repro.trace.stream import TraceSet
from repro.workload.applications import DEFAULT_SCALE, build_application, spec_for
from repro.util.rng import RngStreams
from repro.util.validate import check_positive

__all__ = ["MachineSpec", "ExperimentSuite", "MissingCellError",
           "PROCESSOR_COUNTS"]


class MissingCellError(RuntimeError):
    """A requested cell is marked missing (its computation failed).

    Raised by :meth:`ExperimentSuite.run` for cells a degraded prefetch
    recorded in :attr:`ExperimentSuite.missing`.  Strict suites let it
    propagate; renderers over a non-strict suite catch it and show the
    cell as ``MISSING`` instead.
    """

#: The paper's processor axis (Table 3: 2-16 processors).
PROCESSOR_COUNTS: tuple[int, ...] = (2, 4, 8, 16)


@dataclass(frozen=True)
class MachineSpec:
    """One machine configuration label: (processors, nominal contexts)."""

    processors: int
    contexts: int

    def __str__(self) -> str:
        return f"{self.processors}p/{self.contexts}c"


class ExperimentSuite:
    """Memoized access to every simulation cell the evaluation needs.

    Args:
        scale: Workload scale (see :mod:`repro.workload.applications`).
        seed: Root seed for workload generation and the RANDOM placement.
        quantum_refs: Simulator scheduling quantum.
        random_replicates: RANDOM-baseline draws to average over.
        cache_dir: Optional directory for a persistent
            :class:`~repro.experiments.cache.ResultStore`, making repeated
            report/benchmark runs reuse each other's simulations.
        check_invariants: Audit every in-process simulation with the
            oracle's :class:`~repro.oracle.invariants.InvariantChecker`
            (``--check-invariants`` on the CLI).  Results are unchanged;
            cells served from a persistent store or by engine workers were
            not simulated here and are not re-audited.
        engine: Replay engine for every simulation —
            ``"classic"`` or ``"fast"`` (see
            :func:`repro.arch.simulator.simulate`).  The engines are
            bit-for-bit equivalent, so results, memo keys and the
            persistent store are engine-agnostic.
        speculate: Enable the incremental + speculative machinery: a
            cell whose placement is identical to one this suite already
            simulated (same application/machine) is a clone of that
            result (:func:`repro.arch.delta.speculate_from_neighbor`),
            and the placement search keeps incremental state
            (:func:`repro.placement.clustering.agglomerate` with
            ``incremental=True``).  Both are exact, so results are
            bit-for-bit identical either way (enforced by
            ``tests/speculation/``).  Disabled automatically under
            ``check_invariants`` (the oracle must audit real
            from-scratch runs).
        topology: Machine topology every cell simulates under — a
            :class:`~repro.topo.model.Topology`, a spec string
            (``numa:4:50:150``) or None.  Canonicalized on construction:
            the flat baseline collapses to None, so flat suites keep
            every pre-topology memo key, store key and report byte.
            Unlike ``engine`` this *is* identity — a tiered machine
            computes genuinely different results — so it extends memo
            keys and store keys (only when non-None).
        stream_chunk_refs: When set, every simulation replays the
            application's traces through the chunked streaming view
            (:func:`repro.trace.streaming.as_streaming` with this chunk
            size) instead of whole-column replay state.  Results are
            bit-for-bit identical (see ``docs/STREAMING.md``), so the
            setting is — like ``engine`` — excluded from memo keys, the
            persistent store and job identity.  Incompatible with
            ``check_invariants`` (the oracle audits whole-column state).
        strict: Failure policy for cells a parallel :meth:`prefetch`
            could not complete.  ``True`` (the default, the library
            behavior since PR 1): nothing is marked missing and a later
            :meth:`run` recomputes the cell sequentially.  ``False`` (the
            CLI's report path): failed cells land in :attr:`missing`, a
            subsequent :meth:`run` raises :class:`MissingCellError`, and
            every renderer degrades that cell to ``MISSING`` instead of
            re-risking a crash or hang at render time.
    """

    def __init__(
        self,
        *,
        scale: float = DEFAULT_SCALE,
        seed: int = 0,
        quantum_refs: int = 256,
        random_replicates: int = 3,
        cache_dir: str | None = None,
        check_invariants: bool = False,
        engine: str = "classic",
        strict: bool = True,
        speculate: bool = True,
        stream_chunk_refs: int | None = None,
        topology: Topology | str | None = None,
    ) -> None:
        check_positive("scale", scale)
        check_positive("random_replicates", random_replicates)
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}: expected one of {ENGINES}"
            )
        if stream_chunk_refs is not None:
            check_positive("stream_chunk_refs", stream_chunk_refs)
            if check_invariants:
                raise ValueError(
                    "stream_chunk_refs is incompatible with "
                    "check_invariants: the oracle audits whole-column "
                    "replay state (see repro.arch.simulator.simulate)"
                )
        self.scale = scale
        self.seed = seed
        self.quantum_refs = quantum_refs
        self.random_replicates = random_replicates
        self.cache_dir = cache_dir
        self.check_invariants = bool(check_invariants)
        self.engine = engine
        self.strict = bool(strict)
        self.speculate = bool(speculate)
        self.stream_chunk_refs = stream_chunk_refs
        #: Canonical topology (None = the flat baseline machine) and its
        #: spec string — the spelling that extends store keys.
        self.topology: Topology | None = canonical_topology(topology)
        self.topology_spec: str | None = (
            self.topology.spec if self.topology is not None else None
        )
        #: Cells a degraded prefetch failed to compute (memo-key tuples).
        self.missing: set[tuple] = set()
        #: Optional :class:`~repro.obs.probes.SimProbe` observing every
        #: simulation this suite runs in-process.  Deliberately not a
        #: constructor parameter: probes are runtime observation, not
        #: identity — they never affect results, memo keys or pickling
        #: (engine workers arm their own per-job probe).
        self.probe = None
        self._store = ResultStore(cache_dir) if cache_dir is not None else None
        if cache_dir is not None:
            # Share the persistent trace-analysis cache alongside the
            # result store: all cells, across processes and runs, compute
            # each trace's run compression exactly once.
            from pathlib import Path

            from repro.trace import analysis_cache

            analysis_cache.configure(Path(cache_dir) / "analysis")
        #: The in-process clone registry: ``(group, assignment bytes)``
        #: -> the result this suite simulated for that placement.  Within
        #: a group (application, processors, cache) the placement alone
        #: fixes the machine, so an identical key is an identical cell.
        self._simulated: dict[tuple, SimulationResult] = {}
        self._streams = RngStreams(seed).child("experiments")
        self._traces: dict[str, TraceSet] = {}
        #: Memoized streaming views of the materialized sets (only
        #: populated when ``stream_chunk_refs`` is set); memoizing keeps
        #: per-trace derived state (chunk digests) warm.
        self._stream_traces: dict[str, object] = {}
        self._analyses: dict[str, TraceSetAnalysis] = {}
        self._coherence: dict[str, np.ndarray] = {}
        self._placements: dict[tuple[str, str, int], PlacementMap] = {}
        self._results: dict[tuple, SimulationResult] = {}

    @property
    def store(self) -> ResultStore | None:
        """The persistent result store, if a cache_dir was configured."""
        return self._store

    def __reduce__(self):
        """Pickle as construction parameters only.

        A suite crossing a process boundary (engine workers, pools) must
        rebuild traces, analyses and placements from the spec in the
        receiving process — memoized ``TraceSet``s and results are
        per-process state and are never shipped or fork-shared.
        """
        return (
            _rebuild_suite,
            (self.scale, self.seed, self.quantum_refs,
             self.random_replicates, self.cache_dir, self.check_invariants,
             self.engine, self.speculate, self.stream_chunk_refs,
             self.topology_spec),
        )

    # ------------------------------------------------------------------
    # Workload access
    # ------------------------------------------------------------------

    def traces(self, app: str) -> TraceSet:
        """The application's generated trace set (memoized).

        With ``stream_chunk_refs`` set this returns the memoized chunked
        streaming view over the materialized columns instead; every
        consumer downstream (analysis, both engines, speculation)
        branches on the set's ``streaming`` flag and produces identical
        results.
        """
        name = spec_for(app).name
        if name not in self._traces:
            self._traces[name] = build_application(name, scale=self.scale,
                                                   seed=self.seed)
        if self.stream_chunk_refs is None:
            return self._traces[name]
        if name not in self._stream_traces:
            from repro.trace.streaming import as_streaming

            self._stream_traces[name] = as_streaming(
                self._traces[name], chunk_refs=self.stream_chunk_refs)
        return self._stream_traces[name]

    def analysis(self, app: str) -> TraceSetAnalysis:
        """The application's static analysis (memoized)."""
        name = spec_for(app).name
        if name not in self._analyses:
            self._analyses[name] = TraceSetAnalysis(self.traces(name))
        return self._analyses[name]

    def coherence_matrix(self, app: str) -> np.ndarray:
        """§4.2 measurement: one thread per processor, infinite cache."""
        name = spec_for(app).name
        if name not in self._coherence:
            self._coherence[name] = measure_coherence_matrix(self.traces(name))
        return self._coherence[name]

    def processors_for(self, app: str) -> list[int]:
        """Processor counts applicable to this application (p <= t; on a
        tiered suite, also divisible into the topology's groups)."""
        t = spec_for(app).num_threads
        groups = self.topology.groups if self.topology is not None else 1
        return [p for p in PROCESSOR_COUNTS if p <= t and p % groups == 0]

    def machine_specs(self, app: str) -> list[MachineSpec]:
        """The figures' X-axis: (processors, nominal contexts) pairs."""
        t = spec_for(app).num_threads
        return [MachineSpec(p, -(-t // p)) for p in self.processors_for(app)]

    # ------------------------------------------------------------------
    # Placements and simulations
    # ------------------------------------------------------------------

    def placement(
        self, app: str, algorithm: str, processors: int, *, replicate: int = 0
    ) -> PlacementMap:
        """The (memoized) placement of one cell.

        ``replicate`` only matters for RANDOM: each replicate draws an
        independent random map (the RANDOM baseline is averaged over
        :attr:`random_replicates` draws, so a single unlucky map cannot
        distort every normalized result — important for workloads like FFT
        whose few giant threads make single draws high-variance).
        """
        name = spec_for(app).name
        key = (name, algorithm.upper(), processors, replicate)
        if key not in self._placements:
            algo = algorithm_by_name(algorithm)
            inputs = PlacementInputs(
                self.analysis(name),
                processors,
                rng=self._streams.get("random-placement", name, processors,
                                      replicate),
                coherence_matrix=(
                    self.coherence_matrix(name)
                    if algo.name == "COHERENCE-TRAFFIC"
                    else None
                ),
                incremental=self.speculate and not self.check_invariants,
            )
            self._placements[key] = algo.place(inputs)
        return self._placements[key]

    def _machine(
        self,
        app: str,
        placement: PlacementMap,
        *,
        infinite: bool,
        associativity: int,
        cache_words: int | None,
    ) -> ArchConfig:
        spec = spec_for(app)
        nominal = -(-spec.num_threads // placement.num_processors)
        contexts = max(nominal, int(placement.cluster_sizes().max()))
        if cache_words is None:
            cache_words = (
                ArchConfig.INFINITE_CACHE_WORDS if infinite else spec.cache_words
            )
        return ArchConfig(
            num_processors=placement.num_processors,
            contexts_per_processor=contexts,
            cache_words=cache_words,
            associativity=associativity,
            topology=self.topology,
        )

    def run(
        self,
        app: str,
        algorithm: str,
        processors: int,
        *,
        infinite: bool = False,
        associativity: int = 1,
        cache_words: int | None = None,
        replicate: int = 0,
    ) -> SimulationResult:
        """Simulate one cell (memoized).

        Args:
            app: Application name.
            algorithm: Placement algorithm name (paper spelling).
            processors: Processor count.
            infinite: Use the §4.3 "effectively infinite" 8 MB cache.
            associativity: Cache ways (1 = the paper's direct-mapped).
            cache_words: Explicit cache size override (wins over
                ``infinite`` and the application default).
            replicate: RANDOM draw index (see :meth:`placement`).
        """
        name = spec_for(app).name
        key = (name, algorithm.upper(), processors, infinite, associativity,
               cache_words, replicate)
        if self.topology_spec is not None:
            key += (self.topology_spec,)
        if key in self.missing:
            raise MissingCellError(
                f"cell {key} failed during prefetch and is marked missing; "
                "re-run with --resume to retry it"
            )
        if key not in self._results:
            store_key = cell_store_key(
                scale=self.scale, seed=self.seed,
                quantum_refs=self.quantum_refs,
                app=name, algorithm=algorithm, processors=processors,
                infinite=infinite, associativity=associativity,
                cache_words=cache_words, replicate=replicate,
                topology=self.topology_spec,
            )
            stored = self._store.load(store_key) if self._store is not None else None
            if stored is not None:
                self._results[key] = stored
            else:
                placement = self.placement(name, algorithm, processors,
                                           replicate=replicate)
                config = self._machine(
                    name, placement, infinite=infinite,
                    associativity=associativity, cache_words=cache_words,
                )
                donor_key = ((name, processors, infinite, associativity,
                              cache_words), placement.assignment.tobytes())
                result = None
                if self.speculate and not self.check_invariants:
                    result = self._speculate(donor_key, name, placement,
                                             config)
                if result is None:
                    result = simulate(
                        self.traces(name), placement, config,
                        quantum_refs=self.quantum_refs,
                        check_invariants=self.check_invariants,
                        engine=self.engine,
                        probe=self.probe,
                    )
                    self._simulated[donor_key] = result
                if self._store is not None:
                    self._store.store(store_key, result)
                self._results[key] = result
        return self._results[key]

    def _speculate(self, donor_key: tuple, name: str,
                   placement: PlacementMap,
                   config: ArchConfig) -> SimulationResult | None:
        """Clone the result of an identical placement; None means replay.

        One registry lookup: a cell with no identical donor costs nothing
        more (no attempt, no event, no counter).  A hit bumps the probe's
        ``spec_*`` counters and leaves a ``clone`` event for the engine's
        invoke harness on the :func:`repro.arch.delta.take_speculation`
        channel.
        """
        donor = self._simulated.get(donor_key)
        if donor is None:
            return None
        if self.probe is not None:
            self.probe.spec_attempts += 1
        outcome = speculate_from_neighbor(
            self.traces(name), placement, config,
            neighbor_placement=placement, neighbor_result=donor,
        )
        if self.probe is not None:
            if outcome.hit:
                self.probe.spec_hits += 1
            else:
                self.probe.spec_aborts += 1
        stash_speculation({"speculation": outcome.mode,
                           "detail": outcome.detail})
        return outcome.result

    def prefetch(
        self,
        sections: list[str] | None = None,
        *,
        jobs: int = 1,
        timeout: float | None = None,
        hang_timeout: float | None = None,
        journal: str | None = None,
        resume: bool = False,
        max_retries: int = 2,
        backoff: float = 0.5,
        mp_context: str = "spawn",
        observer=None,
    ):
        """Precompute every cell the chosen sections need, in parallel.

        Delegates the sweep to the :mod:`repro.exec` engine: the cells are
        planned as content-addressed jobs, fanned out over ``jobs`` worker
        processes (with per-job ``timeout``, bounded retries and crash
        isolation), journaled to ``journal`` and — with ``resume`` — the
        journal-confirmed-complete cells of a killed run are skipped.
        With an ``observer`` (a :class:`~repro.obs.run.RunObserver`),
        the sweep additionally emits metrics, per-job trace spans and
        live progress — observation never changes the results.
        Successful results are inserted into this suite's memo, so
        subsequent :meth:`run` calls (and any report rendered from this
        suite) never simulate; a failed cell is reported in the returned
        :class:`~repro.exec.engine.RunReport` and simply falls back to the
        sequential path if later requested.

        Returns:
            The engine's :class:`~repro.exec.engine.RunReport` (results,
            failures, journal events and the aggregate
            :class:`~repro.exec.summary.RunSummary`).
        """
        from repro.exec import ExecutionEngine, plan_sections

        specs = plan_sections(
            sections,
            scale=self.scale, seed=self.seed,
            quantum_refs=self.quantum_refs,
            random_replicates=self.random_replicates,
            engine=self.engine,
            stream_chunk_refs=self.stream_chunk_refs,
            topology=self.topology_spec,
        )
        engine = ExecutionEngine(
            workers=jobs, timeout=timeout, hang_timeout=hang_timeout,
            max_retries=max_retries,
            backoff=backoff, store=self._store, journal_path=journal,
            resume=resume, mp_context=mp_context, observer=observer,
            speculate=self.speculate,
        )
        report = engine.run(specs)
        by_job = {spec.job_id: spec for spec in specs}
        for spec in specs:
            result = report.results.get(spec.job_id)
            if result is not None:
                self._results[spec.cell] = result
                self.missing.discard(spec.cell)
        if not self.strict:
            # Degraded mode: a cell the engine gave up on (retries
            # exhausted) renders as MISSING rather than being recomputed
            # sequentially — recomputing would re-risk the crash or hang
            # at render time, single-threaded and unjournaled.
            for failure in report.failures:
                spec = by_job.get(failure.job_id)
                if spec is not None:
                    self.missing.add(spec.cell)
        return report

    def execution_time(self, app: str, algorithm: str, processors: int,
                       **kwargs) -> float | None:
        """Execution time of one cell; RANDOM is averaged over replicates.

        On a non-strict suite, a cell marked missing yields None (the
        renderers' ``MISSING`` marker) instead of raising.
        """
        try:
            if algorithm.upper() == "RANDOM":
                times = [
                    self.run(app, algorithm, processors, replicate=r,
                             **kwargs).execution_time
                    for r in range(self.random_replicates)
                ]
                return float(np.mean(times))
            return float(
                self.run(app, algorithm, processors, **kwargs).execution_time
            )
        except MissingCellError:
            if self.strict:
                raise
            return None

    def normalized_time(
        self,
        app: str,
        algorithm: str,
        processors: int,
        *,
        baseline: str = "RANDOM",
        **kwargs,
    ) -> float | None:
        """Execution time normalized to a baseline algorithm (the figures'
        Y-axis; RANDOM for Figures 2-4, LOAD-BAL for Table 5).

        None (missing numerator *or* baseline, non-strict suites only)
        propagates to the caller's ``MISSING`` rendering.
        """
        ours = self.execution_time(app, algorithm, processors, **kwargs)
        reference = self.execution_time(app, baseline, processors, **kwargs)
        if ours is None or reference is None:
            return None
        return ours / reference if reference else float("inf")

    def missing_labels(self) -> list[str]:
        """Human-readable labels of the missing cells (sorted, stable)."""
        labels = []
        # Keys are 7-tuples on a flat suite, 8-tuples (trailing topology
        # spec) on a tiered one; the label fields sit at fixed positions.
        for key in sorted(self.missing, key=repr):
            app, algorithm, processors, infinite = key[:4]
            replicate = key[6]
            label = f"{app}/{algorithm}/{processors}p"
            if infinite:
                label += "/inf"
            if replicate:
                label += f"/r{replicate}"
            labels.append(label)
        return labels


def _rebuild_suite(scale, seed, quantum_refs, random_replicates, cache_dir,
                   check_invariants=False, engine="classic", speculate=True,
                   stream_chunk_refs=None, topology=None):
    """Unpickling target for :meth:`ExperimentSuite.__reduce__`."""
    return ExperimentSuite(
        scale=scale, seed=seed, quantum_refs=quantum_refs,
        random_replicates=random_replicates, cache_dir=cache_dir,
        check_invariants=check_invariants, engine=engine,
        speculate=speculate, stream_chunk_refs=stream_chunk_refs,
        topology=topology,
    )
