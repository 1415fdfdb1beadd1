"""Parallel execution of independent benchmark measurements.

The experiment suite is mostly a grid of *(world parameters, query,
runner)* points whose measurements never interact: each point builds a
fresh federation, a fresh network, and a fresh trader.  The only shared
mutable state is the module-global offer-id counter — which affects
``explain()`` strings, not measured quantities — so each job reseeds it
and becomes fully self-contained.  That makes the sweep embarrassingly
parallel *and* seed-stable: :func:`run_sweep` returns measurements in
job order regardless of worker count or completion order, and running
with ``workers=1`` executes the identical per-job code in-process.

Jobs must be picklable descriptions, not live objects: a
:class:`SweepJob` names a registered runner and carries plain kwargs for
``build_world`` and ``chain_query``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import repro.trading.commodity as commodity
from repro.bench import harness
from repro.parallel.partition import lpt_partition
from repro.parallel.pool import POOL_UNAVAILABLE, get_pool, run_chunks
from repro.workload import chain_query

__all__ = ["SweepJob", "RUNNERS", "run_sweep", "job_cost_hint"]


@dataclass(frozen=True)
class SweepJob:
    """One self-contained (world, query, runner) measurement point."""

    label: str
    runner: str  # key into RUNNERS
    world: dict = field(default_factory=dict)  # build_world kwargs
    query: dict = field(default_factory=dict)  # chain_query kwargs
    run: dict = field(default_factory=dict)  # runner kwargs

    def __post_init__(self) -> None:
        if self.runner not in RUNNERS:
            raise ValueError(
                f"unknown runner {self.runner!r}; "
                f"registered: {sorted(RUNNERS)}"
            )


#: Runner table (extendable by callers); keys are what
#: :attr:`SweepJob.runner` names.
RUNNERS: dict[str, Callable] = {
    "qt": harness.run_qt,
    "qt_faulty": harness.run_qt_faulty,
    "distdp": harness.run_distdp,
    "distidp": harness.run_distidp,
    "mariposa": harness.run_mariposa,
}


def run_job(job: SweepJob):
    """Execute one job from scratch (fresh world, reseeded offer ids)."""
    commodity._offer_ids = itertools.count(1)
    # Clear any fork-inherited offer-id scope: a pool forked inside
    # one would shadow the reseeded counter above.
    commodity._scoped_offer_ids.set(None)
    world = harness.build_world(**job.world)
    query = chain_query(**job.query)
    measurement = RUNNERS[job.runner](world, query, **job.run)
    measurement.optimizer = job.label or measurement.optimizer
    return measurement


def job_cost_hint(job: SweepJob) -> float:
    """Rough relative cost of one job (for chunk balancing only).

    Join-order search dominates a measurement, and its frontier grows
    with the query's relation count and the catalog's fragment fan-out;
    ``2**n_relations * fragments`` tracks that well enough for LPT to
    separate 12-join monsters from 4-join warm-ups.  Hints steer *where*
    jobs run, never what they compute, so a bad estimate costs balance,
    not correctness.
    """
    n_relations = job.query.get("n_relations", 1)
    fragments = job.world.get("fragments", 4)
    return float(2**n_relations * fragments)


def _run_job_chunk(jobs: Sequence[SweepJob]) -> list:
    return [run_job(job) for job in jobs]


def run_sweep(jobs: Sequence[SweepJob], workers: int = 1) -> list:
    """All jobs' measurements, in job order.

    With ``workers > 1`` the jobs run concurrently in the shared process
    pool; results are gathered in submission order, so the output is
    identical to the serial run (same jobs, same order, same values).
    Long sweeps (``len(jobs) >= 4 * workers``) are LPT-chunked by
    :func:`job_cost_hint` so one task's scheduling overhead is paid per
    chunk rather than per job and heavy jobs spread across workers
    first; short sweeps keep one task per job for maximum overlap.
    An unavailable pool (:data:`~repro.parallel.pool.POOL_UNAVAILABLE`)
    falls back to in-process execution; an exception raised by a job
    itself propagates.
    """
    jobs = list(jobs)
    if workers <= 1 or len(jobs) < 2:
        return [run_job(job) for job in jobs]
    try:
        if len(jobs) >= 4 * workers:
            chunk_indices = lpt_partition(
                [job_cost_hint(job) for job in jobs], workers
            )
            results: list = [None] * len(jobs)
            chunk_results = run_chunks(
                min(workers, len(chunk_indices)),
                _run_job_chunk,
                [([jobs[i] for i in group],) for group in chunk_indices],
            )
            for group, measurements in zip(chunk_indices, chunk_results):
                for i, measurement in zip(group, measurements):
                    results[i] = measurement
            return results
        pool = get_pool(min(workers, len(jobs)))
        futures = [pool.submit(run_job, job) for job in jobs]
        return [future.result() for future in futures]
    except POOL_UNAVAILABLE:
        return [run_job(job) for job in jobs]
