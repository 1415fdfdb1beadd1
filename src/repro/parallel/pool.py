"""Shared process-pool plumbing for the sweep and experiment runners.

One :class:`~concurrent.futures.ProcessPoolExecutor` per worker count,
created lazily and reused for the life of the process, so pool start-up
is paid once rather than per sweep.

The ``fork`` start method is preferred (cheap worker start, inherited
module state); platforms without it fall back to the default context.
Workers must nevertheless treat inherited globals as stale — e.g. the
offer-id counter is explicitly reseeded per job (see
:func:`repro.parallel.sweeps.run_job`).

Lifecycle hygiene: every pool is shut down at interpreter exit
(:func:`shutdown_pools` is idempotent and registered with ``atexit``
exactly once); a broken pool — a worker killed mid-task poisons a
``ProcessPoolExecutor`` permanently — is detected and replaced on the
next :func:`get_pool` call instead of failing every future forever.
Benchmarks call :func:`warm_pool` so worker spawn cost (the executor
forks lazily, on first submit) never lands inside a timed region.

Callers fall back to their serial path on :data:`POOL_UNAVAILABLE`
only; any other exception out of a future was raised by the job itself
and must propagate.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

__all__ = [
    "POOL_UNAVAILABLE",
    "available_cpus",
    "get_pool",
    "warm_pool",
    "run_chunks",
    "shutdown_pools",
]

#: What "the pool cannot run this" looks like: a worker died, the host
#: refused a process, or the task would not ship.
POOL_UNAVAILABLE = (BrokenProcessPool, OSError, pickle.PicklingError)

_POOLS: dict[int, ProcessPoolExecutor] = {}
_WARMED: set[int] = set()


def available_cpus() -> int:
    """Usable CPU count (1 when undetectable)."""
    return os.cpu_count() or 1


def _context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor for *workers* processes (created on demand).

    A previously created pool that has broken (worker death poisons the
    executor) is discarded and replaced, so one crashed task does not
    permanently disable parallelism for the rest of the process.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    pool = _POOLS.get(workers)
    if pool is not None and getattr(pool, "_broken", False):
        pool.shutdown(wait=False, cancel_futures=True)
        _POOLS.pop(workers, None)
        _WARMED.discard(workers)
        pool = None
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=_context())
        _POOLS[workers] = pool
    return pool


def _warm_task(seconds: float) -> int:
    """Hold a worker briefly so every process actually spawns."""
    time.sleep(seconds)
    return os.getpid()


def warm_pool(workers: int, hold: float = 0.02) -> ProcessPoolExecutor:
    """The shared pool with all *workers* processes started and idle.

    ``ProcessPoolExecutor`` forks workers lazily on submit, so a bare
    :func:`get_pool` leaves spawn cost inside the first caller's timed
    region.
    Each warm task holds its worker for *hold* seconds so one fast
    process cannot service the whole warm-up batch.
    """
    pool = get_pool(workers)
    if workers not in _WARMED:
        futures = [pool.submit(_warm_task, hold) for _ in range(workers)]
        for future in futures:
            future.result()
        _WARMED.add(workers)
    return pool


def run_chunks(workers: int, fn, chunk_args: list[tuple]) -> list:
    """Submit ``fn(*args)`` per chunk; results in submission order.

    One pool task per cost-balanced chunk, so scheduling overhead is
    paid per chunk rather than per item.  Exceptions propagate to the
    caller.
    """
    pool = get_pool(workers)
    futures = [pool.submit(fn, *args) for args in chunk_args]
    return [future.result() for future in futures]


def shutdown_pools() -> None:
    """Shut down every pool created so far (idempotent)."""
    _WARMED.clear()
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)
