"""Process-pool helpers for running independent measurements.

Nothing here reaches into a trade: one trade is always one serial pass
through :class:`~repro.trading.trader.QueryTrader` (the paper's
parallelism — sellers pricing concurrently — is simulated on the
federation's clock, not executed in processes).  What runs in the pool
is whole, self-contained jobs:

* :func:`~repro.parallel.sweeps.run_sweep` — executes independent
  (world, query, axis-point) benchmark measurements concurrently with
  job-stable result ordering, LPT-chunking long sweeps by cost hints
  (:func:`~repro.parallel.partition.lpt_partition`);
* ``repro experiment <several ids> --workers N`` — farms whole
  experiments through :func:`~repro.parallel.pool.get_pool`.
"""

from repro.parallel.partition import lpt_partition
from repro.parallel.pool import (
    POOL_UNAVAILABLE,
    available_cpus,
    get_pool,
    run_chunks,
    shutdown_pools,
    warm_pool,
)
from repro.parallel.sweeps import RUNNERS, SweepJob, job_cost_hint, run_sweep

__all__ = [
    "POOL_UNAVAILABLE",
    "RUNNERS",
    "SweepJob",
    "available_cpus",
    "get_pool",
    "job_cost_hint",
    "lpt_partition",
    "run_chunks",
    "run_sweep",
    "shutdown_pools",
    "warm_pool",
]
