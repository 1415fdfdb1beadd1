"""Process-pool helpers for running independent measurements.

Nothing here reaches into a trade: one trade is always one serial pass
through :class:`~repro.trading.trader.QueryTrader` (the paper's
parallelism — sellers pricing concurrently — is simulated on the
federation's clock, not executed in processes).  What runs in the pool
is whole, self-contained jobs: ``repro experiment <several ids>
--workers N`` farms whole experiments through
:func:`~repro.parallel.pool.get_pool`, one experiment per task.
"""

from repro.parallel.pool import (
    POOL_UNAVAILABLE,
    get_pool,
    shutdown_pools,
    warm_pool,
)

__all__ = [
    "POOL_UNAVAILABLE",
    "get_pool",
    "shutdown_pools",
    "warm_pool",
]
