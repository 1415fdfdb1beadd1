"""Shared experiment plumbing: build federations, run optimizers, format
the tables the paper-style experiment suite reports.

Every runner returns a :class:`Measurement` with the three quantities the
paper's evaluation revolves around:

* ``optimization_time`` — *simulated* seconds spent optimizing (message
  delays + per-node compute charged from enumerated-plan counts; fully
  deterministic and machine-independent),
* ``messages`` — exchanged network messages,
* ``plan_cost`` — the estimated response time of the produced plan under
  the shared ground-truth cost model (comparable across optimizers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.baselines import (
    DistributedDPOptimizer,
    DistributedIDPOptimizer,
    MariposaBroker,
)
from repro.catalog import Catalog, FederationConfig, build_federation
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RenegotiationPolicy,
    ResilientTrader,
)
from repro.cost import (
    CardinalityEstimator,
    CostModel,
    NodeCapabilities,
    stats_for_catalog,
)
from repro.net import Network
from repro.optimizer import PlanBuilder
from repro.sql.query import SPJQuery
from repro.trading import (
    BiddingProtocol,
    BuyerPlanGenerator,
    BuyerStrategy,
    NegotiationProtocol,
    OfferCache,
    QueryTrader,
    SellerAgent,
    SellerStrategy,
)

__all__ = [
    "World",
    "Measurement",
    "build_world",
    "run_qt",
    "run_qt_faulty",
    "run_distdp",
    "run_distidp",
    "run_mariposa",
    "format_table",
]

BUYER = "client"

@dataclass
class World:
    """A federation ready for optimizing: catalog + costing plumbing."""

    catalog: Catalog
    nodes: list[str]
    builder: PlanBuilder
    model: CostModel
    offer_cache: OfferCache | None = None

    def seller_agents(
        self,
        strategy_factory: Callable[[str], SellerStrategy] | None = None,
        **agent_kwargs,
    ) -> dict[str, SellerAgent]:
        """Fresh agents per run, sharing the world's offer cache.

        Sharing one cache across runs over the same world is what makes
        repeated-trade experiments benefit from prior pricing work; pass
        ``offer_cache=...`` (or ``use_offer_cache=False``) explicitly to
        override.
        """
        agents: dict[str, SellerAgent] = {}
        if "offer_cache" not in agent_kwargs:
            agent_kwargs = {**agent_kwargs, "offer_cache": self.offer_cache}
        for node in self.nodes:
            if node == BUYER:
                continue
            strategy = strategy_factory(node) if strategy_factory else None
            agents[node] = SellerAgent(
                self.catalog.local(node),
                self.builder,
                strategy=strategy,
                **agent_kwargs,
            )
        return agents


def build_world(
    nodes: int = 12,
    n_relations: int = 6,
    rows: int = 10_000,
    fragments: int = 4,
    replicas: int = 2,
    seed: int = 7,
    capabilities: Mapping[str, NodeCapabilities] | None = None,
) -> World:
    """A uniform synthetic federation with shared costing machinery."""
    config = FederationConfig.uniform(
        nodes=nodes,
        n_relations=n_relations,
        rows=rows,
        fragments=fragments,
        replicas=replicas,
        seed=seed,
    )
    catalog, node_list = build_federation(config)
    estimator = CardinalityEstimator(stats_for_catalog(catalog), catalog.schemas)
    model = CostModel()
    builder = PlanBuilder(
        estimator, model, capabilities=capabilities, schemes=catalog.schemes
    )
    return World(
        catalog=catalog,
        nodes=node_list,
        builder=builder,
        model=model,
        offer_cache=OfferCache(),
    )


@dataclass
class Measurement:
    """One optimizer run's reportable quantities."""

    optimizer: str
    found: bool
    plan_cost: float
    optimization_time: float
    messages: int
    iterations: int = 1
    offers: int = 0
    payments: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    # Fault/resilience accounting (zero for fault-free runs).
    dropped: int = 0
    duplicated: int = 0
    retried: int = 0
    timeouts: int = 0
    renegotiations: int = 0
    degradation: float | None = None  # vs the fault-free reference cost
    # Rendered plan (``explain()``), when one was found.  The
    # equivalence suites compare it byte-for-byte.
    plan_explain: str | None = None

    def row(self) -> list:
        return [
            self.optimizer,
            f"{self.plan_cost:.4f}" if self.found else "-",
            f"{self.optimization_time:.4f}",
            self.messages,
        ]


def run_qt(
    world: World,
    query: SPJQuery,
    mode: str = "dp",
    protocol: NegotiationProtocol | None = None,
    strategy_factory: Callable[[str], SellerStrategy] | None = None,
    buyer_strategy: BuyerStrategy | None = None,
    label: str | None = None,
    valuation=None,
    max_iterations: int = 6,
    subcontracting: bool = False,
    workers: int | None = None,
    tracer=None,
    **agent_kwargs,
) -> Measurement:
    """Run the QT optimizer over a fresh network; return its measurement.

    Pass a :class:`repro.obs.Tracer` as *tracer* to record the
    negotiation (the trader wires it through every layer).
    """
    # *workers* is accepted and ignored: the frozen benchmark
    # (benchmarks/e2e/trade.py::_parallel_speedup) still passes it.  It
    # goes when a benchmark PR drops that function and the two
    # ``parallel.*`` per-layer metrics.
    from repro.trading import Subcontractor

    network = Network(world.model)
    if tracer is not None:
        network.attach_tracer(tracer)
    sellers = world.seller_agents(strategy_factory, **agent_kwargs)
    if subcontracting:
        for node, agent in sellers.items():
            agent.subcontractor = Subcontractor(network=network)
            agent.subcontractor.connect(
                {m: peer for m, peer in sellers.items() if m != node}, network
            )
    plangen = BuyerPlanGenerator(
        world.builder, BUYER, mode=mode, valuation=valuation
    )
    trader = QueryTrader(
        BUYER,
        sellers,
        network,
        plangen,
        protocol=protocol,
        buyer_strategy=buyer_strategy,
        valuation=valuation,
        max_iterations=max_iterations,
    )
    result = trader.optimize(query)
    name = label or (
        f"qt-{mode}" + (f"+{protocol.name}" if protocol else "")
    )
    return Measurement(
        optimizer=name,
        found=result.found,
        plan_cost=result.plan_cost if result.found else float("inf"),
        optimization_time=result.optimization_time,
        messages=result.messages.messages,
        iterations=result.iterations,
        offers=result.offers_considered,
        payments=result.total_payment,
        cache_hits=result.cache.hits,
        cache_misses=result.cache.misses,
        plan_explain=result.best.plan.explain() if result.found else None,
    )


def run_qt_faulty(
    world: World,
    query: SPJQuery,
    fault_plan: FaultPlan,
    timeout: float | None = 0.05,
    max_retries: int = 2,
    backoff: float = 2.0,
    mode: str = "dp",
    label: str | None = None,
    baseline_cost: float | None = None,
    policy: RenegotiationPolicy | None = None,
    max_iterations: int = 6,
    tracer=None,
    **agent_kwargs,
) -> Measurement:
    """Run QT under *fault_plan* with the full resilience stack engaged.

    The negotiation runs behind a :class:`FaultInjector` built from the
    plan, the bidding protocol gets round deadlines (*timeout*, with
    exponential-backoff re-issue), and a :class:`ResilientTrader`
    renegotiates contracts whose winners crash before delivery.  Pass
    ``baseline_cost`` (the fault-free plan cost) to have the measurement
    report plan degradation.
    """
    network = Network(world.model)
    if tracer is not None:
        network.attach_tracer(tracer)
    injector = FaultInjector(fault_plan)
    network.install_faults(injector)
    sellers = world.seller_agents(None, **agent_kwargs)
    protocol = BiddingProtocol(
        timeout=timeout, max_retries=max_retries, backoff=backoff
    )
    plangen = BuyerPlanGenerator(world.builder, BUYER, mode=mode)
    trader = QueryTrader(
        BUYER,
        sellers,
        network,
        plangen,
        protocol=protocol,
        max_iterations=max_iterations,
    )
    resilient = ResilientTrader(
        trader, injector, policy=policy, fault_free_cost=baseline_cost
    )
    result = resilient.optimize(query)
    summary = result.resilience
    return Measurement(
        optimizer=label or f"qt-{mode}+faults",
        found=result.found,
        plan_cost=result.plan_cost if result.found else float("inf"),
        optimization_time=result.optimization_time,
        messages=result.messages.messages,
        iterations=result.iterations,
        offers=result.offers_considered,
        payments=result.total_payment,
        cache_hits=result.cache.hits,
        cache_misses=result.cache.misses,
        dropped=result.messages.dropped,
        duplicated=result.messages.duplicated,
        retried=result.messages.retried,
        timeouts=summary.timeouts_fired,
        renegotiations=summary.renegotiations,
        degradation=summary.degradation,
        plan_explain=result.best.plan.explain() if result.found else None,
    )


def run_distdp(world: World, query: SPJQuery) -> Measurement:
    network = Network(world.model)
    opt = DistributedDPOptimizer(world.catalog, world.builder, BUYER)
    result = opt.optimize(query, network=network)
    return Measurement(
        optimizer=opt.name,
        found=result.found,
        plan_cost=result.plan_cost if result.found else float("inf"),
        optimization_time=result.optimization_time,
        messages=result.messages.messages,
    )


def run_distidp(
    world: World, query: SPJQuery, k: int = 2, m: int = 5
) -> Measurement:
    network = Network(world.model)
    opt = DistributedIDPOptimizer(world.catalog, world.builder, BUYER, k=k, m=m)
    result = opt.optimize(query, network=network)
    return Measurement(
        optimizer=opt.name,
        found=result.found,
        plan_cost=result.plan_cost if result.found else float("inf"),
        optimization_time=result.optimization_time,
        messages=result.messages.messages,
    )


def run_mariposa(world: World, query: SPJQuery) -> Measurement:
    network = Network(world.model)
    sellers = world.seller_agents()
    broker = MariposaBroker(BUYER, sellers, network, world.builder)
    result = broker.optimize(query)
    return Measurement(
        optimizer=broker.name,
        found=result.found,
        plan_cost=result.plan_cost if result.found else float("inf"),
        optimization_time=result.optimization_time,
        messages=result.messages.messages,
    )


def format_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence]
) -> str:
    """Fixed-width ASCII table (what the benchmark harness prints)."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [
        title,
        "=" * len(title),
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        sep,
    ]
    for row in rendered:
        lines.append(
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)
