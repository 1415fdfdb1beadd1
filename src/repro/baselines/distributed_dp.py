"""System-R-style distributed dynamic programming (R*-lineage baseline).

A centralized optimizer with *full catalog knowledge*: it knows every
fragment's placement, statistics, and every node's capabilities, and
enumerates — per relation subset — the best plan *per candidate execution
site*, inserting transfers where data must move.  Its two structural
costs, which QT avoids, are exactly what the experiments measure:

* **statistics synchronization** — before optimizing it must collect
  placement/statistics from every federation node (2 messages per node);
  an autonomous node under churn would have to repeat this constantly;
* **centralized placement enumeration** — the DP state space is
  ``subsets × candidate sites``, so optimization time grows with both
  query size and how widely the data is spread, and all of that work is
  serial at the optimizing site (sellers can't price sub-plans for it in
  parallel).

Optimization effort is charged to the optimizing node's simulated
timeline via the enumerated-plan count, like every optimizer here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.catalog.catalog import Catalog
from repro.net.messages import Message, MessageKind
from repro.net.simulator import Network, NetworkStats
from repro.optimizer.greedy import greedy_join
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.plans import Plan, PlanBuilder
from repro.sql.expr import TRUE, conjoin, implies, restriction_overlaps
from repro.sql.query import Aggregate, SPJQuery

__all__ = ["BaselineResult", "DistributedDPOptimizer"]

DEFAULT_SECONDS_PER_PLAN = 5e-5


@dataclass
class BaselineResult:
    """Outcome of a traditional-optimizer run (comparable to QT's)."""

    query: SPJQuery
    plan: Plan | None
    enumerated: int = 0
    optimization_time: float = 0.0
    messages: NetworkStats = field(default_factory=NetworkStats)

    @property
    def found(self) -> bool:
        return self.plan is not None

    @property
    def plan_cost(self) -> float:
        if self.plan is None:
            raise ValueError("no plan found")
        return self.plan.response_time()


class DistributedDPOptimizer:
    """Exhaustive distributed DP over (alias subset, execution site)."""

    name = "dist-dp"

    def __init__(
        self,
        catalog: Catalog,
        builder: PlanBuilder,
        buyer: str,
        seconds_per_plan: float = DEFAULT_SECONDS_PER_PLAN,
        max_relations: int = 12,
    ):
        self.catalog = catalog
        self.builder = builder
        self.buyer = buyer
        self.seconds_per_plan = seconds_per_plan
        self.max_relations = max_relations

    # -- hooks -------------------------------------------------------------
    def prune_level(
        self,
        level: int,
        best: dict[tuple[frozenset[str], str], Plan],
    ) -> None:
        """Level-completion hook; exhaustive DP keeps everything."""

    # ------------------------------------------------------------------
    def interesting_sites(self, query: SPJQuery) -> list[str]:
        """Candidate execution sites: fragment holders plus the buyer."""
        sites = {self.buyer}
        for ref in query.relations:
            scheme = self.catalog.scheme(ref.name)
            for fragment in scheme.fragments:
                sites |= self.catalog.holders(ref.name, fragment.fragment_id)
        return sorted(sites)

    def required_fragments(self, query: SPJQuery) -> dict[str, frozenset[int]]:
        required: dict[str, frozenset[int]] = {}
        for ref in query.relations:
            scheme = self.catalog.scheme(ref.name)
            selection = query.selection_on(ref.alias)
            required[ref.alias] = frozenset(
                f.fragment_id
                for f in scheme.fragments
                if restriction_overlaps(selection, f.restriction_for(ref.alias))
            )
        return required

    # ------------------------------------------------------------------
    def optimize(
        self, query: SPJQuery, network: Network | None = None
    ) -> BaselineResult:
        """Optimize *query*; books stats messages and compute on *network*."""
        aliases = sorted(query.aliases)
        if len(aliases) > self.max_relations:
            raise ValueError(
                f"{len(aliases)}-relation query exceeds baseline DP limit"
            )
        start_time = network.now if network is not None else 0.0
        start_stats = (
            network.stats.snapshot() if network is not None else NetworkStats()
        )
        if network is not None:
            self._collect_statistics(network)

        alias_to_relation = {r.alias: r.name for r in query.relations}
        conjuncts = query.predicate.conjuncts()
        sites = self.interesting_sites(query)
        required = self.required_fragments(query)
        if any(not fids for fids in required.values()):
            return BaselineResult(query=query, plan=None)
        enumerated = 0
        best: dict[tuple[frozenset[str], str], Plan] = {}

        # Level 1: per-alias access paths at every candidate site.
        for alias in aliases:
            ref = query.relation_for(alias)
            plans, count = self._access_paths(
                query, ref.alias, required[ref.alias], sites, alias_to_relation
            )
            enumerated += count
            for site, plan in plans.items():
                best[(frozenset((alias,)), site)] = plan
        self.prune_level(1, best)

        # Levels 2..n (cross-product avoidance: disconnected subsets of a
        # connected query are never enumerated).
        graph = JoinGraph(aliases, conjuncts)
        n = graph.n
        query_connected = graph.is_connected
        by_size = graph.subsets_by_size(connected_only=query_connected)
        for size in range(2, n + 1):
            for mask in by_size[size]:
                subset = graph.aliases_of(mask)
                splits = [
                    (graph.connecting(left, right),
                     graph.aliases_of(left),
                     graph.aliases_of(right))
                    for left, right in graph.splits(mask)
                ]
                for connected_pass in (True, False):
                    found_any = False
                    for connecting, left, right in splits:
                        if bool(connecting) != connected_pass:
                            continue
                        for site in sites:
                            left_plan = self._delivered(best, left, site)
                            right_plan = self._delivered(best, right, site)
                            if left_plan is None or right_plan is None:
                                continue
                            joined = self.builder.join(
                                left_plan,
                                right_plan,
                                connecting,
                                alias_to_relation,
                                site=site,
                            )
                            enumerated += 1
                            found_any = True
                            key = (subset, site)
                            if (
                                key not in best
                                or joined.response_time()
                                < best[key].response_time()
                            ):
                                best[key] = joined
                    if found_any:
                        break
            self.prune_level(size, best)

        full = frozenset(aliases)
        plan = self._delivered(best, full, self.buyer)
        if plan is None:
            plan, extra = self._greedy_fallback(
                query, best, full, alias_to_relation
            )
            enumerated += extra
        if plan is not None:
            plan = self._finish(query, plan, alias_to_relation)

        optimization_time = enumerated * self.seconds_per_plan
        if network is not None:
            finish = network.compute(self.buyer, optimization_time)
            network.sim.schedule_at(finish, lambda: None)
            network.run()
            return BaselineResult(
                query=query,
                plan=plan,
                enumerated=enumerated,
                optimization_time=network.now - start_time,
                messages=network.stats.delta_since(start_stats),
            )
        return BaselineResult(
            query=query,
            plan=plan,
            enumerated=enumerated,
            optimization_time=optimization_time,
        )

    # ------------------------------------------------------------------
    def _collect_statistics(self, network: Network) -> None:
        """Statistics/placement synchronization with every node.

        Traditional optimizers need the global catalog before they can
        cost anything; each node answers one request.  (QT sends none of
        these.)
        """

        def _sink(_net: Network, message: Message) -> None:
            if message.kind is MessageKind.STATS_REQUEST:
                _net.send(
                    Message(
                        MessageKind.STATS_RESPONSE,
                        message.recipient,
                        message.sender,
                        None,
                    )
                )

        nodes = sorted(self.catalog.nodes)
        for node in nodes:
            network.register(node, _sink, replace=True)
        network.broadcast(self.buyer, nodes, MessageKind.STATS_REQUEST, None)
        network.run()

    def _access_paths(
        self,
        query: SPJQuery,
        alias: str,
        fragments: frozenset[int],
        sites: Sequence[str],
        alias_to_relation: Mapping[str, str],
    ) -> tuple[dict[str, Plan], int]:
        """Best way to produce *alias*'s required fragments at each site.

        Per fragment the optimizer considers every replica holder and
        scans at the cheapest one (counting each considered replica as an
        enumerated access path); fragment parts are unioned at the target
        site.
        """
        ref = query.relation_for(alias)
        scheme = self.builder.schemes[ref.name]
        restriction = scheme.restriction_for(alias, fragments)
        selection_parts = [
            c
            for c in query.selection_on(alias).conjuncts()
            if restriction is TRUE or not implies(restriction, c)
        ]
        selection = conjoin(selection_parts)
        enumerated = 0
        plans: dict[str, Plan] = {}
        for site in sites:
            parts: list[Plan] = []
            for fid in sorted(fragments):
                holders = sorted(self.catalog.holders(ref.name, fid))
                candidates = []
                for holder in holders:
                    scan = self.builder.scan(
                        ref, (fid,), selection, holder, alias_to_relation
                    )
                    candidates.append(
                        self.builder.collocate(scan, site)
                    )
                    enumerated += 1
                parts.append(
                    min(candidates, key=lambda p: p.response_time())
                )
            plans[site] = self.builder.union(parts, site)
            enumerated += 1
        return plans, enumerated

    def _delivered(
        self,
        best: Mapping[tuple[frozenset[str], str], Plan],
        subset: frozenset[str],
        site: str,
    ) -> Plan | None:
        """Cheapest plan for *subset* with its result available at *site*."""
        candidates: list[Plan] = []
        for (entry_subset, entry_site), plan in best.items():
            if entry_subset != subset:
                continue
            candidates.append(self.builder.collocate(plan, site))
        if not candidates:
            return None
        return min(candidates, key=lambda p: p.response_time())

    def _greedy_fallback(
        self,
        query: SPJQuery,
        best: Mapping[tuple[frozenset[str], str], Plan],
        full: frozenset[str],
        alias_to_relation: Mapping[str, str],
    ) -> tuple[Plan | None, int]:
        """Assemble a plan at the buyer from maximal disjoint sub-plans
        when pruning removed every exact assembly path."""
        parts: dict[frozenset[str], Plan] = {}
        covered: frozenset[str] = frozenset()
        subsets = sorted(
            {s for s, _site in best}, key=lambda s: (-len(s), sorted(s))
        )
        for subset in subsets:
            if subset & covered or not subset <= full:
                continue
            delivered = self._delivered(best, subset, self.buyer)
            if delivered is None:
                continue
            parts[subset] = delivered
            covered |= subset
            if covered == full:
                break
        if covered != full:
            return None, 0
        return greedy_join(
            parts,
            query.predicate.conjuncts(),
            alias_to_relation,
            self.builder,
            self.buyer,
        )

    def _finish(
        self,
        query: SPJQuery,
        plan: Plan,
        alias_to_relation: Mapping[str, str],
    ) -> Plan:
        plan = self.builder.collocate(plan, self.buyer)
        if query.has_aggregates or query.group_by:
            aggregates = tuple(
                p for p in query.projections if isinstance(p, Aggregate)
            )
            plan = self.builder.aggregate(
                plan, query.group_by, aggregates, alias_to_relation,
                site=self.buyer,
            )
        if query.order_by:
            plan = self.builder.sort(plan, query.order_by)
        return plan
