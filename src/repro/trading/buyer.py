"""The buyer node: plan generator and predicates analyser (§3.6–3.7).

**Plan generation** is an answering-queries-using-views problem: combine
purchased query-answers (each covering a subset of the query's relations
restricted to a set of horizontal fragments) into a plan computing the
original query.  Full generality is NP-complete; like the paper we search
the *fragment-aligned* space with dynamic programming:

* an **entry** stands for a plan producing the rows of an alias subset
  ``S`` restricted to a fragment *rectangle* (one fragment set per
  alias);
* two entries over disjoint subsets **join** (the original query's
  connecting conjuncts apply);
* two entries over the same subset **union** when their rectangles agree
  everywhere except one alias, where they are disjoint — join distributes
  over union, so the result is the rectangle with that alias's fragment
  sets merged;
* an entry is **final** when its rows are already the query's answer
  shape (a seller shipped the original projections — e.g. fragment-
  aligned partial aggregates); raw entries get the buyer's own
  aggregation/sort glue on top.

Inside one ``generate`` call a rectangle is a single ``int`` (see
:class:`_Rectangles`), so "may these union" is an XOR and a merge is an
``|``.  An entry is numbers plus operands: the rows, site and response
time of its plan, the money and freshness of its purchased leaves, its
score under the buyer's valuation (:meth:`Valuation.score`, computed
once, with the entry), and the two entries it joins or unions.  The
numbers come from the plan builder's own arithmetic
(:meth:`PlanBuilder.join_cost`, :meth:`PlanBuilder.union_cost`,
:func:`fold_response_time`), so they are bit-equal to the node's; the
node itself is built on demand — operands first — only for the
complete entries handed out as candidate plans.

**Rounds.**  The trader reruns plan generation after every round of
bids, handing the previous round's result in as ``prior``.  A pass
seeds its buckets from the offers as always.  If every bucket then
holds entries of the prior's offers — the *same objects*, in the
prior's order — everything after seeding would repeat the prior's
work, so the pass returns the prior's candidates; otherwise it runs in
full.  Offers are immutable, and one displaced under its key is a new
object, so identity is enough.  Either way the pass counts in
``enumerated`` what a pass without ``prior`` counts.

The buyer-side DP can also run in IDP-M(2, m) mode ("after evaluating all
2-way join sub-plans, it keeps the best five of them"), the paper's
scalable variant.

**The predicates analyser** enriches the next round's query set Q: it
asks the market for the *complements* of partially covered relations,
de-overlaps redundant offers (the paper's union-redundancy example), and
emits sort-free variants of ORDER BY queries.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.plans import (
    Plan,
    PlanBuilder,
    Purchased,
    fold_response_time,
)
from repro.sql.expr import Expr, TRUE, conjoin, restriction_overlaps
from repro.sql.query import Aggregate, SPJQuery
from repro.sql.schema import PartitionScheme
from repro.trading.commodity import AnswerProperties, Offer
from repro.trading.valuation import Valuation, WeightedValuation

__all__ = [
    "BuyerPlanGenerator",
    "BuyerPredicatesAnalyser",
    "CandidatePlan",
    "PlanGenResult",
]

RAW = "raw"
FINAL = "final"


class _Rectangles:
    """One query's fragment rectangles packed into ints.

    Each alias owns one bit field (aliases in ``JoinGraph`` bit order)
    with one bit per *required* fragment in ascending id order, so the
    lowest set bit of a field is that alias's smallest fragment.  An
    alias outside a rectangle has an empty field; an alias inside it
    never does.  Built per ``generate`` call — the layout depends on the
    query — and never stored on the generator.
    """

    __slots__ = ("_bits", "_fields", "_field_at")

    def __init__(
        self,
        aliases: Sequence[str],
        required: Mapping[str, frozenset[int]],
    ):
        #: alias -> {fragment id: its bit}
        self._bits: dict[str, dict[int, int]] = {}
        #: alias index -> mask of that alias's field
        self._fields: list[int] = []
        #: bit position -> mask of the field holding it
        self._field_at: list[int] = []
        offset = 0
        for alias in aliases:
            fids = sorted(required[alias])
            self._bits[alias] = {
                fid: 1 << (offset + i) for i, fid in enumerate(fids)
            }
            field = ((1 << len(fids)) - 1) << offset
            self._fields.append(field)
            self._field_at.extend([field] * len(fids))
            offset += len(fids)

    def encode(self, coverage: Mapping[str, Iterable[int]]) -> int:
        """The rectangle of *coverage* (required fragments only)."""
        rect = 0
        for alias, fids in coverage.items():
            bits = self._bits[alias]
            for fid in fids:
                rect |= bits[fid]
        return rect

    def required(self, subset: int) -> int:
        """The rectangle holding every required fragment of the alias
        subset *subset* (a ``JoinGraph`` mask): an entry over *subset* is
        complete exactly when its rectangle equals this."""
        rect = 0
        for i in JoinGraph.bits(subset):
            rect |= self._fields[i]
        return rect

    def partners(
        self, rect: int, entries: Iterable[_Entry], leading: bool = False
    ) -> Iterator[_Entry]:
        """The entries of *entries*, in order, that may union with an
        entry of rectangle *rect* over the same aliases: the two agree on
        every alias but one and are disjoint there.  Join distributes
        over union only under this condition; the union's rectangle is
        the ``|`` of the two.  With *leading*, only the partners *rect*
        leads — it holds the lowest fragment bit on which the two differ,
        i.e. the smaller minimum fragment on the differing alias, which
        makes it the canonical left operand."""
        field_at = self._field_at
        for entry in entries:
            other = entry.rect
            differ = rect ^ other
            if not differ:
                continue  # identical rectangles: union would double-count
            pivot = differ & -differ
            if leading and not rect & pivot:
                continue
            field = field_at[pivot.bit_length() - 1]
            if differ & ~field or rect & other & field:
                continue  # a second alias differs, or fragments overlap
            yield entry

    def candidates(
        self, rect: int, limit: int, leading: bool = False
    ) -> list[int] | None:
        """Every rectangle over *rect*'s aliases that :meth:`partners`
        would accept for *rect* (with the same *leading*), in no
        particular order, or ``None`` when there are *limit* or more.

        A partner differs from *rect* on exactly one alias field ``f``
        and is disjoint from it there, so it is ``rect & ~f | s`` for a
        non-empty set ``s`` of the fragments of ``f`` that *rect* lacks
        (with *leading*, only those above *rect*'s lowest fragment on
        ``f``).  The count, Σ(2^k − 1) over the fields, comes from bit
        counts before any candidate is built, so a wide field costs
        nothing here."""
        free = []
        total = 0
        for field in self._fields:
            own = rect & field
            if not own:
                continue  # an alias outside the rectangle
            lacking = field ^ own
            if leading:
                lacking &= -(own & -own)  # above own's lowest bit
            if lacking:
                total += (1 << lacking.bit_count()) - 1
                free.append((rect ^ own, lacking))
        if total >= limit:
            return None
        found = []
        for base, lacking in free:
            chosen = lacking
            while chosen:  # every non-empty subset of lacking
                found.append(base | chosen)
                chosen = (chosen - 1) & lacking
        return found


class _Split:
    """What every join over one ``(left, right)`` split shares: the
    connecting conjuncts, their selectivity, and whether one of them is
    an equi-join.  Built once per split; each join entry refers to it."""

    __slots__ = ("conjuncts", "selectivity", "equi")

    def __init__(
        self, conjuncts: Sequence[Expr], selectivity: float, equi: bool
    ):
        self.conjuncts = conjuncts
        self.selectivity = selectivity
        self.equi = equi


class _Entry:
    """A plan for one alias subset over one fragment rectangle, as numbers.

    ``rows``, ``site`` and ``time`` (response time) are those of the
    plan node the entry stands for.  ``a`` and ``b`` are the operands it
    joins (``split`` is the join's :class:`_Split`) or unions (``split``
    is ``None``); a purchased leaf has neither.  ``plan`` is the node:
    a leaf's from the start, any other's once
    :meth:`BuyerPlanGenerator._plan` builds it.  ``monies`` are the
    purchased leaves' charges in leaf order and ``money`` their
    left-to-right sum (float addition is not associative, and
    valuations may weigh money); ``score`` is the buyer's valuation of
    the plan, computed once.
    """

    __slots__ = (
        "rows", "site", "time", "rect", "form", "key", "complete",
        "monies", "money", "freshness", "score", "a", "b", "split", "plan",
    )

    def __init__(
        self,
        rows: float,
        site: str,
        time: float,
        rect: int,
        form: str,  # RAW or FINAL
        complete: bool,  # covers every required fragment of its aliases
        monies: tuple[float, ...],
        money: float,
        freshness: float,
        score: float,
        a: _Entry | None = None,
        b: _Entry | None = None,
        split: _Split | None = None,
        plan: Plan | None = None,
    ):
        self.rows = rows
        self.site = site
        self.time = time
        self.rect = rect
        self.form = form
        self.key = (rect, form)
        self.complete = complete
        self.monies = monies
        self.money = money
        self.freshness = freshness
        self.score = score
        self.a = a
        self.b = b
        self.split = split
        self.plan = plan


@dataclass(frozen=True)
class CandidatePlan:
    """A complete execution plan for the original query."""

    plan: Plan
    properties: AnswerProperties
    value: float

    def purchased(self) -> tuple[Purchased, ...]:
        return tuple(
            leaf for leaf in self.plan.leaves() if isinstance(leaf, Purchased)
        )


class _Lattice:
    """What a later pass of the same trade may reuse from this one.

    ``seeded`` is every bucket right after seeding, in the order the
    buckets were opened, as ``(subset, offers)``: the offers whose
    entries the bucket held, in bucket order.  ``after_seeding`` is what
    the pass enumerated after seeding, and ``candidates`` what it
    returned.  The owner, query, ``required`` and mode it was made for
    are kept to reject a mismatched prior.  No entry is kept: between
    rounds the record weighs a few tuples of references."""

    __slots__ = (
        "owner", "query", "required", "mode", "seeded", "after_seeding",
        "candidates",
    )

    def __init__(
        self,
        owner: BuyerPlanGenerator,
        query: SPJQuery,
        required: Mapping[str, frozenset[int]],
        seeded: tuple[tuple[int, tuple[Offer, ...]], ...],
        after_seeding: int,
        candidates: tuple[CandidatePlan, ...],
    ):
        self.owner = owner
        self.query = query
        self.required = required
        self.mode = owner.mode
        self.seeded = seeded
        self.after_seeding = after_seeding
        self.candidates = candidates


def _same_seeding(
    a: tuple[tuple[int, tuple[Offer, ...]], ...],
    b: tuple[tuple[int, tuple[Offer, ...]], ...],
) -> bool:
    """Whether two passes' buckets after seeding are the same subsets,
    opened in the same order, holding entries of the same offers — by
    identity: ``Offer.__eq__`` compares values — in the same order."""
    return len(a) == len(b) and all(
        subset_a == subset_b
        and len(offers_a) == len(offers_b)
        and all(x is y for x, y in zip(offers_a, offers_b))
        for (subset_a, offers_a), (subset_b, offers_b) in zip(a, b)
    )


@dataclass
class PlanGenResult:
    """Outcome of one plan-generation pass."""

    best: CandidatePlan | None
    candidates: list[CandidatePlan] = field(default_factory=list)
    enumerated: int = 0
    #: Handed back as ``generate(..., prior=)`` by the next round.
    _lattice: _Lattice | None = field(default=None, repr=False, compare=False)

    @property
    def found(self) -> bool:
        return self.best is not None


def _closed(span, result: PlanGenResult) -> PlanGenResult:
    """Stamp one plan-generation pass's outcome on its span."""
    span.set(
        enumerated=result.enumerated,
        candidates=len(result.candidates),
        found=result.found,
    )
    return result


class BuyerPlanGenerator:
    """Combines winning offers into candidate execution plans."""

    def __init__(
        self,
        builder: PlanBuilder,
        buyer_site: str,
        valuation: Valuation | None = None,
        mode: str = "dp",
        idp_m: int = 5,
        max_entries_per_subset: int = 32,
        max_join_fanin: int = 12,
        union_budget: int = 400,
        seconds_per_plan: float = 5e-5,
    ):
        if mode not in ("dp", "idp"):
            raise ValueError("mode must be 'dp' or 'idp'")
        self.builder = builder
        self.buyer_site = buyer_site
        self.valuation = valuation or WeightedValuation()
        self.mode = mode
        self.idp_m = idp_m
        self.max_entries_per_subset = max_entries_per_subset
        self.max_join_fanin = max_join_fanin
        self.union_budget = union_budget
        self.seconds_per_plan = seconds_per_plan
        #: Observability hook; the trader attaches its network tracer.
        self.tracer: Tracer = NULL_TRACER

    # ------------------------------------------------------------------
    def required_coverage(self, query: SPJQuery) -> dict[str, frozenset[int]]:
        """Fragments per alias that the answer must draw from.

        Fragments provably disjoint from the query's own selection are
        not required (no seller will—or need—cover them).
        """
        required: dict[str, frozenset[int]] = {}
        for ref in query.relations:
            scheme = self.builder.schemes[ref.name]
            selection = query.selection_on(ref.alias)
            required[ref.alias] = frozenset(
                fragment.fragment_id
                for fragment in scheme.fragments
                if restriction_overlaps(
                    selection, fragment.restriction_for(ref.alias)
                )
            )
        return required

    # ------------------------------------------------------------------
    def generate(
        self,
        query: SPJQuery,
        offers: Sequence[Offer],
        *,
        required: Mapping[str, frozenset[int]] | None = None,
        prior: PlanGenResult | None = None,
    ) -> PlanGenResult:
        """Candidate plans for *query* out of *offers*.

        *required* is ``required_coverage(query)`` when the caller
        already holds it (the trader derives it once per trade).
        *prior* is this generator's result for the same query and
        *required* in the previous round; its work is reused where the
        new offers leave it unchanged, and the result is the one a pass
        without *prior* returns.
        """
        if required is None:
            required = self.required_coverage(query)
        tracer = self.tracer
        with tracer.span(
            "buyer.plangen", "trading", site=self.buyer_site,
            mode=self.mode, offers=len(offers),
        ) as span:
            if prior is not None:
                self._check_prior(prior, query, required)
            aliases = frozenset(query.aliases)
            alias_to_relation = {r.alias: r.name for r in query.relations}
            if any(not fids for fids in required.values()):
                # unsatisfiable selection
                return _closed(span, PlanGenResult(
                    best=None,
                    _lattice=_Lattice(self, query, required, (), 0, ()),
                ))
            conjuncts = query.predicate.conjuncts()
            graph = JoinGraph(aliases, conjuncts)
            rects = _Rectangles(graph.aliases, required)
            enumerated = 0

            # Seed entries from offers.  An entry is FINAL only when the
            # offered answer carries the *original* query's output shape
            # — `exact_projections` alone is relative to the offer's own
            # request, which for analyser-derived sub-queries is a
            # SELECT * part, not the original aggregate.
            needs_final_shape = (
                query.has_aggregates or query.group_by or query.distinct
            )
            subsets: dict[int, dict[tuple, _Entry]] = {}
            # id(entry) -> the offer it was seeded from
            seeded_from: dict[int, Offer] = {}
            for offer in offers:
                if not offer.aliases or not offer.aliases <= aliases:
                    continue
                coverage = {
                    alias: frozenset(fids) & required[alias]
                    for alias, fids in offer.coverage.items()
                }
                if any(not fids for fids in coverage.values()):
                    continue
                form = RAW
                if (
                    needs_final_shape
                    and offer.exact_projections
                    and offer.aliases == aliases
                    and set(offer.query.projections)
                    == set(query.projections)
                    and set(offer.query.group_by) == set(query.group_by)
                ):
                    form = FINAL
                plan = self.builder.purchased(
                    offer.query,
                    offer.seller,
                    rows=offer.properties.rows,
                    total_time=offer.properties.total_time,
                    coverage=coverage,
                    buyer_site=self.buyer_site,
                    offer_id=offer.offer_id,
                    money=offer.properties.money,
                    freshness=offer.properties.freshness,
                )
                subset = graph.mask_of(offer.aliases)
                rect = rects.encode(coverage)
                # The one-leaf case of the folds `_combined` continues.
                money = 0.0 + plan.money
                freshness = min(1.0, plan.freshness)
                time = plan.response_time()
                entry = _Entry(
                    plan.rows,
                    plan.site,
                    time,
                    rect,
                    form,
                    rect == rects.required(subset),
                    (plan.money,),
                    money,
                    freshness,
                    self.valuation.score(time, plan.rows, money, freshness),
                    plan=plan,
                )
                seeded_from[id(entry)] = offer
                self._add_entry(subsets, subset, entry)
                enumerated += 1

            # Everything from here on is a function of the seeded
            # buckets (contents, order, and the order they were opened
            # in), the query and *required*; a seed entry is a function
            # of its offer, and offers are immutable.  So if every bucket
            # holds entries of *prior*'s offers — the same objects — in
            # *prior*'s order, the rest of the pass is *prior*'s.
            seeded = tuple(
                (subset, tuple(seeded_from[id(e)] for e in bucket.values()))
                for subset, bucket in subsets.items()
            )
            if prior is not None and _same_seeding(
                seeded, prior._lattice.seeded
            ):
                lattice = prior._lattice
                return _closed(span, PlanGenResult(
                    best=lattice.candidates[0] if lattice.candidates else None,
                    candidates=list(lattice.candidates),
                    enumerated=enumerated + lattice.after_seeding,
                    _lattice=_Lattice(
                        self, query, required, seeded,
                        lattice.after_seeding, lattice.candidates,
                    ),
                ))
            seeded_count = enumerated

            # Union closure at seed level.
            for subset in list(subsets):
                enumerated += self._union_closure(
                    subsets, subset, query, rects
                )

            # Join DP over alias subsets.  For connected queries, only
            # connected subsets are enumerated (cross-product avoidance);
            # when the query graph itself is disconnected, every subset is
            # visited and cross products are allowed where unavoidable.
            query_connected = graph.is_connected
            for size in range(2, graph.n + 1):
                for mask in graph.level_masks(
                    size, connected_only=query_connected
                ):
                    enumerated += self._level_block(
                        subsets, mask, graph, query, rects,
                        alias_to_relation, query_connected,
                    )
                if self.mode == "idp" and size == 2:
                    self._idp_prune(subsets, size)

            # Assemble candidates at the full subset with full coverage.
            candidates: list[CandidatePlan] = []
            for entry in subsets.get(graph.full_mask, {}).values():
                if not entry.complete:
                    continue
                plan = self._plan(entry, query, alias_to_relation)
                if entry.form == RAW:
                    plan = self._finish(query, plan, alias_to_relation)
                elif query.order_by:
                    plan = self.builder.sort(
                        self.builder.collocate(plan, self.buyer_site),
                        query.order_by,
                    )
                properties = AnswerProperties(
                    total_time=plan.response_time(),
                    rows=plan.rows,
                    money=entry.money,
                    freshness=entry.freshness,
                )
                candidates.append(
                    CandidatePlan(
                        plan=plan,
                        properties=properties,
                        value=self.valuation(properties),
                    )
                )
            candidates.sort(key=lambda c: c.value)
            best = candidates[0] if candidates else None
            return _closed(span, PlanGenResult(
                best=best,
                candidates=candidates,
                enumerated=enumerated,
                _lattice=_Lattice(
                    self, query, required, seeded,
                    enumerated - seeded_count, tuple(candidates),
                ),
            ))

    def _check_prior(
        self,
        prior: PlanGenResult,
        query: SPJQuery,
        required: Mapping[str, frozenset[int]],
    ) -> None:
        """Raise unless *prior* is this generator's pass over the same
        query, *required* and mode."""
        lattice = prior._lattice
        if lattice is None or lattice.owner is not self:
            raise ValueError("prior is not a result of this generator")
        if lattice.mode != self.mode:
            raise ValueError("prior was generated in another mode")
        if lattice.query != query or lattice.required != required:
            raise ValueError("prior was generated for another query")

    # ------------------------------------------------------------------
    def _level_block(
        self,
        subsets: dict[int, dict[tuple, _Entry]],
        mask: int,
        graph: JoinGraph,
        query: SPJQuery,
        rects: _Rectangles,
        alias_to_relation: Mapping[str, str],
        query_connected: bool,
    ) -> int:
        """One mask's DP step: joins over splits, union closure, prune.

        Reads only strictly smaller buckets and writes only its own.
        Returns plans enumerated.
        """
        enumerated = 0
        allow_cross = not (query_connected or graph.connected(mask))
        builder = self.builder
        site = self.buyer_site
        caps = builder.caps(site)
        for left, right in graph.splits(mask):
            left_entries = subsets.get(left)
            right_entries = subsets.get(right)
            if not left_entries or not right_entries:
                continue
            connecting = graph.connecting(left, right)
            if not connecting and not allow_cross:
                continue
            selectivity, equi = builder.join_selectivity(
                connecting, alias_to_relation
            )
            split = _Split(connecting, selectivity, equi)
            right_participants = self._join_participants(right_entries)
            for le in self._join_participants(left_entries):
                for re_ in right_participants:
                    rows, op_time = builder.join_cost(
                        le.rows, re_.rows, selectivity, equi, caps
                    )
                    time = fold_response_time(
                        site, op_time, (le.site, re_.site), (le.time, re_.time)
                    )
                    enumerated += 1
                    entry = self._combined(
                        rows,
                        time,
                        le.rect | re_.rect,
                        RAW,
                        le.complete and re_.complete,
                        le,
                        re_,
                        split,
                    )
                    self._add_entry(subsets, mask, entry)
        enumerated += self._union_closure(subsets, mask, query, rects)
        self._prune(subsets, mask)
        return enumerated

    # ------------------------------------------------------------------
    def _combined(
        self,
        rows: float,
        time: float,
        rect: int,
        form: str,
        complete: bool,
        a: _Entry,
        b: _Entry,
        split: _Split | None,
    ) -> _Entry:
        """The entry joining (over *split*) or unioning (*split* None)
        *a* and *b* into *rows* at the buyer site, ready after *time*;
        its purchased leaves are *a*'s followed by *b*'s, and it is
        scored under the buyer's valuation.

        Entries with identical coverage may come from different sellers
        (replicas) with different prices and freshness; ranking them
        under the buyer's own valuation keeps e.g. staleness-averse
        buyers from locking in cheap-but-stale purchases during plan
        generation."""
        money = a.money
        for amount in b.monies:  # continue the sum in leaf order
            money += amount
        freshness = min(a.freshness, b.freshness)
        return _Entry(
            rows,
            self.buyer_site,
            time,
            rect,
            form,
            complete,
            a.monies + b.monies,
            money,
            freshness,
            self.valuation.score(time, rows, money, freshness),
            a,
            b,
            split,
        )

    def _plan(
        self,
        entry: _Entry,
        query: SPJQuery,
        alias_to_relation: Mapping[str, str],
    ) -> Plan:
        """*entry*'s plan node, built on first request — operands first —
        by the builder calls whose arithmetic produced its numbers.  It
        is kept on the entry, so an operand shared by several candidates
        is one node."""
        plan = entry.plan
        if plan is None:
            left = self._plan(entry.a, query, alias_to_relation)
            right = self._plan(entry.b, query, alias_to_relation)
            if entry.split is None:
                plan = self.builder.union(
                    [left, right],
                    self.buyer_site,
                    distinct=entry.form == FINAL and query.distinct,
                )
            else:
                plan = self.builder.join(
                    left,
                    right,
                    entry.split.conjuncts,
                    alias_to_relation,
                    site=self.buyer_site,
                )
            entry.plan = plan
        return plan

    def _finish(
        self,
        query: SPJQuery,
        plan: Plan,
        alias_to_relation: Mapping[str, str],
    ) -> Plan:
        plan = self.builder.collocate(plan, self.buyer_site)
        if query.has_aggregates or query.group_by:
            aggregates = tuple(
                p for p in query.projections if isinstance(p, Aggregate)
            )
            plan = self.builder.aggregate(
                plan,
                query.group_by,
                aggregates,
                alias_to_relation,
                site=self.buyer_site,
            )
        if query.order_by:
            plan = self.builder.sort(plan, query.order_by)
        return plan

    # ------------------------------------------------------------------
    # Bucket helpers.  *subsets* is keyed by alias-subset bitmask (see
    # JoinGraph); a bucket is keyed by ``(rectangle, form)``.
    def _add_entry(
        self,
        subsets: dict[int, dict[tuple, _Entry]],
        subset: int,
        entry: _Entry,
    ) -> bool:
        bucket = subsets.setdefault(subset, {})
        current = bucket.get(entry.key)
        if current is None or entry.score < current.score:
            bucket[entry.key] = entry
            return True
        return False

    def _join_participants(self, bucket: dict[tuple, _Entry]) -> list[_Entry]:
        """Raw entries worth joining: complete ones first, then cheapest."""
        raws = [e for e in bucket.values() if e.form == RAW]
        raws.sort(key=lambda e: (not e.complete, e.score))
        return raws[: self.max_join_fanin]

    def _union_closure(
        self,
        subsets: dict[int, dict[tuple, _Entry]],
        subset: int,
        query: SPJQuery,
        rects: _Rectangles,
    ) -> int:
        """Bounded best-first merging of fragment-rectangle entries.

        Cheapest entries are expanded first, orientation is canonical
        (the side with the smaller minimum fragment on the differing
        alias is always the left operand) so each merged rectangle is
        built once, and the exploration budget caps worst-case work.  A
        greedy completion pass afterwards guarantees that a *complete*
        entry exists whenever the bucket's pieces can cover the required
        fragments at all.

        A popped entry unions with its partners in bucket order, as the
        bucket stood when it was popped: entries made during the pop are
        not its partners.  The partners are found by lookup — each of
        the few rectangles :meth:`_Rectangles.candidates` names is one
        ``bucket.get`` — and put in bucket order by ``slot``, each key's
        position in the bucket dict (a new key goes last, a replaced one
        keeps its place, and only ``_prune`` reorders).  When there are
        at least as many candidates as entries, the pop scans the bucket
        instead, so no pop costs more than a scan.  An in-closure ``_prune``
        also drops the heap items it evicted.
        """
        bucket = subsets.get(subset)
        if not bucket or len(bucket) < 2:
            return 0
        enumerated = 0
        full = rects.required(subset)
        counter = count()
        heap: list[tuple[float, int, _Entry]] = [
            (e.score, next(counter), e) for e in bucket.values()
        ]
        heapq.heapify(heap)
        slot = {key: i for i, key in enumerate(bucket)}
        pops = 0
        while heap and pops < self.union_budget:
            _cost, _seq, a = heapq.heappop(heap)
            if bucket.get(a.key) is not a:
                continue  # superseded
            pops += 1
            form = a.form
            found = rects.candidates(a.rect, len(bucket), leading=True)
            if found is None:  # no fewer candidates than entries: scan
                partners = [
                    b
                    for b in rects.partners(
                        a.rect, bucket.values(), leading=True
                    )
                    if b.form == form
                ]
            else:
                partners = [
                    b
                    for rect in found
                    if (b := bucket.get((rect, form))) is not None
                ]
                partners.sort(key=lambda b: slot[b.key])
            for b in partners:
                entry = self._union_entry(a, b, query, full)
                enumerated += 1
                if self._add_entry(subsets, subset, entry):
                    slot.setdefault(entry.key, len(slot))
                    heapq.heappush(heap, (entry.score, next(counter), entry))
            if len(bucket) > self.max_entries_per_subset * 4:
                self._prune(subsets, subset, cap=self.max_entries_per_subset * 2)
                bucket = subsets[subset]
                slot = {key: i for i, key in enumerate(bucket)}
                heap = [
                    item for item in heap if bucket.get(item[2].key) is item[2]
                ]
                heapq.heapify(heap)
        enumerated += self._greedy_complete(subsets, subset, query, rects)
        return enumerated

    def _union_entry(
        self, a: _Entry, b: _Entry, query: SPJQuery, full: int
    ) -> _Entry:
        """The union of unionable *a* and *b* at the buyer site; *full*
        is the complete rectangle of their alias subset."""
        rows = a.rows + b.rows
        op_time = self.builder.union_cost(
            rows,
            a.form == FINAL and query.distinct,
            self.builder.caps(self.buyer_site),
        )
        time = fold_response_time(
            self.buyer_site, op_time, (a.site, b.site), (a.time, b.time)
        )
        rect = a.rect | b.rect
        return self._combined(
            rows, time, rect, a.form, rect == full, a, b, None
        )

    def _greedy_complete(
        self,
        subsets: dict[int, dict[tuple, _Entry]],
        subset: int,
        query: SPJQuery,
        rects: _Rectangles,
    ) -> int:
        """Ensure a complete entry exists per form when pieces allow it.

        Starting from each of the cheapest seeds, repeatedly merge the
        cheapest unionable entry until complete or stuck.
        """
        bucket = subsets.get(subset)
        if not bucket:
            return 0
        enumerated = 0
        full = rects.required(subset)
        for form in (RAW, FINAL):
            if any(e.complete for e in bucket.values() if e.form == form):
                continue
            pieces = sorted(
                (e for e in bucket.values() if e.form == form),
                key=attrgetter("score"),
            )
            if not pieces:
                continue
            for seed in pieces[:4]:
                current = seed
                while not current.complete:
                    piece = next(rects.partners(current.rect, pieces), None)
                    if piece is None:
                        break  # stuck
                    current = self._union_entry(current, piece, query, full)
                    enumerated += 1
                if current.complete:
                    self._add_entry(subsets, subset, current)
                    break
        return enumerated

    def _prune(
        self,
        subsets: dict[int, dict[tuple, _Entry]],
        subset: int,
        cap: int | None = None,
    ) -> None:
        """Cap a bucket, protecting *complete* entries.

        Complete entries (full required coverage for their aliases) are
        the spine of every final plan: joins of complete entries stay
        complete, so keeping them guarantees the generator finds a plan
        whenever the offers cover the query at all.  Incomplete entries
        are building material; only the cheapest survive the cap.
        """
        cap = cap if cap is not None else self.max_entries_per_subset
        bucket = subsets.get(subset)
        if not bucket or len(bucket) <= cap:
            return
        kept: dict[tuple, _Entry] = {}
        incomplete: list[_Entry] = []
        for entry in bucket.values():
            if entry.complete:
                kept[entry.key] = entry
            else:
                incomplete.append(entry)
        # Stable: tied scores keep bucket order.
        incomplete.sort(key=attrgetter("score"))
        for entry in incomplete[: max(0, cap - len(kept))]:
            kept[entry.key] = entry
        subsets[subset] = kept

    def _idp_prune(
        self,
        subsets: dict[int, dict[tuple, _Entry]],
        size: int,
    ) -> None:
        """IDP-M(2, m): keep only the best *m* two-way entries overall.

        Complete entries (full required coverage for their aliases) are
        exempt — Kossmann & Stocker's pruning assumes unpartitioned
        single-site tables where every sub-plan is trivially "complete";
        with horizontal fragments, discarding the coverage spine would
        make whole queries unanswerable rather than merely suboptimal.
        """
        level = [
            (subset, key, entry)
            for subset, bucket in subsets.items()
            if subset.bit_count() == size
            for key, entry in bucket.items()
            if not entry.complete
        ]
        if len(level) <= self.idp_m:
            return
        level.sort(key=lambda item: item[2].score)
        for subset, key, _entry in level[self.idp_m :]:
            del subsets[subset][key]


class BuyerPredicatesAnalyser:
    """Derives the next round's query set Q (step B5/B6 of Figure 2)."""

    def __init__(self, schemes: Mapping[str, PartitionScheme]):
        self.schemes = schemes

    def derive(
        self,
        query: SPJQuery,
        offers: Sequence[Offer],
        required: Mapping[str, frozenset[int]],
    ) -> list[SPJQuery]:
        """New tradable queries suggested by the current market state."""
        derived: dict[str, SPJQuery] = {}
        asked: set[tuple[str, frozenset[int]]] = set()

        def add(candidate: SPJQuery | None) -> None:
            if candidate is None or candidate.is_unsatisfiable:
                return
            derived.setdefault(candidate.key(), candidate)

        def ask(alias: str, fragments: frozenset[int]) -> None:
            # Replicas make most requests repeats; a repeat would build
            # the same restricted query only for ``add`` to drop it.
            if (alias, fragments) not in asked:
                asked.add((alias, fragments))
                add(self._fragment_query(query, alias, fragments))

        # 1. Complements: for each partially covered alias, ask for the
        #    missing fragments so other sellers can bid on them.
        for offer in offers:
            for alias, fids in offer.coverage.items():
                if alias not in required:
                    continue
                missing = required[alias] - fids
                if not missing or missing == required[alias]:
                    continue
                ask(alias, missing)

        # 2. Per-relation parts: single-relation sub-queries of the
        #    original (lets fragment holders bid even when they returned
        #    nothing useful for the joins).
        if len(query.relations) > 1:
            for ref in query.relations:
                add(query.subquery_on((ref.alias,)))

        # 3. De-overlap redundant offers (the paper's union-redundancy
        #    example): two offers on the same aliases whose rectangles
        #    overlap on one alias spawn the difference queries.
        by_aliases: dict[frozenset[str], list[Offer]] = {}
        for offer in offers:
            by_aliases.setdefault(offer.aliases, []).append(offer)
        for group in by_aliases.values():
            for i, first in enumerate(group):
                for second in group[i + 1 :]:
                    for alias in first.coverage:
                        overlap = (
                            first.coverage[alias] & second.coverage[alias]
                        )
                        a_only = first.coverage[alias] - overlap
                        b_only = second.coverage[alias] - overlap
                        if not overlap or not (a_only or b_only):
                            continue
                        if a_only:
                            ask(alias, a_only)
                        if b_only:
                            ask(alias, b_only)

        # 4. Sort variants: trade the unsorted answer separately.
        if query.order_by:
            add(query.without_order())
        return list(derived.values())

    def _fragment_query(
        self, query: SPJQuery, alias: str, fragments: frozenset[int]
    ) -> SPJQuery | None:
        sub = query.subquery_on((alias,))
        if sub is None:
            return None
        ref = query.relation_for(alias)
        scheme = self.schemes[ref.name]
        restriction = scheme.restriction_for(alias, fragments)
        if restriction is TRUE:
            return sub
        return sub.restrict(restriction)
