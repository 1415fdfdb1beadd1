"""Shared fixtures: federations, builders, and the telecom scenario."""

from __future__ import annotations

import hashlib
import json
import weakref
from pathlib import Path

import pytest

from repro.catalog import FederationConfig, build_federation
from repro.cost import (
    CardinalityEstimator,
    CostModel,
    stats_for_catalog,
)
from repro.net import Network
from repro.optimizer import PlanBuilder
from repro.sql import Relation
from repro.trading import (
    BuyerPlanGenerator,
    QueryTrader,
    RequestForBids,
    SellerAgent,
)
from repro.workload import build_telecom_scenario


@pytest.fixture
def telecom():
    """The paper's motivating scenario (invoiceline replicated whole)."""
    return build_telecom_scenario(
        n_offices=4,
        customers_per_office=200,
        lines_per_customer=3,
        invoice_placement="full",
    )


@pytest.fixture
def telecom_colocated():
    return build_telecom_scenario(
        n_offices=4,
        customers_per_office=200,
        lines_per_customer=3,
        invoice_placement="colocated",
    )


@pytest.fixture
def telecom_schemas(telecom):
    return telecom.catalog.schemas


def make_federation(
    nodes=8,
    n_relations=3,
    rows=10_000,
    fragments=4,
    replicas=2,
    seed=7,
    partition_style="list",
):
    """A uniform federation plus its estimator/builder plumbing."""
    config = FederationConfig.uniform(
        nodes=nodes,
        n_relations=n_relations,
        rows=rows,
        fragments=fragments,
        replicas=replicas,
        seed=seed,
        partition_style=partition_style,
    )
    catalog, node_list = build_federation(config)
    estimator = CardinalityEstimator(stats_for_catalog(catalog), catalog.schemas)
    model = CostModel()
    builder = PlanBuilder(estimator, model, schemes=catalog.schemes)
    return catalog, node_list, estimator, model, builder


def make_trader(catalog, node_list, builder, model, mode="dp", **kwargs):
    """A QueryTrader over all data-holding nodes, buying from 'client'."""
    network = Network(model)
    sellers = {
        node: SellerAgent(catalog.local(node), builder)
        for node in node_list
        if node != "client"
    }
    plangen = BuyerPlanGenerator(builder, "client", mode=mode)
    return QueryTrader("client", sellers, network, plangen, **kwargs), network


def gather_offers(catalog, node_list, builder, query):
    """Every seller's offers for one RFB carrying *query* alone."""
    rfb = RequestForBids(buyer="client", queries=(query,), round_number=1)
    offers = []
    for node in node_list:
        if node == "client":
            continue
        agent = SellerAgent(catalog.local(node), builder)
        node_offers, _work = agent.prepare_offers(rfb)
        offers.extend(node_offers)
    return offers


def watch_plan_rounds(monkeypatch) -> list:
    """Record each ``BuyerPlanGenerator.generate`` call from now on as
    ``(weak reference to its result, whether it was handed the previous
    call's result as prior)``."""
    calls = []
    generate = BuyerPlanGenerator.generate

    def watched(self, query, offers, **kwargs):
        previous = calls[-1][0]() if calls else None
        prior = kwargs.get("prior")
        result = generate(self, query, offers, **kwargs)
        calls.append(
            (weakref.ref(result), prior is not None and prior is previous)
        )
        return result

    monkeypatch.setattr(BuyerPlanGenerator, "generate", watched)
    return calls


GOLDEN_PLANS = Path(__file__).with_name("golden_plans.json")


def assert_golden(case: str, enumerated: list[int], texts: list[str]) -> None:
    """Compare one case with its entry in ``golden_plans.json``.

    The entries were recorded at the commit that retired the frozenset
    reference loops (``optimizer/reference.py``) — from those loops
    where one existed, and the bitmask code agreed — so they pin the
    original enumeration order and plan bytes, not just today's output.
    A deliberate change to either fails here and prints the new entry
    to paste into the file.
    """
    got = {
        "enumerated": enumerated,
        "sha256": hashlib.sha256("\n".join(texts).encode()).hexdigest(),
    }
    expected = json.loads(GOLDEN_PLANS.read_text()).get(case)
    assert got == expected, f"{case}: got {json.dumps(got)}"


@pytest.fixture
def federation():
    return make_federation()


@pytest.fixture
def small_schemas():
    """Tiny hand-made schemas for parser and query-model tests."""
    return {
        "customer": Relation.of(
            "customer", "custid", ("custname", "str"), ("office", "str")
        ),
        "invoiceline": Relation.of(
            "invoiceline", "invid", "linenum", "custid", ("charge", "float")
        ),
    }


def current_active_samples(snap) -> dict:
    """The Prometheus samples of a current (not peak) active-session
    count in a parsed ``/metrics/prom`` scrape."""
    return {
        key: value
        for key, value in snap.samples.items()
        if ("active" in key[0] and not key[0].endswith("_peak"))
        or ("state", "active") in key[1]
    }
