"""Command-line interface: trade queries and regenerate experiments.

Usage::

    python -m repro trade "SELECT * FROM R0 r0 WHERE r0.cat = 3" \
        --nodes 8 --relations 3 --fragments 4 --replicas 2
    python -m repro trade "SELECT * FROM R0 r0 WHERE r0.cat = 3" \
        --fault-plan examples/fault_plan.json --timeout 0.05
    python -m repro explain "SELECT ..." --subquery R1 --json
    python -m repro critical-path trace.jsonl --top 10
    python -m repro diff-trace run_a.jsonl run_b.jsonl.gz
    python -m repro bench-check --regress-pct 0.5
    python -m repro telecom --offices 4 --views
    python -m repro experiment E3 E9
    python -m repro experiment --all
    python -m repro list-experiments
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
import time
from typing import Callable, Sequence

from repro.bench import experiments as experiments_module
from repro.bench.experiments import ExperimentTable
from repro.bench.harness import build_world, trade
from repro.cost import CardinalityEstimator, CostModel
from repro.execution import FederationData, PlanExecutor, evaluate_query
from repro.execution.tables import materialize_catalog
from repro.faults import FaultPlan
from repro.net import Network
from repro.optimizer import PlanBuilder
from repro.sql import ParseError, parse_query
from repro.trading import BuyerPlanGenerator, QueryTrader, SellerAgent
from repro.trading.commodity import offer_id_scope
from repro.workload import build_telecom_scenario

__all__ = ["main", "EXPERIMENTS"]

#: Registry of experiment id -> zero-argument callable producing a table.
EXPERIMENTS: dict[str, Callable[[], ExperimentTable]] = {
    "E1": experiments_module.e1_optimization_time_vs_joins,
    "E2": experiments_module.e2_plan_quality_vs_joins,
    "E3": experiments_module.e3_scalability_vs_nodes,
    "E4": experiments_module.e4_partitions_per_relation,
    "E5": experiments_module.e5_message_accounting,
    "E6": experiments_module.e6_iteration_convergence,
    "E7": experiments_module.e7_replication_degree,
    "E8": experiments_module.e8_strategies,
    "E9": experiments_module.e9_materialized_views,
    "E10": experiments_module.e10_plan_generator_variants,
    "E11": experiments_module.e11_subcontracting,
    "E12": experiments_module.e12_offer_ablations,
    "E13": experiments_module.e13_load_balancing,
    "E14": experiments_module.e14_mqo_overlap,
    "E-F1": experiments_module.ef1_drop_rate_sweep,
    "E-F2": experiments_module.ef2_crash_sweep,
    "E-F3": experiments_module.ef3_timeout_tuning,
}


def _add_negotiation_args(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by every subcommand that runs a negotiation."""
    parser.add_argument("sql", help="SPJ(+aggregate) query text")
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--relations", type=int, default=3)
    parser.add_argument("--rows", type=int, default=10_000)
    parser.add_argument("--fragments", type=int, default=4)
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--plangen", choices=("dp", "idp"), default="dp",
        help="buyer plan generator variant",
    )
    parser.add_argument(
        "--fault-plan", metavar="JSON",
        help="JSON fault-plan file (see examples/fault_plan.json); "
             "negotiate under injected faults with the resilience stack",
    )
    parser.add_argument(
        "--timeout", type=float, default=0.05,
        help="negotiation round deadline in simulated seconds "
             "(with --fault-plan; default 0.05)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2,
        help="re-issues of an all-silent round (with --fault-plan)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Query Trading (QT): distributed query optimization by "
            "trading query answers (Pentaris & Ioannidis, EDBT 2004)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trade = sub.add_parser(
        "trade", help="optimize one SQL query over a synthetic federation"
    )
    _add_negotiation_args(trade)
    trade.add_argument(
        "--execute", action="store_true",
        help="materialize data, execute the plan, verify vs. centralized",
    )
    trade.add_argument(
        "--trace-out", "--trace", dest="trace", metavar="PATH",
        help="record the negotiation and write the trace to PATH "
             "(Chrome trace_event JSON for chrome://tracing / Perfetto, "
             "or flat JSONL; a .gz suffix gzip-compresses)",
    )
    trade.add_argument(
        "--trace-format", choices=("chrome", "jsonl"),
        help="trace file format; inferred from the --trace-out extension "
             "when omitted (.jsonl / .jsonl.gz -> jsonl, anything else "
             "-> chrome)",
    )
    trade.add_argument(
        "--timeline", action="store_true",
        help="print an ASCII per-site timeline of the traced "
             "negotiation (implies tracing)",
    )

    explain = sub.add_parser(
        "explain",
        help="run one traced trade and audit why each site won "
             "its commodity (decision-ledger provenance)",
    )
    _add_negotiation_args(explain)
    explain.add_argument(
        "--subquery", metavar="KEY",
        help="restrict the breakdown to awarded commodities whose "
             "query key contains KEY",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="emit the audit as JSON (byte-identical across worker "
             "counts and repeated same-seed runs)",
    )

    critpath = sub.add_parser(
        "critical-path",
        help="read a traced negotiation's critical path off its "
             "simulated timestamps: per-phase latency decomposition, the "
             "bottleneck seller/link of every round, top-k segments",
    )
    critpath.add_argument("path", help="trace file (JSONL/Chrome, .gz ok)")
    critpath.add_argument(
        "--top", type=int, default=8,
        help="how many critical-path segments to list (default 8)",
    )
    critpath.add_argument(
        "--json", action="store_true",
        help="emit the decomposition as JSON (byte-identical across "
             "worker counts and repeated same-seed runs)",
    )

    diff_trace = sub.add_parser(
        "diff-trace",
        help="structurally diff two deterministic traces; exit 1 and "
             "pinpoint the first divergent record if they differ",
    )
    diff_trace.add_argument("a", help="first trace (JSONL/Chrome, .gz ok)")
    diff_trace.add_argument("b", help="second trace")
    diff_trace.add_argument(
        "--context", type=int, default=3,
        help="shared-prefix records to show before the divergence",
    )
    diff_trace.add_argument("--json", action="store_true")

    bench_check = sub.add_parser(
        "bench-check",
        help="check the bench-history store against the regression gates",
    )
    bench_check.add_argument(
        "--history", metavar="PATH",
        default="benchmarks/results/bench_history.jsonl",
        help="bench-history JSONL store "
             "(default benchmarks/results/bench_history.jsonl)",
    )
    bench_check.add_argument(
        "--regress-pct", type=float, default=None, metavar="FRACTION",
        help="also fail if a speedup metric dropped by more than this "
             "fraction vs the previous same-CPU-count entry (e.g. 0.5)",
    )
    bench_check.add_argument("--json", action="store_true")

    telecom = sub.add_parser(
        "telecom", help="run the paper's motivating telecom scenario"
    )
    telecom.add_argument("--offices", type=int, default=4)
    telecom.add_argument("--customers", type=int, default=1_000)
    telecom.add_argument("--views", action="store_true",
                         help="enable the §3.5 materialized views")

    experiment = sub.add_parser(
        "experiment", help="regenerate experiment tables (E1..E11)"
    )
    experiment.add_argument("ids", nargs="*", help="experiment ids")
    experiment.add_argument("--all", action="store_true",
                            help="run the whole suite")
    experiment.add_argument(
        "--workers", type=int, default=1,
        help="run several experiments in parallel worker processes, "
             "one experiment per task; tables print in id order.  All "
             "tables but E14's are identical to a serial run; E14's "
             "cache-hit and intern-hit columns depend on which broker "
             "session thread prices first and can differ (its plan "
             "cost, payments and epochs do not)",
    )

    report = sub.add_parser(
        "report", help="summarize traces written by trade --trace-out"
    )
    report.add_argument(
        "path",
        help="trace file (Chrome JSON or JSONL, .gz ok) or a directory "
             "of traces for a cross-run aggregate",
    )
    report.add_argument(
        "--top", type=int, default=8,
        help="how many slowest spans to list (default 8)",
    )

    sub.add_parser("list-experiments", help="list available experiments")

    serve = sub.add_parser(
        "serve",
        help="run the federation broker daemon (HTTP API for concurrent "
             "trading sessions; see docs/BROKER.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="listen port (0 picks a free one; default 8642)",
    )
    serve.add_argument("--nodes", type=int, default=8)
    serve.add_argument("--relations", type=int, default=6)
    serve.add_argument("--rows", type=int, default=10_000)
    serve.add_argument("--fragments", type=int, default=2)
    serve.add_argument("--replicas", type=int, default=2)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--clock", choices=("sim",), default="sim",
        help="accepted for compatibility and selects nothing: every "
             "session runs under the deterministic simulator (removal "
             "tracked as ROADMAP item 1(g))",
    )
    serve.add_argument(
        "--max-concurrent", type=int, default=8,
        help="negotiations running at once (worker threads)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=32,
        help="admitted sessions that may wait; beyond this, submits "
             "are shed with HTTP 429",
    )
    serve.add_argument(
        "--budget-rounds", type=int, default=6,
        help="per-session cap on negotiation rounds (exhaustion "
             "returns a degraded result)",
    )
    serve.add_argument(
        "--budget-offers", type=int, default=None,
        help="per-session cap on offers evaluated (checked at round "
             "granularity; default unbudgeted)",
    )
    serve.add_argument(
        "--mqo", action="store_true",
        help="enable cross-session multi-query optimization: concurrent "
             "sessions batch into trading epochs, shared subqueries are "
             "interned and priced once, and amortized seed offers are "
             "injected into each sharer (see docs/MQO.md)",
    )
    serve.add_argument(
        "--mqo-epoch-size", type=int, default=8, metavar="N",
        help="sessions per trading epoch before it seals (with --mqo; "
             "default 8)",
    )
    serve.add_argument(
        "--mqo-epoch-window", type=float, default=0.25, metavar="SECONDS",
        help="wall seconds a partial epoch waits for company before "
             "sealing anyway (with --mqo; default 0.25)",
    )
    serve.add_argument(
        "--live-obs", action="store_true",
        help="enable live serving observability: per-site statistics "
             "registry, q-error observatory, SLO tracking, Prometheus "
             "exposition at /metrics/prom, /sites, and /events; every "
             "session is then traced unless it says \"trace\": false "
             "(see docs/OBSERVABILITY.md)",
    )
    serve.add_argument(
        "--qerror-sample", type=int, default=4, metavar="N",
        help="run the q-error observatory on every Nth completed "
             "session (with --live-obs; 0 disables sampling; default 4)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log each HTTP request"
    )

    sites = sub.add_parser(
        "sites",
        help="dump a live broker's per-site statistics registry "
             "(requires serve --live-obs)",
    )
    sites.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="broker base URL (default http://127.0.0.1:8642)",
    )
    sites.add_argument(
        "--json", action="store_true",
        help="emit the raw /sites payload as JSON",
    )
    return parser


def _negotiate(args: argparse.Namespace, tracer=None):
    """Build a federation from ``args`` and run one negotiation.

    Returns ``(result, world, query, exit_code)``; on a setup error
    ``result`` is ``None`` and ``exit_code`` explains why.  Shared by
    ``trade`` and ``explain`` so both see the identical federation.
    """
    world = build_world(
        nodes=args.nodes,
        n_relations=args.relations,
        rows=args.rows,
        fragments=args.fragments,
        replicas=args.replicas,
        seed=args.seed,
    )
    try:
        query = parse_query(args.sql, world.catalog.schemas)
    except ParseError as exc:
        print(f"cannot parse query: {exc}", file=sys.stderr)
        return None, None, None, 2
    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = FaultPlan.from_file(args.fault_plan)
        except (OSError, ValueError) as exc:
            print(f"cannot load fault plan: {exc}", file=sys.stderr)
            return None, None, None, 2
    # A fresh offer-id counter, so repeated same-seed invocations mint
    # identical ids and traces/ledgers are byte-comparable across runs.
    with offer_id_scope():
        result = trade(
            world,
            query,
            mode=args.plangen,
            tracer=tracer,
            fault_plan=fault_plan,
            timeout=args.timeout,
            max_retries=args.max_retries,
        )
    return result, world, query, 0


def _cmd_trade(args: argparse.Namespace) -> int:
    tracer = None
    if args.trace or args.timeline:
        from repro.obs import Tracer

        tracer = Tracer()
    result, world, query, code = _negotiate(args, tracer)
    if result is None:
        return code
    if tracer is not None:
        _export_trace(tracer, args)
    if not result.found:
        print("no distributed plan could be negotiated", file=sys.stderr)
        return 1
    print(
        f"negotiated in {result.iterations} round(s); "
        f"{result.offers_considered} offers, "
        f"{result.messages.messages} messages, "
        f"{result.optimization_time:.4f}s simulated optimization time"
    )
    print(f"messages by type: {result.messages.describe_types()}")
    if args.fault_plan:
        stats = result.messages
        print(
            f"faults: {stats.dropped} dropped, {stats.duplicated} duplicated, "
            f"{stats.retried} re-sent; {result.resilience.describe()}"
        )
    print(f"plan (estimated response time {result.plan_cost:.4f}s):")
    print(result.best.plan.explain())
    print("contracts:")
    for contract in result.contracts:
        print(" ", contract.describe())
    if args.execute:
        data = FederationData.build(world.catalog, seed=args.seed)
        answer = PlanExecutor(data, query).run(result.best.plan)
        reference = evaluate_query(query, data)
        ok = answer.equals_unordered(reference)
        print(f"execution check: {'MATCH' if ok else 'MISMATCH'} "
              f"({len(answer.rows)} rows)")
        if not ok:
            return 1
    return 0


def _export_trace(tracer, args: argparse.Namespace) -> None:
    """Write/print what ``--trace``/``--timeline`` asked for."""
    from repro.obs import render_timeline, write_chrome_trace, write_jsonl

    if args.trace:
        fmt = args.trace_format
        if fmt is None:
            stem = args.trace[:-3] if args.trace.endswith(".gz") else args.trace
            fmt = "jsonl" if stem.endswith(".jsonl") else "chrome"
        if fmt == "chrome":
            write_chrome_trace(tracer.records, args.trace)
        else:
            write_jsonl(tracer.records, args.trace)
        print(
            f"trace: {len(tracer.records)} records -> {args.trace} ({fmt})"
        )
    if args.timeline:
        print(render_timeline(tracer.records))


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs import Tracer, explain

    tracer = Tracer()
    result, _world, _query, code = _negotiate(args, tracer)
    if result is None:
        return code
    if result.ledger is None:
        print("no decision ledger was recorded", file=sys.stderr)
        return 1
    explanation = explain(result, subquery=args.subquery)
    if args.json:
        print(explanation.to_json())
    else:
        try:
            print(explanation.render())
        except BrokenPipeError:
            return 0
    return 0 if explanation.found else 1


def _cmd_critical_path(args: argparse.Namespace) -> int:
    from repro.obs import CriticalPath, load_trace

    try:
        rows = load_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot load trace: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print("trace is empty", file=sys.stderr)
        return 1
    critical = CriticalPath.from_rows(rows)
    if critical is None:
        print(
            "trace carries no trading rounds (was it recorded with "
            "trade --trace-out?)",
            file=sys.stderr,
        )
        return 1
    try:
        if args.json:
            print(critical.to_json(top=args.top))
        else:
            print(critical.render(top=args.top))
    except BrokenPipeError:
        return 0
    return 0


def _cmd_diff_trace(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.obs import diff_rows, load_trace

    try:
        rows_a = load_trace(args.a)
        rows_b = load_trace(args.b)
    except (OSError, ValueError) as exc:
        print(f"cannot load trace: {exc}", file=sys.stderr)
        return 2
    diff = diff_rows(rows_a, rows_b, context=args.context)
    if args.json:
        print(json_module.dumps(diff.to_dict(), indent=2, sort_keys=True))
    else:
        print(diff.render())
    return 0 if diff.identical else 1


def _cmd_bench_check(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.obs import (
        DEFAULT_GATES,
        BenchHistory,
        check_drift,
        check_gates,
        render_check,
    )

    store = BenchHistory(args.history)
    history = store.load()
    if not history:
        print(f"no bench history at {args.history}", file=sys.stderr)
        return 2
    latest = store.latest()
    verdicts = check_gates(latest, DEFAULT_GATES)
    if args.regress_pct is not None:
        verdicts += check_drift(store, latest, args.regress_pct)
    failed = [v for v in verdicts if v["status"] == "FAIL"]
    if args.json:
        print(json_module.dumps(
            {"history": args.history, "entries": len(history),
             "verdicts": verdicts, "failed": len(failed)},
            indent=2, sort_keys=True,
        ))
    else:
        print(render_check(latest, verdicts))
    return 1 if failed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    import os

    from repro.obs import (
        load_trace,
        load_trace_dir,
        render_multi_report,
        render_report,
    )

    if os.path.isdir(args.path):
        try:
            runs = load_trace_dir(args.path)
        except OSError as exc:
            print(f"cannot read trace directory: {exc}", file=sys.stderr)
            return 2
        if not runs:
            print("no readable traces in directory", file=sys.stderr)
            return 1
        try:
            print(render_multi_report(runs, top=args.top))
        except BrokenPipeError:
            return 0
        return 0
    try:
        rows = load_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot load trace: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print("trace is empty", file=sys.stderr)
        return 1
    try:
        print(render_report(rows, top=args.top))
    except BrokenPipeError:  # e.g. piped into head
        return 0
    return 0


def _cmd_telecom(args: argparse.Namespace) -> int:
    scenario = build_telecom_scenario(
        n_offices=args.offices,
        customers_per_office=args.customers,
        with_views=args.views,
    )
    estimator = CardinalityEstimator(scenario.stats, scenario.catalog.schemas)
    model = CostModel()
    builder = PlanBuilder(estimator, model, schemes=scenario.catalog.schemes)
    network = Network(model)
    sellers = {
        node: SellerAgent(scenario.catalog.local(node), builder)
        for node in scenario.nodes
    }
    trader = QueryTrader(
        "athens-client", sellers, network,
        BuyerPlanGenerator(builder, "athens-client"),
    )
    query = scenario.manager_query()
    print("query:", query.sql())
    result = trader.optimize(query)
    print(f"plan cost {result.plan_cost:.4f}s, "
          f"{result.messages.messages} messages")
    print(result.best.plan.explain())
    data = FederationData(
        scenario.catalog,
        materialize_catalog(scenario.catalog, 0, scenario.row_factories),
    )
    answer = PlanExecutor(data, query).run(result.best.plan)
    for row in answer.canonical():
        print(" ", dict(zip(answer.columns, row)))
    return 0


def _render_experiment(experiment_id: str) -> str:
    """Run one registered experiment and render its table.

    Module-level so the parallel experiment runner can ship it to
    worker processes by reference.
    """
    return EXPERIMENTS[experiment_id]().render()


def _cmd_experiment(args: argparse.Namespace) -> int:
    ids = [i.upper() for i in args.ids]
    if args.all:
        ids = list(EXPERIMENTS)
    if not ids:
        print("no experiments selected (use ids or --all)", file=sys.stderr)
        return 2
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        return 2
    workers = getattr(args, "workers", 1)
    if workers > 1 and len(ids) > 1:
        # Each experiment is self-contained (fresh worlds, fresh
        # networks), so whole experiments farm out cleanly; tables are
        # printed in id order regardless of completion order.
        from repro.parallel import POOL_UNAVAILABLE, get_pool

        try:
            pool = get_pool(min(workers, len(ids)))
            futures = [pool.submit(_render_experiment, i) for i in ids]
            for future in futures:
                print(future.result())
                print()
            return 0
        except POOL_UNAVAILABLE as exc:
            # An error raised by an experiment itself propagates.
            print(f"parallel run unavailable ({exc}); running serially",
                  file=sys.stderr)
    for experiment_id in ids:
        print(_render_experiment(experiment_id))
        print()
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    for experiment_id, fn in EXPERIMENTS.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"{experiment_id:5s} {doc}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.broker import (
        AdmissionConfig,
        BrokerService,
        SessionBudget,
        start_server,
    )

    mqo = None
    if args.mqo:
        from repro.mqo import MQOConfig

        mqo = MQOConfig(
            epoch_size=args.mqo_epoch_size,
            epoch_window=args.mqo_epoch_window,
        )
    live_obs = None
    if args.live_obs:
        from repro.obs.live import LiveObsConfig

        live_obs = LiveObsConfig(
            qerror_sample_every=args.qerror_sample,
            data_seed=args.seed,
        )
    service = BrokerService(
        world_config=dict(
            nodes=args.nodes,
            n_relations=args.relations,
            rows=args.rows,
            fragments=args.fragments,
            replicas=args.replicas,
            seed=args.seed,
        ),
        admission=AdmissionConfig(
            max_concurrent=args.max_concurrent,
            queue_limit=args.queue_limit,
            budget=SessionBudget(
                rounds=args.budget_rounds, offers=args.budget_offers
            ),
        ),
        mqo=mqo,
        live_obs=live_obs,
    )
    server = start_server(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    modes = ", ".join(
        name
        for name, on in (("mqo=on", args.mqo), ("live-obs=on", args.live_obs))
        if on
    )
    print(f"broker listening on {server.url}" + (f" ({modes})" if modes else ""))
    print(f"  POST {server.url}/sessions          submit a query")
    print(f"  GET  {server.url}/sessions/<id>     session status")
    print(f"  GET  {server.url}/sessions/<id>/result")
    print(f"  GET  {server.url}/sessions/<id>/explain"
          '  (submitted with "trace": true)')
    print(f"  GET  {server.url}/metrics", end="")
    if args.live_obs:
        print()
        print(f"  GET  {server.url}/metrics/prom      Prometheus text format")
        print(f"  GET  {server.url}/sites             per-site live registry")
        print(f"  GET  {server.url}/events?since=N    recent event ring",
              end="")
    # Flush so wrappers piping stdout see the URL before first request.
    print(flush=True)
    # SIGTERM takes the same graceful path as Ctrl-C (handlers can only
    # be set from the main thread; an embedded caller keeps its own).
    previous = None
    if threading.current_thread() is threading.main_thread():
        previous = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    try:
        while True:
            # Short naps, not one long one: the kernel may hand the
            # signal to a worker thread, and the handler then runs only
            # when this thread next wakes (seen: a SIGTERM during a
            # session left a sleep(3600) undisturbed).
            time.sleep(0.5)
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown_broker()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    return 0


def _raise_keyboard_interrupt(signum, frame):
    raise KeyboardInterrupt


def _cmd_sites(args: argparse.Namespace) -> int:
    import json as json_module
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + "/sites"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            body = resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace").strip()
        print(f"broker refused {url}: HTTP {exc.code} {detail}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot reach broker at {url}: {exc}", file=sys.stderr)
        return 2
    payload = json_module.loads(body)
    if args.json:
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0
    from repro.obs.report import _table

    registry = payload["sites"]
    print(
        f"broker live registry: {registry['sessions']} sessions, "
        f"{registry['rounds']} rounds, "
        f"rfb fanout {registry['rfb_fanout']} "
        f"(response ratio {registry['response_ratio']:.1%})"
    )
    if registry["sites"]:
        figures = payload["operational"]
        worst_p90: dict[str, float] = {}
        for key, cell in payload.get("qerror", {}).get("cells", {}).items():
            site = key.rpartition("|")[0]
            worst_p90[site] = max(worst_p90.get(site, 0.0), cell["p90"])
        print("live per-site statistics (broker live-obs registry):")
        print(_table(
            ["site", "wins", "losses", "win rate", "mean settled",
             "p95 offer latency", "q-error p90"],
            [
                [
                    site,
                    stats["wins"],
                    stats["losses"],
                    f"{stats['win_rate']:.1%}",
                    format(figures[site]["settled_price_mean"], ".4g"),
                    format(figures[site]["offer_latency_p95_s"], ".4g"),
                    format(worst_p90[site], ".4g")
                    if site in worst_p90 else "-",
                ]
                for site, stats in registry["sites"].items()
            ],
        ))
    offenders = payload.get("worst_estimators") or []
    if offenders:
        print()
        print("worst estimator buckets (by q-error p90):")
        for entry in offenders:
            print(
                f"  {entry.get('site', '?')} x{entry.get('relations', '?')} "
                f"relations: p90={entry.get('p90', 0.0):g} "
                f"mean={entry.get('mean', 0.0):g} "
                f"n={entry.get('count', 0)}"
            )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "trade": _cmd_trade,
        "explain": _cmd_explain,
        "critical-path": _cmd_critical_path,
        "diff-trace": _cmd_diff_trace,
        "bench-check": _cmd_bench_check,
        "telecom": _cmd_telecom,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "list-experiments": _cmd_list,
        "serve": _cmd_serve,
        "sites": _cmd_sites,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
