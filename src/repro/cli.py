"""Command-line interface.

::

    python -m repro explain  script.scope --catalog catalog.json
    python -m repro compare  script.scope --catalog catalog.json
    python -m repro run      script.scope --catalog catalog.json --rows 5000
    python -m repro profile  script.scope --catalog catalog.json
    python -m repro verify   script.scope --catalog catalog.json
    python -m repro figure7

``explain`` optimizes a script and prints the chosen plan (optionally as
Graphviz or JSON); ``compare`` shows conventional vs CSE side by side;
``run`` additionally executes the plan on the cluster simulator over
synthetic data matching the catalog statistics and cross-checks the
result against the naive reference evaluator (``--profile`` appends the
span tree and cardinality-feedback reports, ``--trace-out`` /
``--chrome-trace`` export the trace); ``profile`` is the dedicated
end-to-end profiler — span tree, per-vertex q-error table, top-k
makespan hotspots; ``verify`` statically checks every optimized plan
against the invariant catalog of ``repro.verify`` and prints a
structured violation report; ``figure7`` regenerates the paper's
headline table.

Live telemetry (``docs/observability.md``): ``serve`` grows
``--metrics-out FILE`` (write the final metrics snapshot as JSON) and
``--metrics-port N`` (serve ``/metrics``, ``/metrics.json`` and
``/healthz`` over HTTP for the workload's duration), and ``top``
renders the terminal dashboard — tenant SLO table, shared-work
savings, latency histograms — from either surface.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .api import execute_script, optimize_script
from .cse.merge import BatchMergeError
from .exec import BACKEND_NAMES, RUNTIME_NAMES, ExecutionError, KillPlan
from .frontend import (
    FrontendError,
    compile_text,
    detect_dialect,
    dialect_names,
    format_diagnostic,
)
from .naive import NaiveEvaluator
from .obs import (
    NULL_TRACER,
    Tracer,
    cardinality_table,
    hotspot_table,
    render_span_tree,
    write_chrome_trace,
    write_jsonl,
)
from .optimizer.cost import CostParams
from .optimizer.engine import OptimizerConfig
from .optimizer.explain import (
    compare_plans,
    explain_dict,
    explain_text,
    render_stages,
    stage_graph,
    to_dot,
)
from .scope.statistics import catalog_from_json
from .verify import verify_plan
from .workloads.datagen import generate_for_catalog


def _load_catalog(path: str):
    with open(path) as handle:
        return catalog_from_json(handle.read())


def _load_script(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _script_dialect(args, path: str, text: str) -> str:
    """Resolve the frontend dialect for one script.

    ``--dialect auto`` (the default) detects per script: the file
    extension wins (``.sql`` vs ``.scope``/``.script``), falling back
    to a content sniff — which is all there is for stdin (``-``).
    """
    name = getattr(args, "dialect", "auto")
    if name == "auto":
        return detect_dialect(text, path=None if path == "-" else path)
    return name


def _config(args) -> OptimizerConfig:
    return OptimizerConfig(
        cost_params=CostParams(machines=args.machines),
        budget_seconds=args.budget,
        max_rounds=args.max_rounds,
    )


def cmd_explain(args) -> int:
    catalog = _load_catalog(args.catalog)
    text = _load_script(args.script)
    config = _config(args)
    if getattr(args, "trace", False):
        import dataclasses

        config = dataclasses.replace(config, trace=True)
    result = optimize_script(
        text, catalog, config, exploit_cse=not args.no_cse,
        dialect=_script_dialect(args, args.script, text),
    )
    fmt = args.format or ("json" if args.json else
                          "dot" if args.dot else "text")
    if fmt == "json":
        print(json.dumps(explain_dict(result.plan), indent=2))
    elif fmt == "dot":
        print(to_dot(result.plan))
    else:
        print(explain_text(result.plan, total_cost=result.cost))
        print()
        print(render_stages(stage_graph(result.plan)))
        details = result.details
        if result.exploited_cse:
            print(f"\nshared groups: {len(details.report.shared_groups)}  "
                  f"phase-2 rounds: {details.engine.stats.rounds}  "
                  f"chosen phase: {details.chosen_phase}  "
                  f"{details.phase2_summary()}")
        if getattr(args, "trace", False) and details.engine.trace is not None:
            from .optimizer.trace import render_trace

            print()
            print(render_trace(details.engine.trace))
    return 0


def cmd_compare(args) -> int:
    catalog = _load_catalog(args.catalog)
    text = _load_script(args.script)
    dialect = _script_dialect(args, args.script, text)
    conventional = optimize_script(text, catalog, _config(args),
                                   exploit_cse=False, dialect=dialect)
    extended = optimize_script(text, catalog, _config(args),
                               exploit_cse=True, dialect=dialect)
    print("=== conventional plan ===")
    print(conventional.plan.pretty())
    print("=== plan exploiting common subexpressions ===")
    print(extended.plan.pretty())
    print(compare_plans(conventional.plan, extended.plan,
                        conventional.cost, extended.cost))
    return 0


def _wants_tracing(args) -> bool:
    return bool(
        getattr(args, "profile", False)
        or getattr(args, "trace_out", None)
        or getattr(args, "chrome_trace", None)
    )


def _emit_observability(args, tracer, metrics) -> None:
    """Shared tail of ``run --profile`` and ``profile``."""
    if getattr(args, "profile", True):
        print("--- span tree ---")
        print(render_span_tree(tracer))
        print("--- cardinality feedback (worst q-error first) ---")
        print(cardinality_table(metrics))
        top = getattr(args, "top", 5)
        print(f"--- top {top} hotspots by simulated makespan share ---")
        print(hotspot_table(metrics, top))
    if getattr(args, "trace_out", None):
        write_jsonl(tracer, args.trace_out)
        print(f"trace written to {args.trace_out} (JSON lines)")
    if getattr(args, "chrome_trace", None):
        write_chrome_trace(tracer, args.chrome_trace)
        print(f"trace written to {args.chrome_trace} "
              "(chrome://tracing format)")


def _explain_exec(backend: str, metrics) -> None:
    """``--explain-exec``: which engine ran, and how many batches."""
    print("--- execution backend ---")
    print(f"backend: {backend}")
    for name in sorted(metrics.batches_processed):
        print(f"batches processed [{name}]: "
              f"{metrics.batches_processed[name]}")
    if metrics.vertices:
        print("per-vertex batches:")
        for vname in sorted(metrics.vertices):
            print(f"  {vname}: {metrics.vertices[vname].batches}")


def _run_feedback(args, catalog, text, files, dialect: str = "auto") -> int:
    """``repro run --feedback``: drive the learned-statistics loop.

    Executes the script ``--feedback-runs`` times through one
    :class:`~repro.service.QueryService` with the cardinality-feedback
    controller enabled (``docs/feedback.md``): measured fragment
    cardinalities from each run feed corrections, and later rounds
    serve the risk-gated re-optimized plan from the cache.  Prints one
    line per round plus the decision cards; ``--feedback-log`` writes
    them as JSON lines.
    """
    from .service import QueryService
    from .stats.feedback import FeedbackConfig

    service = QueryService(
        catalog, _config(args),
        feedback=FeedbackConfig(
            qerror_threshold=args.feedback_qerror,
            min_observations=args.feedback_min_obs,
        ),
    )
    expected = NaiveEvaluator(files).run(
        compile_text(text, catalog, dialect=dialect)
    )
    status = 0
    processed: list = []
    for round_no in range(args.feedback_runs):
        run = service.execute(
            text, workers=args.workers, machines=args.machines,
            files=files, exploit_cse=not args.no_cse,
            backend=args.backend, dialect=dialect,
        )
        processed.append(run.metrics.rows_processed())
        outcome = "hit " if run.submit.cache_hit else "miss"
        print(f"[{round_no}] {outcome} {run.submit.key.short}  "
              f"cost={run.submit.result.cost:,.0f}  "
              f"rows_processed={processed[-1]:,}")
        mismatches = [
            path for path, want in expected.items()
            if run.outputs[path].sorted_rows() != want
        ]
        if mismatches:
            print(f"RESULT MISMATCH vs naive evaluation: {mismatches}",
                  file=sys.stderr)
            status = 1
    controller = service.feedback
    print("--- feedback decisions ---")
    if not controller.decisions:
        print("  (none)")
    for card in controller.decisions:
        print(f"  {card.action}: {card.detection}")
    print("--- feedback counters ---")
    for name, value in sorted(controller.stats_snapshot().items()):
        print(f"  {name}: {value}")
    if len(processed) > 1 and processed[0] > 0:
        change = processed[-1] / processed[0] - 1.0
        print(f"rows processed: {processed[0]:,} -> {processed[-1]:,} "
              f"({change:+.1%})")
    if args.feedback_log:
        count = controller.dump_decisions(args.feedback_log)
        print(f"{count} decision card(s) written to {args.feedback_log}")
    if status == 0:
        print("verified: results identical to the naive reference "
              "evaluation in every round")
    return status


def _feedback_arg(args):
    """The ``feedback=`` value for ``QueryService`` from serve flags.

    ``--feedback-store PATH`` implies the feedback loop and persists
    the learned store across restarts (``docs/feedback.md``).
    """
    if getattr(args, "feedback_store", None):
        from .stats.feedback import FeedbackConfig

        return FeedbackConfig(persist_path=args.feedback_store)
    return args.feedback


def _telemetry_wanted(args) -> bool:
    return bool(getattr(args, "metrics_out", None)
                or getattr(args, "metrics_port", None) is not None)


def _start_metrics_server(args, collector, health):
    """Start the ``/metrics`` + ``/healthz`` endpoint when
    ``--metrics-port`` was given; returns the server or None."""
    if getattr(args, "metrics_port", None) is None:
        return None
    from .obs import MetricsServer

    server = MetricsServer(collector, health=health,
                           port=args.metrics_port).start()
    print(f"metrics: /metrics /metrics.json /healthz on {server.url}")
    return server


def _write_metrics_out(args, collector) -> None:
    """``--metrics-out``: persist the snapshot ``repro top`` renders."""
    if not getattr(args, "metrics_out", None):
        return
    with open(args.metrics_out, "w") as handle:
        json.dump(collector.snapshot(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"metrics snapshot written to {args.metrics_out}")


def _kill_plan(args) -> Optional[KillPlan]:
    """Build the crash-fault plan from ``--kill-*`` flags (run only)."""
    if not (args.kill_vertex or args.kill_times):
        return None
    if args.runtime != "process":
        raise SystemExit(
            "error: --kill-vertex/--kill-times require --runtime process"
        )
    return KillPlan(
        vertex=args.kill_vertex,
        nth_task=args.kill_nth_task,
        times=args.kill_times or 1,
    )


def cmd_run(args) -> int:
    catalog = _load_catalog(args.catalog)
    text = _load_script(args.script)
    files = generate_for_catalog(catalog, seed=args.seed,
                                 rows_override=args.rows)
    dialect = _script_dialect(args, args.script, text)
    if args.feedback:
        return _run_feedback(args, catalog, text, files, dialect)
    tracer = Tracer() if _wants_tracing(args) else NULL_TRACER
    run = execute_script(
        text,
        catalog,
        _config(args),
        exploit_cse=not args.no_cse,
        workers=args.workers,
        machines=args.machines,
        files=files,
        failure_rate=args.inject_failures,
        failure_seed=args.failure_seed
        if args.failure_seed is not None else args.seed,
        max_retries=args.max_retries,
        backend=args.backend,
        runtime=args.runtime,
        spill_dir=args.spill_dir,
        keep_spill=args.keep_spill,
        kill_plan=_kill_plan(args),
        tracer=tracer,
        dialect=dialect,
    )
    outputs = run.outputs

    expected = NaiveEvaluator(files).run(
        compile_text(text, catalog, dialect=dialect)
    )
    mismatches = [
        path
        for path, want in expected.items()
        if outputs[path].sorted_rows() != want
    ]

    print(f"estimated cost: {run.optimization.cost:,.0f}")
    if args.workers:
        mode = (
            f"{args.runtime} scheduler, {args.workers} workers"
            + (f", fault rate {args.inject_failures}"
               if args.inject_failures else "")
        )
    else:
        mode = "sequential executor"
    print(f"executed on: {mode}")
    print("--- execution metrics ---")
    print(run.metrics.summary())
    vertex_table = run.metrics.vertex_table()
    if vertex_table:
        print("--- vertices ---")
        print(vertex_table)
    if args.explain_exec:
        _explain_exec(run.backend, run.metrics)
    print("--- outputs ---")
    for path in sorted(outputs):
        data = outputs[path]
        print(f"  {path}: {data.total_rows()} rows "
              f"({len(data.schema)} columns)")
        if args.show_rows:
            for row in data.sorted_rows()[: args.show_rows]:
                print(f"    {row}")
    if _wants_tracing(args):
        _emit_observability(args, tracer, run.metrics)
    if args.stats_json:
        with open(args.stats_json, "w") as handle:
            json.dump(run.metrics.as_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"execution metrics written to {args.stats_json}")
    if mismatches:
        print(f"RESULT MISMATCH vs naive evaluation: {mismatches}",
              file=sys.stderr)
        return 1
    print("verified: results identical to the naive reference evaluation")
    return 0


def cmd_profile(args) -> int:
    catalog = _load_catalog(args.catalog)
    text = _load_script(args.script)
    files = generate_for_catalog(catalog, seed=args.seed,
                                 rows_override=args.rows)
    tracer = Tracer()
    run = execute_script(
        text,
        catalog,
        _config(args),
        exploit_cse=not args.no_cse,
        workers=args.workers,
        machines=args.machines,
        files=files,
        tracer=tracer,
        dialect=_script_dialect(args, args.script, text),
    )
    print(f"estimated cost: {run.optimization.cost:,.0f}")
    print(f"executed on: scheduler, {args.workers} workers"
          if args.workers else "executed on: sequential executor")
    print("--- span tree ---")
    print(render_span_tree(tracer))
    print("--- cardinality feedback (worst q-error first) ---")
    print(cardinality_table(run.metrics))
    print(f"--- top {args.top} hotspots by simulated makespan share ---")
    print(hotspot_table(run.metrics, args.top))
    if args.trace_out:
        write_jsonl(tracer, args.trace_out)
        print(f"trace written to {args.trace_out} (JSON lines)")
    if args.chrome_out:
        write_chrome_trace(tracer, args.chrome_out)
        print(f"trace written to {args.chrome_out} "
              "(chrome://tracing format)")
    return 0


def cmd_verify(args) -> int:
    catalog = _load_catalog(args.catalog)
    text = _load_script(args.script)
    dialect = _script_dialect(args, args.script, text)
    config = _config(args)
    modes = [("cse", True)]
    if args.no_cse:
        modes = [("conventional", False)]
    elif not args.cse_only:
        modes.append(("conventional", False))

    reports = {}
    failed = False
    for label, exploit_cse in modes:
        result = optimize_script(text, catalog, config,
                                 exploit_cse=exploit_cse, verify=False,
                                 dialect=dialect)
        plans = {"chosen": result.plan}
        if args.phases and exploit_cse:
            details = result.details
            if details.phase1_plan is not None:
                plans["phase1"] = details.phase1_plan
            if details.phase2_plan is not None:
                plans["phase2"] = details.phase2_plan
        for plan_label, plan in plans.items():
            report = verify_plan(plan)
            reports[f"{label}/{plan_label}"] = report
            failed = failed or not report.ok

    if args.json:
        print(json.dumps(
            {name: report.to_dict() for name, report in reports.items()},
            indent=2,
        ))
    else:
        for name, report in reports.items():
            print(f"--- {name} ---")
            print(report.render())
    return 1 if failed else 0


def _serve_stream(args, catalog, texts) -> int:
    """``repro serve --stream``: concurrent clients feed one admission
    controller; windows merge into shared batches on the scheduler.

    Spawns ``--tenants`` client threads, each submitting the whole
    workload ``--repeat`` times through a started
    :class:`~repro.service.AdmissionController` with blocking
    ``submit``; prints the per-tenant tally and the admission counters
    (optionally as JSON via ``--stats-json``).
    """
    import threading

    from .service import AdmissionConfig, AdmissionController, QueryService

    service = QueryService(catalog, _config(args),
                           cache_capacity=args.cache_capacity,
                           feedback=_feedback_arg(args),
                           metrics=_telemetry_wanted(args))
    controller = AdmissionController(
        service,
        config=AdmissionConfig(
            window=args.window_ms / 1000.0,
            max_pending=args.max_pending,
            max_batch=args.max_batch,
        ),
        workers=args.workers,
        machines=args.machines,
        rows=args.rows,
        seed=args.seed,
        backend=args.backend,
        failure_rate=args.inject_failures,
        failure_seed=(args.seed if args.failure_seed is None
                      else args.failure_seed),
        max_retries=args.max_retries,
        runtime=args.runtime,
        spill_dir=args.spill_dir,
    )
    done, errors = [], []
    lock = threading.Lock()

    def client(tenant: str) -> None:
        for _ in range(args.repeat):
            for path, text in texts:
                try:
                    result = controller.submit(
                        text, tenant=tenant,
                        exploit_cse=not args.no_cse, timeout=300,
                        dialect=_script_dialect(args, path, text),
                    )
                except Exception as exc:  # noqa: BLE001 - tallied below
                    with lock:
                        errors.append((tenant, path, exc))
                else:
                    with lock:
                        done.append((tenant, path, result))

    threads = [
        threading.Thread(target=client, args=(f"t{i}",))
        for i in range(args.tenants)
    ]
    server = _start_metrics_server(args, service.metrics_collector,
                                   controller.health)
    try:
        with controller:
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        deduped = sum(1 for _, _, r in done if r.deduped)
        print(f"{args.tenants} tenant(s) x {args.repeat} pass(es) x "
              f"{len(texts)} script(s): {len(done)} served "
              f"({deduped} deduped in-window), {len(errors)} failed")
        for tenant, path, exc in errors:
            print(f"  FAILED {tenant} {path}: {exc}")
        snapshot = controller.stats_snapshot()
        print("--- admission counters ---")
        for name, value in sorted(snapshot.items()):
            print(f"  {name}: {value}")
        if service.feedback is not None:
            print("--- feedback counters ---")
            for name, value in sorted(
                    service.feedback.stats_snapshot().items()):
                print(f"  {name}: {value}")
            if args.feedback_log:
                count = service.feedback.dump_decisions(args.feedback_log)
                print(f"{count} decision card(s) written to "
                      f"{args.feedback_log}")
        if args.stats_json:
            with open(args.stats_json, "w") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
            print(f"counters written to {args.stats_json}")
        if service.metrics_collector is not None:
            _write_metrics_out(args, service.metrics_collector)
        if server is not None and args.metrics_linger > 0:
            # Keep /metrics and /healthz scrapeable after the workload
            # drains (CI curls the endpoint of a backgrounded run).
            import time

            time.sleep(args.metrics_linger)
    finally:
        if server is not None:
            server.stop()
    return 1 if errors else 0


def cmd_serve(args) -> int:
    """Feed scripts through one long-lived :class:`QueryService`.

    Submits every script ``--repeat`` times against one service, so
    repeated submissions exercise the plan cache; prints one line per
    submission (hit/miss/coalesced, cost, fingerprint) and the final
    service + cache counters, optionally as JSON (``--stats-json``).
    With ``--stream``, runs the windowed admission front-end instead:
    concurrent tenants submit into shared execution windows.
    """
    from .service import QueryService

    catalog = _load_catalog(args.catalog)
    texts = [(path, _load_script(path)) for path in args.scripts]
    if args.stream:
        return _serve_stream(args, catalog, texts)
    service = QueryService(catalog, _config(args),
                           cache_capacity=args.cache_capacity,
                           feedback=_feedback_arg(args),
                           metrics=_telemetry_wanted(args))
    server = _start_metrics_server(args, service.metrics_collector,
                                   service.health)
    try:
        for round_no in range(args.repeat):
            for path, text in texts:
                sub = service.submit(
                    text, exploit_cse=not args.no_cse,
                    dialect=_script_dialect(args, path, text),
                )
                outcome = "hit " if sub.cache_hit else "miss"
                print(f"[{round_no}] {outcome} {sub.key.short}  "
                      f"cost={sub.result.cost:,.0f}  {path}")
        snapshot = service.stats_snapshot()
        print("--- service counters ---")
        for name, value in snapshot.items():
            print(f"  {name}: {value}")
        if service.feedback is not None and args.feedback_log:
            count = service.feedback.dump_decisions(args.feedback_log)
            print(f"{count} decision card(s) written to "
                  f"{args.feedback_log}")
        if args.stats_json:
            with open(args.stats_json, "w") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
            print(f"counters written to {args.stats_json}")
        if service.metrics_collector is not None:
            _write_metrics_out(args, service.metrics_collector)
        if server is not None and args.metrics_linger > 0:
            import time

            time.sleep(args.metrics_linger)
    finally:
        if server is not None:
            server.stop()
    return 0


def cmd_batch(args) -> int:
    """Optimize and execute a batch of scripts as one shared job."""
    from .service import QueryService

    catalog = _load_catalog(args.catalog)
    service = QueryService(catalog, _config(args))
    texts = [_load_script(path) for path in args.scripts]
    labels = args.labels.split(",") if args.labels else None
    # Mixed-dialect batches are fine: compile each script under its own
    # detected dialect and hand the merged plans to the service.
    plans = [
        service._compile(text, _script_dialect(args, path, text))
        for path, text in zip(args.scripts, texts)
    ]
    run = service.execute_many(
        texts, labels=labels, workers=args.workers,
        machines=args.machines, rows=args.rows, seed=args.seed,
        exploit_cse=not args.no_cse, backend=args.backend,
        runtime=args.runtime, spill_dir=args.spill_dir,
        precompiled=plans,
    )
    print(f"merged {len(texts)} script(s) "
          f"({', '.join(run.submit.labels)}); "
          f"estimated cost: {run.submit.result.cost:,.0f}")
    shared = run.shared_vertices()
    if shared:
        print("--- cross-script shared vertices (executed once) ---")
        for vertex in shared:
            stats = run.metrics.vertices.get(vertex.name)
            launches = stats.launches if stats else 0
            print(f"  {vertex.name}: launches={launches} "
                  f"serves={', '.join(vertex.serves)}")
    elif args.workers:
        print("no cross-script shared vertices")
    print("--- execution metrics ---")
    print(run.metrics.summary())
    if args.explain_exec:
        _explain_exec(run.backend, run.metrics)
    print("--- per-script outputs ---")
    for label, outputs in zip(run.submit.labels, run.outputs):
        for path in sorted(outputs):
            data = outputs[path]
            print(f"  {label}/{path}: {data.total_rows()} rows")
            if args.show_rows:
                for row in data.sorted_rows()[: args.show_rows]:
                    print(f"    {row}")
    return 0


def cmd_top(args) -> int:
    """``repro top`` — render the service health dashboard from a
    metrics snapshot file (``repro serve --metrics-out``) or a live
    ``--metrics-port`` endpoint (``http://host:port``)."""
    from .obs.top import load_source, render_dashboard

    try:
        doc = load_source(args.source)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_dashboard(doc), end="")
    return 0


def cmd_figure7(args) -> int:
    from .workloads.figure7 import format_table, run_all

    scripts = args.scripts.split(",") if args.scripts else None
    print(format_table(run_all(scripts, include_local_best=args.local_best)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cost-based common-subexpression optimizer (ICDE 2012 "
        "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_script=True):
        if needs_script:
            p.add_argument("script",
                           help="path to a SCOPE or SQL script "
                           "('-' reads stdin)")
            p.add_argument("--catalog", required=True,
                           help="path to a catalog JSON file")
        p.add_argument("--dialect", choices=("auto",) + dialect_names(),
                       default="auto",
                       help="script frontend; 'auto' detects from the "
                       "file extension (.sql vs .scope/.script) or the "
                       "text (default auto)")
        p.add_argument("--machines", type=int, default=25,
                       help="simulated cluster size (default 25)")
        p.add_argument("--budget", type=float, default=None,
                       help="optimization time budget in seconds")
        p.add_argument("--max-rounds", type=int, default=None,
                       help="cap on phase-2 enforcement rounds")
        p.add_argument("--no-cse", action="store_true",
                       help="conventional optimization only")

    p_explain = sub.add_parser("explain", help="optimize and show the plan")
    common(p_explain)
    p_explain.add_argument("--format", choices=("text", "json", "dot"),
                           default=None,
                           help="output format (default text; overrides "
                           "--json/--dot)")
    p_explain.add_argument("--json", action="store_true",
                           help="emit the plan as JSON")
    p_explain.add_argument("--dot", action="store_true",
                           help="emit the plan as Graphviz dot")
    p_explain.add_argument("--trace", action="store_true",
                           help="also print the optimizer's search trace")
    p_explain.set_defaults(func=cmd_explain)

    p_compare = sub.add_parser(
        "compare", help="conventional vs CSE plans side by side"
    )
    common(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_run = sub.add_parser(
        "run", help="optimize, execute on the simulator, verify vs oracle"
    )
    common(p_run)
    p_run.add_argument("--rows", type=int, default=5_000,
                       help="rows generated per input file (default 5000)")
    p_run.add_argument("--seed", type=int, default=0, help="data seed")
    p_run.add_argument("--show-rows", type=int, default=0,
                       help="print up to N rows per output")
    p_run.add_argument("--workers", type=int, default=0,
                       help="run on the task-parallel vertex scheduler "
                       "with N worker threads (0 = sequential executor)")
    p_run.add_argument("--inject-failures", type=float, default=0.0,
                       metavar="RATE",
                       help="seeded per-task failure probability "
                       "(scheduler only, e.g. 0.1)")
    p_run.add_argument("--max-retries", type=int, default=3,
                       help="retry budget per task before the job fails "
                       "(default 3)")
    p_run.add_argument("--failure-seed", type=int, default=None,
                       help="fault-injection seed (defaults to --seed)")
    p_run.add_argument("--runtime", choices=RUNTIME_NAMES,
                       default="thread",
                       help="scheduler substrate: thread (in-process "
                       "workers) or process (forked workers, wire-format "
                       "exchanges spilled to disk); results and counters "
                       "are identical (default thread)")
    p_run.add_argument("--spill-dir", default=None, metavar="DIR",
                       help="root directory for the process runtime's "
                       "run-scoped spill files (default: a temp dir)")
    p_run.add_argument("--keep-spill", action="store_true",
                       help="preserve the spill directory and manifest "
                       "after a successful run (process runtime)")
    p_run.add_argument("--kill-vertex", default=None, metavar="NAME",
                       help="crash-fault injection: SIGKILL the worker "
                       "dispatched this vertex's task (process runtime; "
                       "e.g. 'V01:HashAgg')")
    p_run.add_argument("--kill-nth-task", type=int, default=0,
                       metavar="N",
                       help="skip N matching dispatches before killing "
                       "(default 0: the first)")
    p_run.add_argument("--kill-times", type=int, default=0, metavar="N",
                       help="kill N consecutive matching dispatches; "
                       "without --kill-vertex this kills on any vertex "
                       "(default 1 when --kill-vertex is given)")
    p_run.add_argument("--profile", action="store_true",
                       help="append the span tree and the "
                       "cardinality-feedback / hotspot reports")
    p_run.add_argument("--trace-out", default=None, metavar="FILE",
                       help="export the trace as JSON lines")
    p_run.add_argument("--chrome-trace", default=None, metavar="FILE",
                       help="export the trace in chrome://tracing format")
    p_run.add_argument("--top", type=int, default=5,
                       help="hotspots to list with --profile (default 5)")
    p_run.add_argument("--backend", choices=BACKEND_NAMES, default="row",
                       help="execution engine: row (dict-per-row) or "
                       "columnar (vectorized column batches); outputs are "
                       "byte-identical (default row)")
    p_run.add_argument("--feedback", action="store_true",
                       help="run the script repeatedly through a query "
                       "service with the cardinality-feedback loop "
                       "enabled (docs/feedback.md); later rounds serve "
                       "the risk-gated re-optimized plan")
    p_run.add_argument("--feedback-runs", type=int, default=2,
                       help="rounds to execute with --feedback "
                       "(default 2: observe, then serve the corrected "
                       "plan)")
    p_run.add_argument("--feedback-qerror", type=float, default=2.0,
                       help="q-error threshold that triggers a "
                       "correction (--feedback; default 2.0)")
    p_run.add_argument("--feedback-min-obs", type=int, default=1,
                       help="observations required before a correction "
                       "may publish (--feedback; default 1)")
    p_run.add_argument("--feedback-log", default=None, metavar="FILE",
                       help="write the feedback decision cards as JSON "
                       "lines (--feedback)")
    p_run.add_argument("--explain-exec", action="store_true",
                       help="print the chosen backend and per-vertex "
                       "batch counts")
    p_run.add_argument("--stats-json", default=None, metavar="FILE",
                       help="write the execution metrics (flat counter/"
                       "operator labels plus per-vertex stats) as JSON")
    p_run.set_defaults(func=cmd_run)

    p_profile = sub.add_parser(
        "profile", help="end-to-end traced run: span tree, q-error table, "
        "makespan hotspots"
    )
    common(p_profile)
    p_profile.add_argument("--rows", type=int, default=5_000,
                           help="rows generated per input file "
                           "(default 5000)")
    p_profile.add_argument("--seed", type=int, default=0, help="data seed")
    p_profile.add_argument("--workers", type=int, default=4,
                           help="scheduler worker threads (default 4; "
                           "0 = sequential executor, no vertex stats)")
    p_profile.add_argument("--top", type=int, default=5,
                           help="hotspots to list (default 5)")
    p_profile.add_argument("--trace-out", default=None, metavar="FILE",
                           help="export the trace as JSON lines")
    p_profile.add_argument("--chrome-out", default=None, metavar="FILE",
                           help="export the trace in chrome://tracing "
                           "format")
    p_profile.set_defaults(func=cmd_profile)

    p_verify = sub.add_parser(
        "verify", help="statically check optimized plans against the "
        "invariant catalog"
    )
    common(p_verify)
    p_verify.add_argument("--json", action="store_true",
                          help="emit the violation report as JSON")
    p_verify.add_argument("--phases", action="store_true",
                          help="also verify the per-phase plans, not just "
                          "the chosen one")
    p_verify.add_argument("--cse-only", action="store_true",
                          help="skip the conventional baseline plan")
    p_verify.set_defaults(func=cmd_verify)

    p_serve = sub.add_parser(
        "serve", help="submit scripts through a plan-caching query service"
    )
    p_serve.add_argument("scripts", nargs="+",
                         help="paths to SCOPE or SQL scripts "
                         "(the workload)")
    p_serve.add_argument("--catalog", required=True,
                         help="path to a catalog JSON file")
    common(p_serve, needs_script=False)
    p_serve.add_argument("--repeat", type=int, default=2,
                         help="passes over the workload (default 2: the "
                         "second pass hits the plan cache)")
    p_serve.add_argument("--cache-capacity", type=int, default=64,
                         help="plan-cache entries (default 64)")
    p_serve.add_argument("--stats-json", default=None, metavar="FILE",
                         help="write the final service/cache counters as "
                         "JSON")
    p_serve.add_argument("--stream", action="store_true",
                         help="streaming admission mode: concurrent tenants "
                         "submit into time windows that execute as one "
                         "shared batch")
    p_serve.add_argument("--window-ms", type=float, default=50.0,
                         help="admission window length in milliseconds "
                         "(--stream; default 50)")
    p_serve.add_argument("--max-pending", type=int, default=256,
                         help="bounded-queue backpressure limit "
                         "(--stream; default 256)")
    p_serve.add_argument("--max-batch", type=int, default=64,
                         help="scripts drained per window flush "
                         "(--stream; default 64)")
    p_serve.add_argument("--tenants", type=int, default=4,
                         help="concurrent client threads "
                         "(--stream; default 4)")
    p_serve.add_argument("--workers", type=int, default=4,
                         help="scheduler worker threads per window "
                         "(--stream; default 4)")
    p_serve.add_argument("--rows", type=int, default=2_000,
                         help="rows generated per input file "
                         "(--stream; default 2000)")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="data seed (--stream)")
    p_serve.add_argument("--backend", choices=BACKEND_NAMES, default="row",
                         help="execution engine for window runs "
                         "(--stream; default row)")
    p_serve.add_argument("--inject-failures", type=float, default=0.0,
                         metavar="RATE",
                         help="seeded per-task failure probability for "
                         "window runs (--stream, e.g. 0.05)")
    p_serve.add_argument("--failure-seed", type=int, default=None,
                         help="fault-injection seed (--stream; defaults "
                         "to --seed)")
    p_serve.add_argument("--max-retries", type=int, default=3,
                         help="retry budget per task (--stream; default 3)")
    p_serve.add_argument("--runtime", choices=RUNTIME_NAMES,
                         default="thread",
                         help="scheduler substrate for window runs "
                         "(--stream; default thread)")
    p_serve.add_argument("--spill-dir", default=None, metavar="DIR",
                         help="spill root for --runtime process "
                         "(--stream; default: a temp dir)")
    p_serve.add_argument("--feedback", action="store_true",
                         help="enable the cardinality-feedback loop on "
                         "the service (docs/feedback.md); corrections "
                         "from executed windows re-optimize cached "
                         "plans (observations require execution, i.e. "
                         "--stream)")
    p_serve.add_argument("--feedback-store", default=None, metavar="FILE",
                         help="enable the feedback loop and persist the "
                         "learned store to FILE (loaded on start when it "
                         "exists, saved after every capture/gate cycle), "
                         "so corrections survive restarts")
    p_serve.add_argument("--feedback-log", default=None, metavar="FILE",
                         help="write the feedback decision cards as "
                         "JSON lines")
    p_serve.add_argument("--metrics-out", default=None, metavar="FILE",
                         help="enable live telemetry and write the final "
                         "metrics snapshot as JSON (render it with "
                         "'repro top FILE')")
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         metavar="N",
                         help="enable live telemetry and serve /metrics, "
                         "/metrics.json and /healthz on 127.0.0.1:N "
                         "(0 = ephemeral port)")
    p_serve.add_argument("--metrics-linger", type=float, default=0.0,
                         metavar="SEC",
                         help="keep the metrics endpoint up SEC seconds "
                         "after the workload finishes (--metrics-port)")
    p_serve.set_defaults(func=cmd_serve)

    p_batch = sub.add_parser(
        "batch", help="merge scripts into one shared job and execute it"
    )
    p_batch.add_argument("scripts", nargs="+",
                         help="paths to SCOPE or SQL scripts to batch")
    p_batch.add_argument("--catalog", required=True,
                         help="path to a catalog JSON file")
    common(p_batch, needs_script=False)
    p_batch.add_argument("--labels", default=None,
                         help="comma-separated per-script labels "
                         "(default q0,q1,...)")
    p_batch.add_argument("--workers", type=int, default=4,
                         help="scheduler worker threads (default 4; "
                         "0 = sequential executor)")
    p_batch.add_argument("--rows", type=int, default=5_000,
                         help="rows generated per input file (default 5000)")
    p_batch.add_argument("--seed", type=int, default=0, help="data seed")
    p_batch.add_argument("--show-rows", type=int, default=0,
                         help="print up to N rows per output")
    p_batch.add_argument("--backend", choices=BACKEND_NAMES, default="row",
                         help="execution engine: row or columnar "
                         "(default row)")
    p_batch.add_argument("--runtime", choices=RUNTIME_NAMES,
                         default="thread",
                         help="scheduler substrate (default thread)")
    p_batch.add_argument("--spill-dir", default=None, metavar="DIR",
                         help="spill root for --runtime process "
                         "(default: a temp dir)")
    p_batch.add_argument("--explain-exec", action="store_true",
                         help="print the chosen backend and per-vertex "
                         "batch counts")
    p_batch.set_defaults(func=cmd_batch)

    p_top = sub.add_parser(
        "top", help="terminal dashboard over a metrics snapshot "
        "(tenant SLO table, savings, latency histograms)"
    )
    p_top.add_argument("source",
                       help="metrics snapshot JSON file (from 'repro "
                       "serve --metrics-out') or the http://host:port "
                       "of a live --metrics-port endpoint")
    p_top.set_defaults(func=cmd_top)

    p_fig = sub.add_parser("figure7", help="regenerate the Figure 7 table")
    p_fig.add_argument("--scripts", default=None,
                       help="comma-separated subset, e.g. S1,S2,LS1")
    p_fig.add_argument("--local-best", action="store_true",
                       help="also measure the related-work sharing baseline")
    p_fig.set_defaults(func=cmd_figure7)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FrontendError as exc:
        # Located parse/lex errors render a source excerpt with a caret.
        print(f"error: {format_diagnostic(exc)}", file=sys.stderr)
        return 2
    except (ExecutionError, BatchMergeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
