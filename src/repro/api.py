"""Top-level convenience API.

Everything the quickstart needs in two calls::

    result = optimize_script(text, catalog)                   # CSE-aware
    baseline = optimize_script(text, catalog, exploit_cse=False)

and one more to actually run the chosen plan on the cluster simulator,
either sequentially or on the task-parallel vertex scheduler::

    run = execute_script(text, catalog, workers=8)
    run.outputs["result1.out"].sorted_rows()
    print(run.metrics.summary())
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from .cse.pipeline import (
    CseOptimizationResult,
    optimize_conventional,
    optimize_with_cse,
)
from .exec import (
    Cluster,
    Dataset,
    ExecutionMetrics,
    FaultInjection,
    PlanExecutor,
    RetryPolicy,
    TaskScheduler,
)
from .exec.backend import get_backend
from .frontend import compile_text
from .obs.tracer import NULL_TRACER
from .optimizer.cost import CostParams
from .optimizer.engine import OptimizerConfig
from .plan.expressions import Row
from .plan.logical import LogicalPlan
from .plan.pruning import prune_columns
from .plan.physical import PhysicalPlan
from .scope.catalog import Catalog
from .scope.compiler import compile_script  # noqa: F401 - re-exported
from .sql import compile_sql, parse_sql  # noqa: F401 - re-exported
from .verify import check_plan, verify_enabled

# Deep scripts (LS2 has >1000 operators) recurse through the engine;
# Python's default limit is too tight for DAGs a few hundred levels deep.
_MIN_RECURSION_LIMIT = 20_000


@dataclass
class OptimizationResult:
    """User-facing optimization outcome."""

    #: The chosen physical plan (a DAG; shared spools appear once).
    plan: PhysicalPlan
    #: DAG-aware estimated cost of the chosen plan.
    cost: float
    #: True if the CSE pipeline ran (phase 2 et al.).
    exploited_cse: bool
    #: The full pipeline result for inspection (memo, histories, LCAs,
    #: engine statistics, per-phase plans).
    details: CseOptimizationResult

    def explain(self) -> str:
        """Readable plan rendering with per-node properties and costs."""
        return self.plan.pretty()

    def cse_summary(self) -> str:
        """One-paragraph summary of what the CSE pipeline did.

        Covers the shared groups found (explicit vs fingerprint-merged),
        the LCAs, the phase-2 rounds evaluated, and which phase produced
        the chosen plan.
        """
        details = self.details
        if not self.exploited_cse:
            return "conventional optimization (CSE pipeline not run)"
        report = details.report
        lines = [
            f"shared groups: {len(report.shared_groups)} "
            f"({len(report.explicit_shared)} explicit, "
            f"{len(report.merged)} textual duplicate(s) merged)",
        ]
        for shared_gid, lca_gid in sorted(details.propagation.lca.items()):
            consumers = sorted(
                details.propagation.consumers.get(shared_gid, ())
            )
            lines.append(
                f"  group #{shared_gid}: consumers {consumers}, "
                f"LCA group #{lca_gid}"
            )
        stats = details.engine.stats
        lines.append(
            f"phase-2 rounds: {stats.rounds}"
            + (" (budget exhausted)" if stats.budget_exhausted else "")
        )
        lines.append(
            f"chosen plan: phase {details.chosen_phase} "
            f"(phase 1: {details.phase1_cost:,.0f}, "
            f"{details.phase2_summary()})"
        )
        return "\n".join(lines)


def _ensure_recursion_headroom() -> None:
    if sys.getrecursionlimit() < _MIN_RECURSION_LIMIT:
        sys.setrecursionlimit(_MIN_RECURSION_LIMIT)


def optimize_plan(
    logical: LogicalPlan,
    catalog: Catalog,
    config: Optional[OptimizerConfig] = None,
    exploit_cse: bool = True,
    prune: bool = True,
    verify: Optional[bool] = None,
    tracer=NULL_TRACER,
    corrections=None,
) -> OptimizationResult:
    """Optimize an already-compiled logical DAG.

    ``prune`` applies sharing-preserving column pruning first (a
    semantic no-op that narrows scans, projections and aggregations to
    the columns the outputs actually need).

    ``verify`` runs :func:`repro.verify.verify_plan` over the chosen
    plan and raises :class:`repro.verify.PlanVerificationError` on any
    invariant violation.  ``None`` (the default) defers to the global
    default — off normally, on under ``REPRO_VERIFY=1`` or
    :func:`repro.verify.set_default_verify`.

    ``tracer`` (a :class:`repro.obs.Tracer`) records spans for every
    pipeline stage — pruning, CSE detection, both optimization phases,
    verification — on one shared bus; see ``docs/observability.md``.

    ``corrections`` is an optional published
    :class:`repro.stats.CorrectionSet` of learned cardinalities (see
    ``docs/feedback.md``); fragments with an active correction are
    priced at their measured row counts instead of the closed-form
    estimates.
    """
    _ensure_recursion_headroom()
    if prune:
        with tracer.span("prune") as span:
            logical = prune_columns(logical)
            span.set(operators=logical.count_operators())
    if exploit_cse:
        details = optimize_with_cse(logical, catalog, config, tracer=tracer,
                                    corrections=corrections)
    else:
        details = optimize_conventional(logical, catalog, config,
                                        tracer=tracer,
                                        corrections=corrections)
    if verify_enabled(verify):
        mode = "cse" if exploit_cse else "conventional"
        with tracer.span("verify") as span:
            check_plan(details.plan, f"optimized plan ({mode})")
            span.set(mode=mode)
    return OptimizationResult(
        plan=details.plan,
        cost=details.cost,
        exploited_cse=exploit_cse,
        details=details,
    )


def optimize_script(
    text: str,
    catalog: Catalog,
    config: Optional[OptimizerConfig] = None,
    exploit_cse: bool = True,
    prune: bool = True,
    verify: Optional[bool] = None,
    tracer=NULL_TRACER,
    corrections=None,
    dialect: str = "auto",
) -> OptimizationResult:
    """Parse, compile and optimize a script.

    ``dialect`` picks the frontend: ``"scope"``, ``"sql"``, or
    ``"auto"`` (the default) to sniff it from the text — see
    :func:`repro.frontend.detect_dialect` and ``docs/sql.md``.
    """
    logical = compile_text(text, catalog, dialect=dialect, tracer=tracer)
    return optimize_plan(logical, catalog, config, exploit_cse, prune,
                         verify, tracer=tracer, corrections=corrections)


@dataclass
class ExecutionResult:
    """Outcome of optimizing *and executing* a script on the simulator."""

    #: The optimization outcome the executed plan came from.
    optimization: OptimizationResult
    #: Output files written by the plan.
    outputs: Dict[str, Dataset]
    #: Measured execution metrics (per-vertex stats when scheduled).
    metrics: ExecutionMetrics
    #: The cluster the plan ran on (inputs still loaded, outputs stored).
    cluster: Cluster
    #: Worker threads/processes used (0 = sequential recursive executor).
    workers: int = 0
    #: Execution backend that ran the operators ("row" or "columnar").
    backend: str = "row"
    #: Scheduler runtime that ran the vertices ("thread" or "process";
    #: meaningful only when ``workers > 0``).
    runtime: str = "thread"

    @property
    def plan(self) -> PhysicalPlan:
        return self.optimization.plan


def execute_script(
    text: str,
    catalog: Catalog,
    config: Optional[OptimizerConfig] = None,
    exploit_cse: bool = True,
    prune: bool = True,
    verify: Optional[bool] = None,
    *,
    workers: int = 0,
    machines: Optional[int] = None,
    rows: Optional[int] = None,
    seed: int = 0,
    files: Optional[Dict[str, List[Row]]] = None,
    validate: bool = True,
    failure_rate: float = 0.0,
    failure_seed: int = 0,
    max_retries: int = 3,
    retry_backoff: float = 0.0,
    watchdog: Optional[float] = None,
    backend: str = "row",
    runtime: str = "thread",
    spill_dir: Optional[str] = None,
    keep_spill: bool = False,
    kill_plan=None,
    tracer=NULL_TRACER,
    dialect: str = "auto",
) -> ExecutionResult:
    """Optimize a script and execute the chosen plan on the simulator.

    ``workers=0`` (the default) runs the sequential recursive
    :class:`~repro.exec.PlanExecutor`; ``workers>=1`` compiles the plan
    into a stage graph and runs it on a task-parallel scheduler with
    that many workers.  ``runtime`` picks the scheduler substrate:
    ``"thread"`` (the GIL-bound :class:`~repro.exec.TaskScheduler`) or
    ``"process"`` (:class:`~repro.exec.ProcessScheduler` — forked
    worker processes exchanging columnar wire files through a
    run-scoped spill directory, see ``docs/execution.md``).  All paths
    produce identical outputs for every plan.

    ``spill_dir``/``keep_spill`` control the process runtime's spill
    directory (default: a temp dir, removed on success, preserved on
    failure); ``kill_plan`` injects deterministic worker SIGKILLs
    (:class:`~repro.exec.KillPlan`) to exercise crash-fault recovery.

    ``backend`` selects the operator engine: ``"row"`` (dict-per-row
    interpretation) or ``"columnar"`` (vectorized column batches).  The
    backends are byte-identical on outputs — see ``docs/execution.md``.

    ``machines`` defaults to the optimizer's cost-model cluster size so
    estimated and measured parallelism agree.  ``files`` supplies input
    data directly; otherwise synthetic data matching the catalog
    statistics is generated from ``seed`` (capped at ``rows`` per file).
    ``failure_rate`` turns on seeded per-task fault injection (scheduler
    only), retried up to ``max_retries`` times per task.

    ``tracer`` records the whole run under one root ``run`` span —
    parse, compile, optimization phases, stage-graph cut, per-vertex and
    per-task execution — and publishes the final counters onto the
    tracer's event bus; feed it to :func:`repro.obs.render_span_tree`,
    the export sinks, or :func:`repro.obs.profile_report`.
    """
    from .exec.dist import RUNTIME_NAMES

    from .workloads.datagen import generate_for_catalog

    if runtime not in RUNTIME_NAMES:
        raise ValueError(
            f"unknown runtime {runtime!r} "
            f"(available: {', '.join(RUNTIME_NAMES)})"
        )
    if runtime == "process" and workers < 1:
        raise ValueError("runtime='process' requires workers >= 1")
    if config is None:
        config = OptimizerConfig(
            cost_params=CostParams(machines=machines or 4)
        )
    if machines is None:
        machines = config.cost_params.machines
    with tracer.span("run") as run_span:
        # ``workers`` is a bus event, not a span attribute: the span
        # tree's *structure* stays identical across worker counts.
        run_span.set(machines=machines)
        tracer.emit("exec.config", workers=workers, machines=machines,
                    runtime=runtime)
        result = optimize_script(text, catalog, config, exploit_cse, prune,
                                 verify, tracer=tracer, dialect=dialect)
        if files is None:
            with tracer.span("datagen") as span:
                files = generate_for_catalog(catalog, seed=seed,
                                             rows_override=rows)
                span.set(files=len(files),
                         rows=sum(len(r) for r in files.values()))
        cluster = Cluster(machines=machines)
        for path, file_rows in files.items():
            cluster.load_file(path, file_rows)
        engine = get_backend(backend)
        if workers > 0:
            scheduler_kwargs = {}
            if runtime == "process":
                from .exec.dist import ProcessScheduler

                scheduler_cls: type = ProcessScheduler
                scheduler_kwargs = dict(spill_dir=spill_dir,
                                        keep_spill=keep_spill,
                                        kill_plan=kill_plan)
            else:
                scheduler_cls = TaskScheduler
            executor = scheduler_cls(
                cluster,
                workers=workers,
                validate=validate,
                faults=FaultInjection(rate=failure_rate, seed=failure_seed),
                retry=RetryPolicy(max_retries=max_retries,
                                  backoff=retry_backoff),
                watchdog=watchdog,
                tracer=tracer,
                backend=engine.name,
                **scheduler_kwargs,
            )
        else:
            executor = engine.executor_cls(cluster, validate=validate,
                                           tracer=tracer)
        with tracer.span("execute") as span:
            outputs = executor.execute(result.plan)
            span.set(outputs=len(outputs),
                     rows_output=executor.metrics.rows_output)
        if tracer.enabled:
            executor.metrics.publish(tracer.bus)
    return ExecutionResult(
        optimization=result,
        outputs=outputs,
        metrics=executor.metrics,
        cluster=cluster,
        workers=workers,
        backend=engine.name,
        runtime=runtime,
    )


def execute_batch(
    texts: List[str],
    catalog: Catalog,
    config: Optional[OptimizerConfig] = None,
    *,
    labels: Optional[List[str]] = None,
    workers: int = 4,
    machines: Optional[int] = None,
    rows: Optional[int] = None,
    seed: int = 0,
    files: Optional[Dict[str, List[Row]]] = None,
    validate: bool = True,
    exploit_cse: bool = True,
    prune: bool = True,
    verify: Optional[bool] = None,
    backend: str = "row",
    tracer=NULL_TRACER,
    dialect: str = "auto",
):
    """Optimize and execute a batch of scripts as one shared job.

    Convenience wrapper over a throwaway
    :class:`repro.service.QueryService` — merges the scripts into one
    logical DAG (so cross-script common subexpressions are spooled
    once), executes the merged plan, and cuts per-script outputs back
    out.  Returns a :class:`repro.service.BatchRun`.  Long-lived callers
    that want the plan cache should hold a ``QueryService`` directly.
    """
    from .service import QueryService

    if config is None:
        config = OptimizerConfig(
            cost_params=CostParams(machines=machines or 4)
        )
    service = QueryService(catalog, config, tracer=tracer)
    return service.execute_many(
        texts, labels=labels, workers=workers, machines=machines,
        rows=rows, seed=seed, files=files, validate=validate,
        exploit_cse=exploit_cse, prune=prune, verify=verify,
        backend=backend, dialect=dialect,
    )
