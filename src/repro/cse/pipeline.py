"""The four-step CSE optimization pipeline (paper, Figure 2).

1. **Identify common subexpressions** — fingerprints + Algorithm 1,
   before the first optimization phase (``repro.cse.fingerprint``).
2. **Record physical properties** — during the conventional phase 1,
   every visit of a shared group stores the required property set
   (``repro.cse.history``; hooked inside the engine).
3. **Propagate shared-group information and identify LCAs** — Algorithm
   3 (``repro.cse.propagation``).
4. **Re-optimize enforcing physical properties** — phase 2 rounds at the
   LCA groups (engine's ``_optimize_with_rounds``).

The final plan is the cheapest over both phases ("The optimizer will
select the plan with the lowest cost.  This plan could have been
generated in any phase", Section VII), priced with the DAG-aware cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..obs.tracer import NULL_TRACER
from ..optimizer.cardinality import annotate_memo
from ..optimizer.engine import (
    PHASE_CONVENTIONAL,
    PHASE_CSE,
    OptimizerConfig,
    SearchEngine,
)
from ..optimizer.memo import Memo
from ..plan.logical import LogicalPlan
from ..plan.properties import ReqProps
from ..plan.physical import PhysicalPlan
from ..scope.catalog import Catalog
from ..verify import check_plan
from .fingerprint import CseReport, identify_common_subexpressions
from .propagation import PropagationResult, propagate_shared_groups


@dataclass
class CseOptimizationResult:
    """Everything the pipeline produced, for inspection and tests."""

    #: The final chosen plan (cheapest across phases, DAG-costed).
    plan: PhysicalPlan
    #: DAG cost of the chosen plan.
    cost: float
    #: The phase-1 (conventional, but spool-aware) plan and its cost.
    phase1_plan: Optional[PhysicalPlan]
    phase1_cost: float
    #: The phase-2 (enforced) plan and its cost, if any was produced.
    phase2_plan: Optional[PhysicalPlan]
    phase2_cost: float
    #: Which phase the chosen plan came from (1 or 2).
    chosen_phase: int
    report: CseReport
    propagation: PropagationResult
    engine: SearchEngine
    memo: Memo
    #: Cost of the fully conventional (un-spooled) fallback, if it ran.
    #: Inserting SPOOL groups can block logical rewrites (a filter
    #: cannot be pushed through a shared materialization point), so the
    #: pipeline also prices the plan of an untouched memo and never
    #: returns anything worse than it.  When CSE detection inserted no
    #: spool and merged nothing, phase 1 is that plan and this is its
    #: cost.
    fallback_cost: float = float("inf")
    #: The memo whose group ids the *chosen* plan refers to.  Usually
    #: ``memo``, but when the conventional fallback wins the chosen plan
    #: was built against a different (un-spooled) memo — anything
    #: mapping the plan's ``group_id``s back to groups (cardinality
    #: feedback capture, re-costing) must use this one.
    plan_memo: Optional[Memo] = None

    def __post_init__(self):
        if self.plan_memo is None:
            self.plan_memo = self.memo

    def phase2_summary(self) -> str:
        """``phase 2: <cost>``, or the LCAs where phase 2 was pruned."""
        if self.phase2_plan is None:
            pruned = dict.fromkeys(
                gid for gid, _ in self.engine.stats.prune_log
            )
            if pruned:
                lcas = ", ".join(f"#{gid}" for gid in pruned)
                return (f"phase 2: pruned at LCA {lcas} "
                        f"(bound ≥ phase-1 cost)")
        return f"phase 2: {self.phase2_cost:,.0f}"

    def verify_phases(self) -> None:
        """Statically verify every plan the pipeline produced.

        Raises :class:`repro.verify.PlanVerificationError` naming the
        offending phase — catching a phase-2 bug even when the cheaper
        phase-1 plan was ultimately chosen.
        """
        if self.phase1_plan is not None:
            check_plan(self.phase1_plan, "phase-1 plan")
        if self.phase2_plan is not None:
            check_plan(self.phase2_plan, "phase-2 plan")
        check_plan(self.plan, f"chosen plan (phase {self.chosen_phase})")


class OptimizationFailure(RuntimeError):
    """The engine produced no feasible plan (indicates a planner bug)."""


def optimize_with_cse(
    logical: LogicalPlan,
    catalog: Catalog,
    config: Optional[OptimizerConfig] = None,
    verify: bool = False,
    tracer=NULL_TRACER,
    corrections=None,
) -> CseOptimizationResult:
    """Run the full pipeline of Figure 2 on a logical script DAG.

    With ``verify`` the plans of *both* phases (and the chosen plan) are
    statically checked via :mod:`repro.verify` before returning.

    ``tracer`` records one span per pipeline step (``cse.detect``,
    ``optimize.phase1``, ``cse.propagate``, ``optimize.phase2``,
    ``optimize.fallback``) carrying group counts, costs and round
    counters; when the engine's own trace is enabled its events are
    published onto the tracer's shared bus.

    ``corrections`` is an optional published
    :class:`repro.stats.store.CorrectionSet` of learned cardinalities;
    it reaches every estimator this pipeline creates (both phases and
    the conventional fallback), so all candidate plans are priced under
    the same statistics.
    """
    memo = Memo.from_logical_plan(logical)

    # Step 1 — before the first optimization phase.
    with tracer.span("cse.detect") as span:
        report = identify_common_subexpressions(memo)
        span.set(
            shared_groups=len(report.shared_groups),
            explicit=len(report.explicit_shared),
            merged=len(report.merged),
        )

    engine = SearchEngine(memo, catalog, config, corrections=corrections)
    engine.bind_observability(tracer)
    annotate_memo(memo, engine.estimator)

    # Phase 1 (Step 2 happens inside: history recording at shared groups).
    with tracer.span("optimize.phase1") as span:
        phase1_plan = engine.optimize(PHASE_CONVENTIONAL)
        if phase1_plan is None:
            raise OptimizationFailure("phase 1 produced no plan")
        phase1_cost = engine.plan_cost(phase1_plan)
        span.set(cost=phase1_cost,
                 groups_optimized=engine.stats.groups_optimized)

    # Step 3 — right before the re-optimizations begin.
    with tracer.span("cse.propagate") as span:
        propagation = propagate_shared_groups(memo)
        engine.refresh_cse_annotations(propagation.independent_sets)
        span.set(lcas=len(propagation.lca))

    # Step 4 — phase 2.  Phase 2 is taken only if strictly cheaper than
    # the phase-1 plan, so an LCA whose every round provably costs at
    # least that much is pruned (DESIGN.md, decision 9).
    with tracer.span("optimize.phase2") as span:
        engine.incumbent = phase1_cost
        phase2_plan = engine.optimize(PHASE_CSE)
        phase2_cost = (
            engine.plan_cost(phase2_plan)
            if phase2_plan is not None else float("inf")
        )
        span.set(cost=phase2_cost, rounds=engine.stats.rounds,
                 lcas_pruned=engine.stats.lcas_pruned,
                 budget_exhausted=engine.stats.budget_exhausted)

    if phase2_plan is not None and phase2_cost < phase1_cost:
        plan, cost, chosen = phase2_plan, phase2_cost, 2
    else:
        plan, cost, chosen = phase1_plan, phase1_cost, 1

    # Final guard: SPOOL insertion can block logical rewrites (e.g.
    # pushing a filter through a now-shared projection), so the spooled
    # memo's best plan may be worse than plain conventional optimization.
    # Price the untouched memo too and keep the cheapest overall.  When
    # detection inserted no spool and merged nothing, the untouched memo
    # is this memo and phase 1 already was its conventional optimization.
    plan_memo = memo
    with tracer.span("optimize.fallback") as span:
        if report.spools or report.merged:
            fallback = optimize_conventional(logical, catalog, config,
                                             corrections=corrections)
            fallback_cost = fallback.cost
            span.set(cost=fallback_cost)
            if fallback_cost < cost:
                plan, cost, chosen = fallback.plan, fallback_cost, 1
                plan_memo = fallback.memo
        else:
            fallback_cost = phase1_cost
            span.set(cost=fallback_cost, skipped=True)

    result = CseOptimizationResult(
        plan=plan,
        cost=cost,
        phase1_plan=phase1_plan,
        phase1_cost=phase1_cost,
        phase2_plan=phase2_plan,
        phase2_cost=phase2_cost,
        chosen_phase=chosen,
        report=report,
        propagation=propagation,
        engine=engine,
        memo=memo,
        fallback_cost=fallback_cost,
        plan_memo=plan_memo,
    )
    if verify:
        result.verify_phases()
    return result


def optimize_local_best(
    logical: LogicalPlan,
    catalog: Catalog,
    config: Optional[OptimizerConfig] = None,
    verify: bool = False,
    corrections=None,
) -> CseOptimizationResult:
    """The related-work baseline: share, but choose properties locally.

    Prior multi-query-optimization approaches ([10]–[12] in the paper)
    identify common subexpressions but "select the plan that locally
    minimizes the cost of the shared subexpression" (Section I) — for
    S1 that is repartitioning on the full key set, after which each
    consumer must repartition the shared result again.

    Implementation: Steps 1–2 run as in the full pipeline; then, instead
    of LCA rounds, each shared group is pinned to the history entry
    whose *own* subtree is cheapest (ties broken toward more
    partitioning columns — the maximum-parallelism choice a local
    optimizer makes), and the script is re-optimized once under those
    enforcements.  No consumer feedback is taken into account, which is
    precisely what the paper's phase 2 adds.
    """
    memo = Memo.from_logical_plan(logical)
    report = identify_common_subexpressions(memo)

    engine = SearchEngine(memo, catalog, config, corrections=corrections)
    annotate_memo(memo, engine.estimator)

    phase1_plan = engine.optimize(PHASE_CONVENTIONAL)
    if phase1_plan is None:
        raise OptimizationFailure("phase 1 produced no plan")
    phase1_cost = engine.plan_cost(phase1_plan)

    # Pin every shared group to its locally cheapest enforceable layout.
    ctx = {}
    for group in memo.shared_groups():
        history = group.history
        if history is None or not len(history):
            continue
        best_entry = None
        best_key = None
        for entry in history.entries:
            plan = engine.optimize_group(
                group.gid, entry.as_req(), {}, PHASE_CONVENTIONAL
            )
            if plan is None:
                continue
            cols = (
                len(entry.partitioning.columns)
                if entry.partitioning.kind.value == "hash"
                else 0
            )
            key = (engine.plan_cost(plan), -cols)
            if best_key is None or key < best_key:
                best_key = key
                best_entry = entry
        if best_entry is not None:
            ctx[group.gid] = best_entry

    # One enforcement pass, no rounds (no LCA links are installed, so
    # the phase-2 machinery only applies the pinned layouts).
    engine.refresh_cse_annotations({})
    local_plan = engine.optimize_group(memo.root, ReqProps.anything(), ctx,
                                       PHASE_CSE) if ctx else None
    local_cost = (
        engine.plan_cost(local_plan) if local_plan is not None else float("inf")
    )

    if local_plan is not None and local_cost < phase1_cost:
        plan, cost = local_plan, local_cost
    else:
        plan, cost = phase1_plan, phase1_cost

    result = CseOptimizationResult(
        plan=plan,
        cost=cost,
        phase1_plan=phase1_plan,
        phase1_cost=phase1_cost,
        phase2_plan=local_plan,
        phase2_cost=local_cost,
        chosen_phase=2 if plan is local_plan else 1,
        report=report,
        propagation=PropagationResult({}, {}, {}, {}, {}),
        engine=engine,
        memo=memo,
    )
    if verify:
        result.verify_phases()
    return result


def optimize_conventional(
    logical: LogicalPlan,
    catalog: Catalog,
    config: Optional[OptimizerConfig] = None,
    verify: bool = False,
    tracer=NULL_TRACER,
    corrections=None,
) -> CseOptimizationResult:
    """Baseline: the original SCOPE optimizer, no CSE machinery at all.

    No spool insertion, no history, no phase 2 — a shared relation is
    optimized independently per consumer and executed once per consumer,
    the duplicated pipelines of Figure 8(a).
    """
    memo = Memo.from_logical_plan(logical)
    engine = SearchEngine(memo, catalog, config, corrections=corrections)
    engine.bind_observability(tracer)
    annotate_memo(memo, engine.estimator)
    with tracer.span("optimize.phase1") as span:
        plan = engine.optimize(PHASE_CONVENTIONAL)
        if plan is None:
            raise OptimizationFailure(
                "conventional optimization produced no plan"
            )
        cost = engine.plan_cost(plan)
        span.set(cost=cost, groups_optimized=engine.stats.groups_optimized)
    if verify:
        check_plan(plan, "conventional plan")
    return CseOptimizationResult(
        plan=plan,
        cost=cost,
        phase1_plan=plan,
        phase1_cost=cost,
        phase2_plan=None,
        phase2_cost=float("inf"),
        chosen_phase=1,
        report=CseReport(),
        propagation=PropagationResult({}, {}, {}, {}, {}),
        engine=engine,
        memo=memo,
    )
