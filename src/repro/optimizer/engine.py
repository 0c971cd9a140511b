"""The Cascades-style search engine.

Implements the recursive, property-driven group optimization of the
paper:

* :meth:`SearchEngine.optimize_group` is Algorithm 2/4 — winner caching
  per (required properties, enforcement context), phase-1 recording of
  shared-group property histories, and the phase-2 **rounds** at LCA
  groups that re-optimize the sub-DAG once per enforceable combination
  of shared-group layouts, skipped whole when an exact lower bound shows
  no round can beat the phase-1 plan (DESIGN.md, decision 9);
* :meth:`SearchEngine._log_phys_opt` is Algorithm 5 — logical
  exploration, physical implementation with per-child requirement
  derivation, property-satisfaction checks, and the enforcement override
  when a child is a shared group bound in the current context;
* enforcer operators (repartition / gather-merge / sort) are generated
  as additional alternatives of the group being optimized, which is how
  Figure 8's ``Repartition + SortMerge`` pairs appear.

Winner-cache correctness across phase-2 rounds hinges on the cache key:
it includes the projection of the enforcement context onto the shared
groups reachable from the group being optimized, plus the phase when the
group's subtree contains an LCA (DESIGN.md, decision 1).  Sub-plans not
above any shared group are therefore computed once and reused by every
round.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..cse.history import HistoryEntry, PropertyHistory
from ..obs.tracer import NULL_TRACER
from ..plan.physical import (
    PhysicalOp,
    PhysicalPlan,
    PhysMerge,
    PhysRangeRepartition,
    PhysRepartition,
    PhysSort,
)
from ..plan.properties import (
    PartReqKind,
    PhysicalProps,
    ReqProps,
    SortOrder,
)
from ..scope.catalog import Catalog
from .cardinality import CardinalityEstimator
from .cost import CostModel, CostParams
from .memo import GroupExpr, Memo
from .rules import DEFAULT_RULES, enumerate_implementations
from .rules.transformation import RuleEnv
from .trace import OptimizerTrace

PHASE_CONVENTIONAL = 1
PHASE_CSE = 2


def _op_columns(op: PhysicalOp) -> set:
    """Columns an enforcer operator references."""
    if isinstance(op, PhysRepartition):
        return set(op.columns) | set(op.merge_sort.columns)
    if isinstance(op, PhysRangeRepartition):
        return set(op.order) | set(op.merge_sort.columns)
    if isinstance(op, PhysSort):
        return set(op.order.columns)
    if isinstance(op, PhysMerge):
        return set(op.merge_sort.columns)
    return set()

ANY = ReqProps.anything()

#: Winner-cache miss marker: a cached winner may itself be ``None``.
_MISSING = object()

#: Relative margin an LCA's lower bound must clear the incumbent by:
#: the bound and a round's plan sum the same costs in different orders,
#: and rounding must not decide a prune.
_BOUND_SLACK = 1e-9


@dataclass
class OptimizerConfig:
    """Knobs of the optimizer and of the CSE extensions."""

    cost_params: CostParams = field(default_factory=CostParams)
    #: Cap for expanding partition-range requirements into history
    #: entries (Section V; DESIGN.md decision 3).
    history_max_subset: Optional[int] = 4
    #: Wall-clock optimization budget in seconds (None = unlimited); the
    #: paper gives large scripts 30/60 s budgets (Section IX).
    budget_seconds: Optional[float] = None
    #: Hard cap on phase-2 rounds (None = unlimited).
    max_rounds: Optional[int] = None
    #: Section VIII-A: optimize independent shared groups greedily.
    exploit_independence: bool = True
    #: Section VIII-B: order shared groups by repartitioning savings.
    rank_shared_groups: bool = True
    #: Section VIII-C: order history entries by phase-1 win frequency.
    rank_properties: bool = True
    #: Restrict the transformation rules by name (paper, Section III:
    #: earlier optimization phases use fewer rules).  ``None`` = all.
    rule_names: Optional[Tuple[str, ...]] = None
    #: Record search decisions in ``SearchEngine.trace`` (see
    #: ``repro.optimizer.trace``).
    trace: bool = False


class Budget:
    """Wall-clock + round budget shared by an optimization run."""

    def __init__(self, seconds: Optional[float], max_rounds: Optional[int]):
        self._deadline = None if seconds is None else time.monotonic() + seconds
        self._max_rounds = max_rounds
        self.rounds_used = 0

    def allow_round(self) -> bool:
        if self._max_rounds is not None and self.rounds_used >= self._max_rounds:
            return False
        if self._deadline is not None and time.monotonic() > self._deadline:
            return False
        return True

    def charge_round(self) -> None:
        self.rounds_used += 1


@dataclass
class EngineStats:
    """Counters for tests, benchmarks and EXPLAIN output."""

    groups_optimized: int = 0
    candidates_tried: int = 0
    rounds: int = 0
    round_log: List[Tuple[int, Tuple[Tuple[int, HistoryEntry], ...]]] = field(
        default_factory=list
    )
    budget_exhausted: bool = False
    #: LCAs skipped because no round could beat the incumbent, with the
    #: lower bound that proved it (DESIGN.md, decision 9).
    lcas_pruned: int = 0
    prune_log: List[Tuple[int, float]] = field(default_factory=list)


EnforceCtx = Dict[int, HistoryEntry]
EMPTY_CTX: EnforceCtx = {}


class SearchEngine:
    """Optimizes one memo.  Create one engine per optimization run."""

    def __init__(self, memo: Memo, catalog: Catalog,
                 config: Optional[OptimizerConfig] = None,
                 corrections=None):
        self.memo = memo
        self.config = config or OptimizerConfig()
        self.cost_model = CostModel(self.config.cost_params)
        self.estimator = CardinalityEstimator(
            catalog, machines=self.config.cost_params.machines,
            corrections=corrections,
        )
        self.rule_env = RuleEnv(memo, self.estimator)
        if self.config.rule_names is None:
            self.rules = DEFAULT_RULES
        else:
            allowed = set(self.config.rule_names)
            self.rules = tuple(r for r in DEFAULT_RULES if r.name in allowed)
            unknown = allowed - {r.name for r in DEFAULT_RULES}
            if unknown:
                raise ValueError(f"unknown transformation rules: {sorted(unknown)}")
        self.stats = EngineStats()
        self.budget = Budget(self.config.budget_seconds, self.config.max_rounds)
        #: LCA gid -> independent sets, attached by the CSE pipeline.
        self.independent_sets: Dict[int, List[FrozenSet[int]]] = {}
        self._shared_reach_cache: Dict[int, FrozenSet[int]] = {}
        self._has_lca_below_cache: Dict[int, bool] = {}
        #: DAG cost of the best plan already in hand (the CSE pipeline
        #: sets it to the phase-1 cost before phase 2); an LCA none of
        #: whose rounds can beat it is pruned.  ``None`` disables this.
        self.incumbent: Optional[float] = None
        #: Populated when ``config.trace`` is set.
        self.trace: Optional[OptimizerTrace] = (
            OptimizerTrace() if self.config.trace else None
        )
        #: Span tracer for phase-2 round attribution (see
        #: :meth:`bind_observability`); the null tracer is free.
        self.tracer = NULL_TRACER
        # Work that does not depend on the enforcement context, shared by
        # every phase-2 round and bound combination of one ``optimize``
        # call and emptied when it returns: implementation candidates
        # per (expression, requirement), enforcer chains per requirement
        # and compensated enforced plans per (plan, requirement).  Not
        # kept on the memo, which outlives the run in the plan cache.
        self._candidates: Dict[Tuple[GroupExpr, ReqProps], tuple] = {}
        self._enforcer_chains: Dict[ReqProps, tuple] = {}
        self._compensations: Dict[Tuple[int, ReqProps], tuple] = {}

    def bind_observability(self, tracer) -> None:
        """Attach a :class:`repro.obs.Tracer` to this engine.

        Phase-2 rounds then record ``optimize.round`` spans, and — when
        ``config.trace`` is also set — the structured
        :class:`~repro.optimizer.trace.TraceEvent` stream is published
        onto the tracer's shared bus instead of a private one, so one
        export carries both.  Must be called before the first
        optimization; rebinding after events were recorded would split
        the stream.
        """
        if not tracer.enabled:
            return
        self.tracer = tracer
        if self.trace is not None and not self.trace.bus.events:
            self.trace.bus = tracer.bus

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def optimize(self, phase: int = PHASE_CONVENTIONAL) -> Optional[PhysicalPlan]:
        """Optimize the memo root under no external requirements."""
        assert self.memo.root is not None
        try:
            return self.optimize_group(self.memo.root, ANY, EMPTY_CTX, phase)
        finally:
            self._candidates.clear()
            self._enforcer_chains.clear()
            self._compensations.clear()

    def refresh_cse_annotations(self, independent_sets) -> None:
        """Install the propagation results before phase 2 runs.

        The ``has-LCA-below`` cache was populated during phase 1, when no
        LCA links existed yet; it must be dropped so phase-2 winner keys
        separate from phase-1 ones above the LCAs.
        """
        self.independent_sets = independent_sets
        self._has_lca_below_cache.clear()

    def plan_cost(self, plan: PhysicalPlan) -> float:
        """DAG-aware cost of a finished plan (see CostModel.dag_cost)."""
        return self.cost_model.dag_cost(plan)

    # ------------------------------------------------------------------
    # Algorithm 2 / 4: OptimizeGroup
    # ------------------------------------------------------------------

    def optimize_group(self, gid: int, req: ReqProps, ctx: EnforceCtx,
                       phase: int) -> Optional[PhysicalPlan]:
        group = self.memo.group(gid)
        key = self._winner_key(gid, req, ctx, phase)
        cached = group.winners.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        self.stats.groups_optimized += 1

        # Algorithm 2 lines 1-3 / Algorithm 4 lines 1-3: record the
        # property history of shared groups during phase 1.
        if phase == PHASE_CONVENTIONAL and group.is_shared:
            if group.history is None:
                group.history = PropertyHistory(self.config.history_max_subset)
            group.history.record_requirement(req)

        pending_lca: List[int] = []
        if phase == PHASE_CSE and group.lca_for:
            pending_lca = [s for s in group.lca_for if s not in ctx]

        if pending_lca:
            plan = self._optimize_with_rounds(gid, req, ctx, pending_lca, phase)
        else:
            plan = self._log_phys_opt(gid, req, ctx, phase)

        group.winners[key] = plan
        if self.trace is not None:
            self.trace.group_optimized(
                gid, req, phase, plan.cost if plan is not None else None
            )

        # Section VIII-C ranking signal: which layout won locally.
        if phase == PHASE_CONVENTIONAL and group.is_shared and plan is not None:
            group.history.note_winner(plan.props)
        return plan

    def _winner_key(self, gid: int, req: ReqProps, ctx: EnforceCtx, phase: int):
        reach = self._shared_reach(gid)
        if ctx:
            relevant = [(g, entry) for g, entry in ctx.items() if g in reach]
            projected = tuple(sorted(relevant, key=lambda item: item[0]))
        else:
            projected = ()
        phase_key = phase if self._has_lca_below(gid) else PHASE_CONVENTIONAL
        return (req, projected, phase_key)

    def _shared_reach(self, gid: int) -> FrozenSet[int]:
        cached = self._shared_reach_cache.get(gid)
        if cached is not None:
            return cached
        group = self.memo.group(gid)
        acc = set()
        if group.is_shared:
            acc.add(gid)
        for expr in group.exprs:
            for child in expr.children:
                acc |= self._shared_reach(child)
        result = frozenset(acc)
        self._shared_reach_cache[gid] = result
        return result

    def _has_lca_below(self, gid: int) -> bool:
        cached = self._has_lca_below_cache.get(gid)
        if cached is not None:
            return cached
        group = self.memo.group(gid)
        result = bool(group.lca_for) or any(
            self._has_lca_below(child)
            for expr in group.exprs
            for child in expr.children
        )
        self._has_lca_below_cache[gid] = result
        return result

    # ------------------------------------------------------------------
    # Phase-2 rounds (Algorithm 4 lines 4-12 + Section VIII)
    # ------------------------------------------------------------------

    def _ordered_shared(self, shared_gids: List[int]) -> List[int]:
        """Order shared groups for round generation (Section VIII-B)."""
        if not self.config.rank_shared_groups:
            return list(shared_gids)

        def repart_savings(gid: int) -> float:
            group = self.memo.group(gid)
            consumers = len(self.memo.parents_of(gid))
            volume = group.stats.bytes() if group.stats else 0.0
            return (max(consumers, 1) - 1) * volume * self.config.cost_params.net_byte

        return sorted(shared_gids, key=repart_savings, reverse=True)

    def _entries_for(self, gid: int) -> Tuple[HistoryEntry, ...]:
        history = self.memo.group(gid).history
        if history is None or not len(history):
            return ()
        if self.config.rank_properties:
            return history.ranked_entries()
        return history.entries

    def _independent_partition(self, lca_gid: int,
                               ordered: List[int]) -> List[List[int]]:
        """Split the LCA's shared groups into units optimized greedily.

        With independence exploitation on, each independent set is one
        unit (cartesian *within* a unit, greedy *across* units); with it
        off, everything is one unit — the full cartesian product of the
        base algorithm.
        """
        if not self.config.exploit_independence:
            return [ordered]
        sets = self.independent_sets.get(lca_gid)
        if not sets:
            return [ordered]
        units: List[List[int]] = []
        seen = set()
        for gid in ordered:
            if gid in seen:
                continue
            unit = next((s for s in sets if gid in s), frozenset({gid}))
            members = [g for g in ordered if g in unit]
            seen.update(members)
            units.append(members)
        return units

    def _optimize_with_rounds(self, gid: int, req: ReqProps, ctx: EnforceCtx,
                              pending: List[int], phase: int
                              ) -> Optional[PhysicalPlan]:
        ordered = self._ordered_shared(pending)
        entries: Dict[int, Tuple[HistoryEntry, ...]] = {}
        for shared_gid in list(ordered):
            shared_entries = self._entries_for(shared_gid)
            if not shared_entries:
                # No recorded history (the group was never optimized in
                # phase 1, e.g. pruned); it cannot be enforced.
                ordered.remove(shared_gid)
            else:
                entries[shared_gid] = shared_entries
        if not ordered:
            return self._log_phys_opt(gid, req, ctx, phase)

        units = self._independent_partition(gid, ordered)
        current: Dict[int, HistoryEntry] = {
            g: entries[g][0] for g in ordered
        }
        if (self.incumbent is not None and not ctx
                and self.budget.allow_round()):
            bound = self._lca_lower_bound(gid, units, entries, current)
            if bound is not None:
                self.stats.lcas_pruned += 1
                self.stats.prune_log.append((gid, bound))
                if self.trace is not None:
                    self.trace.lca_pruned(gid, phase, bound, self.incumbent)
                return None
        evaluated: set = set()
        best_plan: Optional[PhysicalPlan] = None
        best_cost = float("inf")
        best_combo = dict(current)

        def run_round(assignment: Dict[int, HistoryEntry]):
            nonlocal best_plan, best_cost
            signature = tuple(sorted(assignment.items()))
            if signature in evaluated:
                return None
            if not self.budget.allow_round():
                self.stats.budget_exhausted = True
                return StopIteration
            evaluated.add(signature)
            self.budget.charge_round()
            self.stats.rounds += 1
            self.stats.round_log.append((gid, signature))
            ctx2 = dict(ctx)
            ctx2.update(assignment)
            with self.tracer.span("optimize.round", lca=gid,
                                  round=self.stats.rounds) as round_span:
                plan = self._log_phys_opt(gid, req, ctx2, phase)
                if plan is None:
                    round_span.set(feasible=False)
                    if self.trace is not None:
                        self.trace.round_evaluated(gid, assignment, phase,
                                                   None)
                    return None
                cost = self.plan_cost(plan)
                round_span.set(feasible=True, cost=cost)
            if self.trace is not None:
                self.trace.round_evaluated(gid, assignment, phase, cost)
            if cost < best_cost:
                best_cost = cost
                best_plan = plan
                best_combo.update(assignment)
            return cost

        stopped = False
        for unit in units:
            if stopped:
                break
            unit_best_cost = float("inf")
            unit_best = {g: current[g] for g in unit}
            for combo in itertools.product(*(entries[g] for g in unit)):
                assignment = dict(current)
                assignment.update(dict(zip(unit, combo)))
                outcome = run_round(assignment)
                if outcome is StopIteration:
                    stopped = True
                    break
                if outcome is not None and outcome < unit_best_cost:
                    unit_best_cost = outcome
                    unit_best = dict(zip(unit, combo))
            # Greedy across units: freeze this unit's best choice.
            current.update(unit_best)

        if best_plan is None:
            # Budget exhausted before any round completed: fall back to
            # un-enforced optimization (equivalent to the phase-1 plan).
            return self._log_phys_opt(gid, req, ctx, phase)
        return best_plan

    # ------------------------------------------------------------------
    # Exact lower bound of an LCA's rounds (DESIGN.md, decision 9)
    # ------------------------------------------------------------------

    def _lca_lower_bound(self, lca: int, units: List[List[int]],
                         entries: Dict[int, Tuple[HistoryEntry, ...]],
                         current: Dict[int, HistoryEntry]
                         ) -> Optional[float]:
        """A bound ≥ the incumbent on every round of ``lca``, or None.

        For a unit whose enforced plans every round must contain (see
        :meth:`_bounding_groups`), the bound of one combination of its
        history entries is the DAG cost of those plans together; a
        round's plan contains them, and DAG cost is monotone
        (non-negative self costs, a spool built once), so it costs at
        least that much.  A combination whose first plans already cost
        at least the incumbent is settled without the rest (see
        :meth:`_combination_bound`).  If every combination of one unit
        is at least the incumbent, no round can win.  The enforced
        plans are computed under the very winner keys the rounds then
        reuse.

        Only LCAs reached with no enforcement in force and below no
        shared group are bounded: there the pruned result feeds only
        plain cost comparisons, never a greedy unit choice of an outer
        LCA or a shared group's materialize-vs-recompute metric, so the
        chosen plan is exactly the one found without pruning.
        """
        incumbent = self.incumbent * (1.0 + _BOUND_SLACK)
        if self._below_shared(lca):
            return None
        for unit in units:
            tops = self._bounding_groups(lca, unit)
            if tops is None:
                continue
            lowest = float("inf")
            for combo in itertools.product(*(entries[g] for g in unit)):
                ctx2 = dict(current)
                ctx2.update(zip(unit, combo))
                cost = self._combination_bound(tops, ctx2, incumbent)
                if cost is not None:
                    lowest = min(lowest, cost)
                    if lowest < incumbent:
                        break
            if lowest >= incumbent:
                return lowest
        return None

    def _combination_bound(self, tops: List[int], ctx: EnforceCtx,
                           incumbent: float) -> Optional[float]:
        """DAG cost of the enforced plans of ``tops`` under ``ctx``.

        The plans are priced as they are added and the combination is
        settled — the rest left unoptimized — once the partial cost
        reaches ``incumbent``: adding a plan to a DAG adds a
        non-negative term to the running float sum, so the full cost
        could only be higher.  ``None`` when an enforced plan is
        infeasible (so is every round of the combination).
        """
        plans: List[PhysicalPlan] = []
        cost = 0.0
        for shared_gid in tops:
            plan = self.optimize_group(shared_gid, ctx[shared_gid].as_req(),
                                       ctx, PHASE_CSE)
            if plan is None:
                return None
            plans.append(plan)
            cost = self.cost_model.dag_cost_of(plans)
            if cost >= incumbent:
                break
        return cost

    def _bounding_groups(self, lca: int, unit: List[int]
                         ) -> Optional[List[int]]:
        """The unit's groups whose enforced plans bound its rounds.

        A group qualifies if every path from the LCA reaches it without
        passing through another unit member that reaches it: every
        round's plan then reaches its enforced plan at least once more
        than the other members' plans do, so pricing the members' plans
        together never overcounts.  ``None`` when no group qualifies or
        the unit reaches a shared group outside itself, whose
        enforcement — set by another unit — would vary the plans.

        Groups come in ascending order of the shared groups they reach:
        inner groups are cheap to optimize, and their cost alone often
        settles a combination before an outer group's sub-DAG is
        optimized under it.
        """
        members = set(unit)
        if any(not self._shared_reach(g) <= members for g in unit):
            return None
        bounding = [
            g for g in unit
            if self._unavoidable(lca, g, blocked=frozenset(
                h for h in unit if h != g and g in self._shared_reach(h)
            ))
        ]
        bounding.sort(key=lambda g: len(self._shared_reach(g)))
        return bounding or None

    def _unavoidable(self, top: int, target: int,
                     blocked: FrozenSet[int] = frozenset()) -> bool:
        """Whether every expression on every path from ``top`` reaches
        ``target`` before any group in ``blocked``.

        Only explored groups are judged: exploration could still add an
        alternative that bypasses ``target`` to any other group.
        """
        known: Dict[int, bool] = {}

        def visit(gid: int) -> bool:
            if gid == target:
                return True
            if gid in blocked:
                return False
            result = known.get(gid)
            if result is None:
                group = self.memo.group(gid)
                result = 1 in group.explored_spaces and all(
                    any(visit(child) for child in expr.children)
                    for expr in group.exprs
                )
                known[gid] = result
            return result

        return visit(top)

    def _below_shared(self, gid: int) -> bool:
        """Whether any shared group's sub-DAG contains ``gid``."""
        stack = [
            child
            for group in self.memo.shared_groups()
            for expr in group.exprs
            for child in expr.children
        ]
        seen = set()
        while stack:
            current = stack.pop()
            if current == gid:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(
                child for expr in self.memo.group(current).exprs
                for child in expr.children
            )
        return False

    # ------------------------------------------------------------------
    # Algorithm 5: LogPhysOpt
    # ------------------------------------------------------------------

    def _candidate_metric(self, group, plan: PhysicalPlan) -> float:
        """Cost metric for comparing candidates of one group.

        For a shared group the winner will be referenced once per
        consumer, so materialize-vs-recompute must be judged by the
        total cost across that multiplicity (a spool pays build once +
        k reads; a pass-through pays k full recomputations).  For
        ordinary groups this is the plain DAG cost.
        """
        if group.is_shared:
            refs = self.memo.initial_reference_count(group.gid)
            if refs > 1:
                return self.cost_model.referenced_cost(plan, refs)
        return self.plan_cost(plan)

    def _log_phys_opt(self, gid: int, req: ReqProps, ctx: EnforceCtx,
                      phase: int) -> Optional[PhysicalPlan]:
        group = self.memo.group(gid)
        self._explore(gid)

        best: Optional[PhysicalPlan] = None
        best_cost = float("inf")

        for expr in list(group.exprs):
            for cand in self._implementations(expr, req):
                self.stats.candidates_tried += 1
                child_plans: List[PhysicalPlan] = []
                feasible = True
                for cgid, creq in zip(cand.child_gids, cand.child_reqs):
                    child_group = self.memo.group(cgid)
                    if (
                        phase == PHASE_CSE
                        and child_group.is_shared
                        and cgid in ctx
                    ):
                        # Algorithm 5 lines 10-11: enforce the property
                        # set propagated from the LCA, then compensate up
                        # to what this candidate actually needs.
                        enforced = ctx[cgid].as_req()
                        cplan = self.optimize_group(cgid, enforced, ctx, phase)
                        if cplan is not None:
                            cplan = self._compensate(cplan, creq)
                    else:
                        cplan = self.optimize_group(cgid, creq, ctx, phase)
                    if cplan is None:
                        feasible = False
                        break
                    child_plans.append(cplan)
                if not feasible:
                    continue
                if cand.validator is not None and not cand.validator(child_plans):
                    continue
                props = cand.op.derive_props([p.props for p in child_plans])
                if not props.satisfies(req):
                    continue
                node = self._make_node(cand.op, child_plans, gid, req)
                cost = self._candidate_metric(group, node)
                if cost < best_cost:
                    best, best_cost = node, cost

        schema_names = set(group.schema.names)
        for chain, inner_req, columns in self._enforcer_chains_for(req):
            if not columns <= schema_names:
                # The requirement names columns this group does not
                # produce; no enforcer can conjure them.
                continue
            inner = self.optimize_group(gid, inner_req, ctx, phase)
            if inner is None:
                continue
            node = inner
            for op in reversed(chain):  # innermost first
                node = self._make_node(op, [node], gid, req)
            if not node.props.satisfies(req):
                continue
            cost = self._candidate_metric(group, node)
            if cost < best_cost:
                best, best_cost = node, cost

        return best

    def _implementations(self, expr: GroupExpr, req: ReqProps) -> tuple:
        """``enumerate_implementations``, cached for the run: once the
        memo is annotated it depends only on its arguments."""
        key = (expr, req)
        cands = self._candidates.get(key)
        if cands is None:
            cands = tuple(enumerate_implementations(self.memo, expr, req))
            self._candidates[key] = cands
        return cands

    # ------------------------------------------------------------------
    # Enforcers and compensation
    # ------------------------------------------------------------------

    def _enforcer_chains_for(self, req: ReqProps) -> tuple:
        """The useful :meth:`_enforcers` of ``req`` with the columns each
        chain references, cached for the run."""
        chains = self._enforcer_chains.get(req)
        if chains is None:
            chains = tuple(
                (tuple(chain), inner_req,
                 set().union(*(_op_columns(op) for op in chain)))
                for chain, inner_req in self._enforcers(req)
                if inner_req != req
            )
            self._enforcer_chains[req] = chains
        return chains

    def _enforcers(self, req: ReqProps) -> Iterator[Tuple[List[PhysicalOp], ReqProps]]:
        """Enforcer alternatives: (operator chain outer-first, inner req).

        Each alternative strictly weakens the requirement passed to the
        inner optimization, so the recursion terminates.
        """
        preq = req.partitioning
        sort = req.sort_order

        if sort.is_sorted:
            yield [PhysSort(sort)], ReqProps(preq, SortOrder())

        if preq.kind is PartReqKind.RANGE:
            choices = [tuple(sorted(preq.hi))]
            if preq.lo and preq.lo != preq.hi:
                choices.append(tuple(sorted(preq.lo)))
            none = ReqProps()
            for cols in choices:
                if sort.is_sorted:
                    yield (
                        [PhysRepartition(cols, merge_sort=sort)],
                        ReqProps(none.partitioning, sort),
                    )
                    yield (
                        [PhysSort(sort), PhysRepartition(cols)],
                        ReqProps(),
                    )
                else:
                    yield [PhysRepartition(cols)], ReqProps()
        elif preq.kind is PartReqKind.RANGE_SORTED:
            order = preq.sorted_order
            if sort.is_sorted:
                yield (
                    [PhysRangeRepartition(order, merge_sort=sort)],
                    ReqProps(sort_order=sort),
                )
                yield [PhysSort(sort), PhysRangeRepartition(order)], ReqProps()
            else:
                yield [PhysRangeRepartition(order)], ReqProps()
        elif preq.kind is PartReqKind.SERIAL:
            if sort.is_sorted:
                yield [PhysMerge(merge_sort=sort)], ReqProps(sort_order=sort)
                yield [PhysSort(sort), PhysMerge()], ReqProps()
            else:
                yield [PhysMerge()], ReqProps()

    def _compensate(self, plan: PhysicalPlan, creq: ReqProps) -> PhysicalPlan:
        """``plan`` (an enforced winner) upgraded to ``creq``; built once
        per run.  The cache entry holds ``plan``, so its ``id`` cannot be
        reused while the entry lives."""
        key = (id(plan), creq)
        hit = self._compensations.get(key)
        if hit is not None:
            return hit[1]
        schema_names = set(plan.schema.names)
        wanted = set(creq.sort_order.columns)
        preq = creq.partitioning
        if preq.kind is PartReqKind.RANGE:
            wanted |= set(preq.hi)
        elif preq.kind is PartReqKind.RANGE_SORTED:
            wanted |= set(preq.sorted_order)
        if wanted <= schema_names:
            node = self._compensate_checked(plan, creq)
        else:
            # The consumer's requirement names columns the enforced
            # layout does not carry; return the plan as-is and let the
            # candidate's validator reject the combination.
            node = plan
        self._compensations[key] = (plan, node)
        return node

    def _compensate_checked(self, plan: PhysicalPlan,
                            creq: ReqProps) -> PhysicalPlan:
        """Upgrade an enforced shared-group plan to a candidate's needs.

        When phase 2 overrides a child requirement with the enforced
        layout, the consumer may still need e.g. a different sort order
        (Figure 8(b): the right consumer re-sorts the spooled result on
        ``(C,B)``).  Partitioning mismatches repartition — legal, and
        priced, so the rounds can judge whether the enforcement pays.
        """
        node = plan
        if not creq.partitioning.is_satisfied_by(node.props.partitioning):
            preq = creq.partitioning
            keep = node.props.sort_order
            merge_sort = keep if keep.is_sorted else SortOrder()
            if preq.kind is PartReqKind.SERIAL:
                op: PhysicalOp = PhysMerge(merge_sort=keep)
            elif preq.kind is PartReqKind.RANGE_SORTED:
                op = PhysRangeRepartition(preq.sorted_order,
                                          merge_sort=merge_sort)
            else:
                cols = tuple(sorted(preq.hi))
                op = PhysRepartition(cols, merge_sort=merge_sort)
            node = self._make_node(op, [node], plan.group_id, creq)
        if not node.props.sort_order.satisfies(creq.sort_order):
            node = self._make_node(
                PhysSort(creq.sort_order), [node], plan.group_id, creq
            )
        return node

    # ------------------------------------------------------------------
    # Node construction and exploration
    # ------------------------------------------------------------------

    def _make_node(self, op: PhysicalOp, children: Sequence[PhysicalPlan],
                   gid: int, req: ReqProps) -> PhysicalPlan:
        group = self.memo.group(gid)
        out_stats = group.stats
        child_stats = [self.memo.group(c.group_id).stats for c in children]
        props = op.derive_props([c.props for c in children])
        self_cost = self.cost_model.operator_cost(
            op, out_stats, children, child_stats
        )
        cost = self_cost + sum(c.cost for c in children)
        return PhysicalPlan(
            op=op,
            children=tuple(children),
            schema=group.schema,
            props=props,
            group_id=gid,
            required=req,
            cost=cost,
            self_cost=self_cost,
            rows=out_stats.rows if out_stats else 0.0,
        )

    def _explore(self, gid: int) -> None:
        """Apply the transformation rules to fixpoint (logical step).

        Each expression is processed exactly once: rule outputs appended
        to the group are picked up by the advancing cursor, so the
        fixpoint costs O(produced expressions), not O(n²) re-derivations.
        """
        group = self.memo.group(gid)
        if 1 in group.explored_spaces:
            return
        group.explored_spaces.add(1)
        cursor = 0
        while cursor < len(group.exprs):
            expr = group.exprs[cursor]
            cursor += 1
            for rule in self.rules:
                produced = rule.apply(self.memo, gid, expr, self.rule_env)
                if produced is None:
                    continue
                added = 0
                for new_expr in produced:
                    if self.memo.add_expr_to_group(gid, new_expr):
                        added += 1
                if added and self.trace is not None:
                    self.trace.rule_fired(gid, rule.name, added)
