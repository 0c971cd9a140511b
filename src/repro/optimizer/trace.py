"""Optimizer tracing: a structured record of search decisions.

Enabled with ``OptimizerConfig(trace=True)``; the engine then publishes
:class:`TraceEvent` records for every group optimization, transformation
rule firing, phase-2 round and pruned LCA.  The trace answers the
questions that come up when a plan looks wrong: *which requirements was
this group optimized under?  which enforcement rounds ran, and what did
each cost?  did the rule I added ever fire?*

Events flow through an :class:`~repro.obs.bus.EventBus` rather than a
private list: pass ``bus=tracer.bus`` (or rebind :attr:`OptimizerTrace.bus`
before the first event) and the optimizer's records interleave with the
execution events on the same stream, ready for the JSON-lines and Chrome
sinks of :mod:`repro.obs.sinks`.  Publishing is append-only and cheap;
rendering is done on demand by :func:`render_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..obs.bus import EventBus


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    ``kind`` is one of ``"group"``, ``"rule"``, ``"round"``, ``"prune"``;
    the other fields are populated as applicable.  ``rule_name`` is the
    structured identity of the fired rule — use it instead of parsing
    ``detail``, which is display text and may contain spaces.  A
    ``"prune"`` event carries the LCA's lower bound in ``cost`` and the
    incumbent it could not beat in ``incumbent``.
    """

    kind: str
    gid: int
    phase: int = 0
    detail: str = ""
    cost: Optional[float] = None
    rule_name: str = ""
    produced: int = 0
    incumbent: Optional[float] = None


class OptimizerTrace:
    """Publishes engine events onto a (possibly shared) event bus.

    Without an explicit ``bus`` each trace gets a private one, which
    keeps concurrent engines (the CSE pipeline also prices a fallback
    memo) from interleaving their records.
    """

    def __init__(self, bus: Optional[EventBus] = None):
        self.bus = bus if bus is not None else EventBus()

    @property
    def events(self) -> List[TraceEvent]:
        """This trace's records, filtered out of the bus stream."""
        return self.bus.of_type(TraceEvent)

    def group_optimized(self, gid: int, req, phase: int,
                        cost: Optional[float]) -> None:
        self.bus.publish(
            TraceEvent("group", gid, phase, detail=str(req), cost=cost)
        )

    def rule_fired(self, gid: int, rule_name: str, produced: int) -> None:
        self.bus.publish(
            TraceEvent("rule", gid, detail=f"{rule_name} (+{produced})",
                       rule_name=rule_name, produced=produced)
        )

    def round_evaluated(self, lca_gid: int, assignment, phase: int,
                        cost: Optional[float]) -> None:
        detail = ", ".join(
            f"#{gid}→{entry}" for gid, entry in sorted(assignment.items())
        )
        self.bus.publish(
            TraceEvent("round", lca_gid, phase, detail=detail, cost=cost)
        )

    def lca_pruned(self, lca_gid: int, phase: int, bound: float,
                   incumbent: float) -> None:
        self.bus.publish(
            TraceEvent("prune", lca_gid, phase,
                       detail=f"bound {bound:,.0f} >= incumbent "
                              f"{incumbent:,.0f}",
                       cost=bound, incumbent=incumbent)
        )

    # -- queries -----------------------------------------------------------

    def rounds(self) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == "round"]

    def prunes(self) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == "prune"]

    def rules(self) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == "rule"]

    def groups(self) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == "group"]

    def rule_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.rules():
            counts[event.rule_name] = counts.get(event.rule_name, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.events)


def render_trace(trace: OptimizerTrace, max_groups: int = 40) -> str:
    """Readable multi-section rendering of a trace."""
    lines: List[str] = []

    counts = trace.rule_counts()
    lines.append("=== transformation rules fired ===")
    if counts:
        for name, count in sorted(counts.items(), key=lambda kv: (-kv[1],
                                                                  kv[0])):
            lines.append(f"  {name:<24}{count:>6}×")
    else:
        lines.append("  (none)")

    rounds = trace.rounds()
    lines.append(f"=== phase-2 rounds ({len(rounds)}) ===")
    for event in rounds:
        cost = f"{event.cost:,.0f}" if event.cost is not None else "infeasible"
        lines.append(f"  LCA #{event.gid}: {{{event.detail}}} -> {cost}")
    for event in trace.prunes():
        lines.append(f"  LCA #{event.gid}: pruned, {event.detail}")

    groups = trace.groups()
    lines.append(
        f"=== group optimizations ({len(groups)}, showing ≤{max_groups}) ==="
    )
    for event in groups[:max_groups]:
        cost = f"{event.cost:,.0f}" if event.cost is not None else "no plan"
        lines.append(
            f"  phase {event.phase} group #{event.gid} [{event.detail}] "
            f"-> {cost}"
        )
    if len(groups) > max_groups:
        lines.append(f"  ... {len(groups) - max_groups} more")
    return "\n".join(lines)
