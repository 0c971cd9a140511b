"""Property history of shared groups (paper, Section V).

During the conventional optimization phase (phase 1), every call of
``OptimizeGroup`` on a shared group records the required property set it
was asked for.  Partitioning requirements arrive as *ranges* like
``[∅, {A,B,C}]``; the paper stores one concrete entry per admissible
partitioning scheme (``{A}``, ``{B}``, ..., ``{A,B,C}``) because phase 2
can only *enforce* concrete layouts.

Each entry also carries a frequency counter: the number of times the
entry's layout was the delivered property of a best local plan in
phase 1 — the ranking signal of Section VIII-C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..plan.properties import (
    Partitioning,
    PartReqKind,
    PhysicalProps,
    ReqProps,
    SortOrder,
    enforced_props_for,
    hash_once,
)


@hash_once
@dataclass(frozen=True)
class HistoryEntry:
    """One concrete property set that can be enforced at a shared group."""

    partitioning: Partitioning
    sort_order: SortOrder = field(default_factory=SortOrder)
    _req: ReqProps = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Phase 2 asks for the requirement on every enforced child of
        # every candidate; build it once per entry.
        object.__setattr__(
            self, "_req", enforced_props_for(self.partitioning, self.sort_order)
        )

    def as_req(self) -> ReqProps:
        """The exact requirement pinning this layout down."""
        return self._req

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.sort_order.is_sorted:
            return f"{self.partitioning}/{self.sort_order}"
        return str(self.partitioning)


class PropertyHistory:
    """History of property sets requested at one shared group."""

    def __init__(self, max_subset_size: Optional[int] = 4):
        #: Cap on range expansion: subsets larger than this (beyond the
        #: range's lower bound) are skipped, except the full upper bound
        #: which is always kept (DESIGN.md, decision 3).
        self.max_subset_size = max_subset_size
        self._entries: List[HistoryEntry] = []
        self._seen_reqs: set = set()
        self._index: Dict[HistoryEntry, int] = {}
        self._frequency: Dict[HistoryEntry, int] = {}

    # -- recording (phase 1) ------------------------------------------------

    def record_requirement(self, req: ReqProps) -> None:
        """Record a required property set, expanding partition ranges.

        Matches the paper's example: a requirement ``[∅, {A,B,C}]``
        stores the seven exact entries ``[{A},{A}] ... [{A,B,C},{A,B,C}]``.
        """
        if req in self._seen_reqs:
            return
        self._seen_reqs.add(req)
        preq = req.partitioning
        if preq.kind in (PartReqKind.RANGE, PartReqKind.RANGE_SORTED):
            for part in preq.concrete_partitionings(self.max_subset_size):
                self._add(HistoryEntry(part))
        elif preq.kind is PartReqKind.SERIAL:
            self._add(HistoryEntry(Partitioning.serial()))
        # A requirement with no partitioning component contributes no
        # enforceable layout on its own.

    def note_winner(self, delivered: PhysicalProps) -> None:
        """Count a delivered layout that won a local best plan (§VIII-C)."""
        entry = self._match(delivered.partitioning)
        if entry is not None:
            self._frequency[entry] = self._frequency.get(entry, 0) + 1

    def _match(self, part: Partitioning) -> Optional[HistoryEntry]:
        for entry in self._entries:
            if entry.partitioning == part:
                return entry
        return None

    def _add(self, entry: HistoryEntry) -> None:
        if entry not in self._index:
            self._index[entry] = len(self._entries)
            self._entries.append(entry)

    # -- reading (phase 2) ----------------------------------------------------

    @property
    def entries(self) -> Tuple[HistoryEntry, ...]:
        return tuple(self._entries)

    def frequency_of(self, entry: HistoryEntry) -> int:
        return self._frequency.get(entry, 0)

    def satisfaction_count(self, entry: HistoryEntry) -> int:
        """Recorded consumer requirements this layout satisfies."""
        return sum(
            1
            for req in self._seen_reqs
            if req.partitioning.is_satisfied_by(entry.partitioning)
        )

    def ranked_entries(self) -> Tuple[HistoryEntry, ...]:
        """Entries ordered most-promising first (Section VIII-C).

        The primary signal is how many of the recorded consumer
        requirements a layout satisfies — a layout usable by every
        consumer (the paper's ``{B}`` at the shared node of S1) can
        eliminate all cross-consumer repartitioning and is what phase 2
        exists to find.  Phase-1 winner frequency (the paper's raw
        signal) breaks ties; under our cost model the phase-1 winners
        are exactly the locally-optimal full key sets, so frequency
        alone would rank the layouts phase 2 wants to beat first.  The
        sort is stable, so fully tied entries keep recording order.
        """
        return tuple(
            sorted(
                self._entries,
                key=lambda e: (
                    -self.satisfaction_count(e),
                    -self._frequency.get(e, 0),
                ),
            )
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "{" + ", ".join(str(e) for e in self._entries) + "}"
