"""Physical properties and property requirements.

This module implements the property framework of the SCOPE optimizer as
described in the paper (Sections I and V) and in Zhou et al., "Incorporating
Partitioning and Parallel Plans into the SCOPE Optimizer" (ICDE 2010):

* **Delivered properties** (:class:`Partitioning`, :class:`PhysicalProps`)
  describe how the rows produced by a physical plan are laid out: how they
  are partitioned across machines and how each partition is sorted.

* **Required properties** (:class:`PartitioningReq`, :class:`ReqProps`)
  describe what a consumer needs.  Partitioning requirements are expressed
  as a *range* ``[lo, hi]`` of column sets — the paper's ``[∅, {A,B,C}]``
  notation — with the key satisfaction rule:

      data hash-partitioned on a non-empty ``X`` is also partitioned on any
      superset of ``X``; hence ``X`` satisfies ``[lo, hi]`` iff
      ``lo ⊆ X ⊆ hi``.

  ``SERIAL`` (all rows in a single partition) trivially satisfies every
  partitioning requirement.

This subset rule is exactly what lets the extended optimizer pick the
locally sub-optimal "repartition on ``{B}``" at the shared node of script
S1: partitioning on ``{B}`` satisfies both the ``{A,B}`` and the ``{B,C}``
grouping consumers (Figure 1(b)).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Iterator, Optional, Tuple


def hash_once(cls):
    """Cache a frozen dataclass's field hash on the instance on first use.

    Winner keys and property histories hash these nested value objects
    on every lookup; the dataclass-generated hash would re-walk them
    (and their enums' Python-level ``__hash__``) each time.  The value
    is the generated one, so iteration orders do not change, and it is
    left out of pickled state: string hashes differ between processes.
    Apply above ``@dataclass(frozen=True)``.
    """
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = field_hash(self)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


class PartitionKind(enum.Enum):
    """How a dataset is distributed across the machines of the cluster."""

    #: No guarantee: rows are spread arbitrarily (e.g. round-robin scan).
    RANDOM = "random"
    #: All rows live in one partition on one machine.
    SERIAL = "serial"
    #: Rows are hash-partitioned on a non-empty set of columns.
    HASH = "hash"
    #: Rows are range-partitioned on an ordered column list: partition
    #: boundaries follow the columns' sort order, so partition *i* holds
    #: strictly smaller keys than partition *i+1*.  Combined with a
    #: per-partition sort this yields a globally sorted dataset — the
    #: layout behind parallel sorted outputs.
    RANGE = "range"


@hash_once
@dataclass(frozen=True)
class Partitioning:
    """A delivered partitioning.

    ``columns`` is meaningful for :attr:`PartitionKind.HASH` and
    :attr:`PartitionKind.RANGE`; for RANGE the additional ``order``
    records the boundary column order (``columns`` is its set).
    """

    kind: PartitionKind
    columns: FrozenSet[str] = frozenset()
    order: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind is PartitionKind.HASH:
            if not self.columns:
                raise ValueError(
                    "hash partitioning requires a non-empty column set"
                )
            if self.order:
                raise ValueError("hash partitioning carries no column order")
        elif self.kind is PartitionKind.RANGE:
            if not self.order:
                raise ValueError(
                    "range partitioning requires a non-empty column order"
                )
            if self.columns != frozenset(self.order):
                raise ValueError("range partitioning columns must match order")
        elif self.columns or self.order:
            raise ValueError(f"{self.kind} partitioning carries no columns")

    @staticmethod
    def random() -> "Partitioning":
        return Partitioning(PartitionKind.RANDOM)

    @staticmethod
    def serial() -> "Partitioning":
        return Partitioning(PartitionKind.SERIAL)

    @staticmethod
    def hashed(columns: Iterable[str]) -> "Partitioning":
        return Partitioning(PartitionKind.HASH, frozenset(columns))

    @staticmethod
    def ranged(order: Iterable[str]) -> "Partitioning":
        order = tuple(order)
        return Partitioning(PartitionKind.RANGE, frozenset(order), order)

    @property
    def is_parallel(self) -> bool:
        return self.kind is not PartitionKind.SERIAL

    def partitioned_on(self, columns: Iterable[str]) -> bool:
        """True if rows agreeing on ``columns`` share a partition.

        A SERIAL layout is partitioned on everything; HASH and RANGE
        layouts on ``X`` are partitioned on every superset of ``X`` (the
        paper's subset rule — range boundaries never split equal keys);
        a RANDOM layout guarantees nothing.
        """
        if self.kind is PartitionKind.SERIAL:
            return True
        if self.kind in (PartitionKind.HASH, PartitionKind.RANGE):
            return self.columns <= frozenset(columns)
        return False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind is PartitionKind.HASH:
            return "hash(" + ",".join(sorted(self.columns)) + ")"
        if self.kind is PartitionKind.RANGE:
            return "range(" + ",".join(self.order) + ")"
        return self.kind.value


class PartReqKind(enum.Enum):
    """Kinds of partitioning requirements."""

    #: No requirement: any layout is acceptable.
    NONE = "none"
    #: All rows must be in one partition.
    SERIAL = "serial"
    #: Hash or range partitioning on an ``X`` with ``lo ⊆ X ⊆ hi``
    #: (or serial) — the paper's ``[lo, hi]`` ranges of column sets.
    RANGE = "range"
    #: Range partitioning whose boundary order is a non-empty prefix of
    #: the given column order (or serial).  This is what a parallel
    #: globally sorted output needs from its input.
    RANGE_SORTED = "range-sorted"


@hash_once
@dataclass(frozen=True)
class PartitioningReq:
    """A partitioning requirement.

    For :attr:`PartReqKind.RANGE`, ``lo`` and ``hi`` bound the admissible
    hash-partitioning column sets.  ``lo == hi`` expresses the *exact*
    requirements produced when the CSE machinery expands a range into its
    concrete subsets (Section V of the paper).
    """

    kind: PartReqKind
    lo: FrozenSet[str] = frozenset()
    hi: FrozenSet[str] = frozenset()
    #: Only for RANGE_SORTED: the required boundary column order.
    sorted_order: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind is PartReqKind.RANGE:
            if not self.hi:
                raise ValueError("range requirement needs a non-empty upper bound")
            if not self.lo <= self.hi:
                raise ValueError(f"invalid range: {set(self.lo)} ⊄ {set(self.hi)}")
        elif self.kind is PartReqKind.RANGE_SORTED:
            if not self.sorted_order:
                raise ValueError(
                    "range-sorted requirement needs a non-empty column order"
                )
            if self.lo or self.hi:
                raise ValueError(
                    "range-sorted requirement carries only an order"
                )
        elif self.lo or self.hi or self.sorted_order:
            raise ValueError(f"{self.kind} requirement carries no columns")

    @staticmethod
    def none() -> "PartitioningReq":
        return PartitioningReq(PartReqKind.NONE)

    @staticmethod
    def serial() -> "PartitioningReq":
        return PartitioningReq(PartReqKind.SERIAL)

    @staticmethod
    def range(lo: Iterable[str], hi: Iterable[str]) -> "PartitioningReq":
        return PartitioningReq(PartReqKind.RANGE, frozenset(lo), frozenset(hi))

    @staticmethod
    def exact(columns: Iterable[str]) -> "PartitioningReq":
        """The requirement ``[X, X]``: hash-partitioned on exactly ``X``."""
        cols = frozenset(columns)
        return PartitioningReq(PartReqKind.RANGE, cols, cols)

    @staticmethod
    def grouping(columns: Iterable[str]) -> "PartitioningReq":
        """Requirement of a grouping consumer on keys ``columns``.

        The paper writes this as the range ``[∅, keys]``: any non-empty
        subset of the keys works (or serial).
        """
        return PartitioningReq(PartReqKind.RANGE, frozenset(), frozenset(columns))

    @staticmethod
    def range_sorted(order: Iterable[str]) -> "PartitioningReq":
        """Range partitioning by a non-empty prefix of ``order``."""
        return PartitioningReq(
            PartReqKind.RANGE_SORTED, sorted_order=tuple(order)
        )

    def is_satisfied_by(self, delivered: Partitioning) -> bool:
        """Does ``delivered`` satisfy this requirement?"""
        if self.kind is PartReqKind.NONE:
            return True
        if delivered.kind is PartitionKind.SERIAL:
            # A single partition satisfies both SERIAL and any RANGE (the
            # empty set is always in the range per the paper's [∅, hi]),
            # and it is trivially range-ordered.
            return True
        if self.kind is PartReqKind.SERIAL:
            return False
        if self.kind is PartReqKind.RANGE_SORTED:
            if delivered.kind is not PartitionKind.RANGE:
                return False
            prefix = self.sorted_order[: len(delivered.order)]
            return bool(delivered.order) and delivered.order == prefix
        if delivered.kind in (PartitionKind.HASH, PartitionKind.RANGE):
            return self.lo <= delivered.columns <= self.hi
        return False

    def concrete_partitionings(
        self, max_subset_size: Optional[int] = None
    ) -> Tuple[Partitioning, ...]:
        """Enumerate delivered partitionings satisfying this requirement.

        For RANGE requirements this enumerates every admissible non-empty
        hash column set, optionally capped at ``max_subset_size`` extra
        columns beyond ``lo`` (used by the property-history expansion of
        Section V, which would otherwise be exponential in wide keys).
        """
        if self.kind is PartReqKind.NONE:
            return (Partitioning.random(),)
        if self.kind is PartReqKind.SERIAL:
            return (Partitioning.serial(),)
        if self.kind is PartReqKind.RANGE_SORTED:
            return tuple(
                Partitioning.ranged(self.sorted_order[: size])
                for size in range(1, len(self.sorted_order) + 1)
            )
        options = []
        free = sorted(self.hi - self.lo)
        limit = len(free) if max_subset_size is None else min(max_subset_size, len(free))
        for size in range(limit + 1):
            for extra in itertools.combinations(free, size):
                cols = self.lo | frozenset(extra)
                if cols:
                    options.append(Partitioning.hashed(cols))
        # Always include the full upper bound even under a cap: it is the
        # locally cheapest choice a conventional optimizer would make, so
        # phase 2 must be able to consider (and beat) it.
        full = Partitioning.hashed(self.hi)
        if full not in options:
            options.append(full)
        return tuple(options)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind is PartReqKind.RANGE:
            lo = "{" + ",".join(sorted(self.lo)) + "}"
            hi = "{" + ",".join(sorted(self.hi)) + "}"
            return f"[{lo},{hi}]"
        return self.kind.value


@hash_once
@dataclass(frozen=True)
class SortOrder:
    """A sort order: an ordered tuple of column names (ascending).

    The empty order means "unsorted".  A delivered order satisfies a
    required order iff the requirement is a prefix of the delivery.
    """

    columns: Tuple[str, ...] = ()

    @staticmethod
    def of(*columns: str) -> "SortOrder":
        return SortOrder(tuple(columns))

    @property
    def is_sorted(self) -> bool:
        return bool(self.columns)

    def satisfies(self, required: "SortOrder") -> bool:
        if not required.columns:
            return True
        return self.columns[: len(required.columns)] == required.columns

    def common_prefix(self, other: "SortOrder") -> "SortOrder":
        prefix = []
        for a, b in zip(self.columns, other.columns):
            if a != b:
                break
            prefix.append(a)
        return SortOrder(tuple(prefix))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if not self.columns:
            return "-"
        return "(" + ",".join(self.columns) + ")"


@hash_once
@dataclass(frozen=True)
class PhysicalProps:
    """Delivered physical properties of a plan's output."""

    partitioning: Partitioning = field(default_factory=Partitioning.random)
    #: Sort order *within each partition*.
    sort_order: SortOrder = field(default_factory=SortOrder)

    def satisfies(self, required: "ReqProps") -> bool:
        return required.partitioning.is_satisfied_by(
            self.partitioning
        ) and self.sort_order.satisfies(required.sort_order)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"part={self.partitioning} sort={self.sort_order}"


@hash_once
@dataclass(frozen=True)
class ReqProps:
    """Required physical properties handed down to a group during search.

    This corresponds to the paper's ``ReqProp``.  It is hashable so it can
    key memo winners and the shared-group property history.
    """

    partitioning: PartitioningReq = field(default_factory=PartitioningReq.none)
    sort_order: SortOrder = field(default_factory=SortOrder)

    @staticmethod
    def anything() -> "ReqProps":
        return ReqProps()

    @staticmethod
    def serial() -> "ReqProps":
        return ReqProps(partitioning=PartitioningReq.serial())

    def with_partitioning(self, req: PartitioningReq) -> "ReqProps":
        return ReqProps(partitioning=req, sort_order=self.sort_order)

    def with_sort(self, order: SortOrder) -> "ReqProps":
        return ReqProps(partitioning=self.partitioning, sort_order=order)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"part={self.partitioning} sort={self.sort_order}"


def enforced_props_for(partitioning: Partitioning, sort_order: SortOrder) -> ReqProps:
    """Build the exact requirement that pins down a concrete delivery.

    Used by the re-optimization phase: the property sets stored in a
    shared group's history are concrete layouts, and enforcing one means
    requiring exactly that layout.
    """
    if partitioning.kind is PartitionKind.HASH:
        preq = PartitioningReq.exact(partitioning.columns)
    elif partitioning.kind is PartitionKind.RANGE:
        preq = PartitioningReq.range_sorted(partitioning.order)
    elif partitioning.kind is PartitionKind.SERIAL:
        preq = PartitioningReq.serial()
    else:
        preq = PartitioningReq.none()
    return ReqProps(partitioning=preq, sort_order=sort_order)


def subsets_nonempty(
    columns: Iterable[str], max_size: Optional[int] = None
) -> Iterator[FrozenSet[str]]:
    """Yield all non-empty subsets of ``columns`` (optionally size-capped).

    Helper for the Section V history expansion: the requirement
    ``[∅, {A,B,C}]`` expands to the seven exact requirements over the
    non-empty subsets of ``{A,B,C}``.
    """
    cols = sorted(set(columns))
    limit = len(cols) if max_size is None else min(max_size, len(cols))
    for size in range(1, limit + 1):
        for combo in itertools.combinations(cols, size):
            yield frozenset(combo)
