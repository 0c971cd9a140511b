"""The cost model.

Costs estimate end-to-end job cost on a shared-nothing cluster of
``machines`` workers, in abstract units.  The defining characteristics
of the cloud setting (paper, Section IX: "operations that exchange data
among the cluster machines ... are in general very costly"):

* **exchange operators dominate** — repartitioning pays for the full
  data volume over the network plus staging I/O, regardless of
  parallelism;
* **CPU-side operators scale with the effective degree of parallelism**
  of their input layout: serial = 1, random = all machines, hash = at
  most the NDV of the partitioning columns (few distinct keys ⇒ few
  useful partitions ⇒ skew);
* repartitioning onto a *smaller* column set is mildly penalised through
  that same NDV-bound parallelism, which is why a conventional,
  locally-optimising pass picks the full grouping key ``{A,B,C}`` while
  the paper's phase 2 can still globally justify ``{B}``.

Tree vs DAG costing: ``plan.cost`` is the conventional *tree* cost (a
shared subexpression reached through two consumers is paid twice — the
duplicated execution of Figure 8(a)).  :meth:`CostModel.dag_cost` prices
a plan as a DAG: every distinct node is paid once and each extra
consumer of a spool pays only the spool re-read.  The CSE machinery
compares candidate plans by DAG cost (DESIGN.md, decision 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Sequence

from ..plan.physical import (
    PhysBroadcastJoin,
    PhysPassThrough,
    PhysRangeRepartition,
    PhysExtract,
    PhysFilter,
    PhysHashAgg,
    PhysHashJoin,
    PhysicalOp,
    PhysicalPlan,
    PhysMerge,
    PhysMergeJoin,
    PhysOutput,
    PhysProject,
    PhysRepartition,
    PhysSequence,
    PhysSort,
    PhysSpool,
    PhysStreamAgg,
    PhysTopN,
    PhysUnionAll,
)
from ..plan.properties import PartitionKind, Partitioning
from .cardinality import Stats

import math


@dataclass(frozen=True)
class CostParams:
    """Tunable constants of the cost model (abstract units per byte/row).

    The defaults are calibrated so the Figure 7 reproduction lands in
    the paper's 21–57% savings band (see EXPERIMENTS.md); they are not
    magic — any setting where exchanges and extraction dominate CPU
    reproduces the paper's qualitative behaviour.
    """

    machines: int = 25
    #: Reading a byte from the distributed input store (per machine).
    read_byte: float = 1.0
    #: Writing a byte of final output.
    write_byte: float = 1.0
    #: Shipping a byte through an exchange (network + staging I/O).
    net_byte: float = 2.0
    #: Spool materialisation per byte (SCOPE spools persist to the
    #: distributed store, so this is priced like an output write).
    spool_write_byte: float = 1.0
    #: Re-reading a byte of a spooled result.
    spool_read_byte: float = 1.0
    #: Row-at-a-time CPU work (filter/project/stream-agg/merge-join).
    cpu_row: float = 0.5
    #: Hash-table probe/build work per row.
    hash_row: float = 0.8
    #: Sort work multiplier (× rows × log2 rows-per-partition).
    sort_row: float = 0.25
    #: Exponent of the skew penalty ``(machines / parallelism) ** exp``
    #: applied to exchanges landing on low-NDV partitioning columns.
    skew_exp: float = 0.3
    #: Fixed per-operator scheduling overhead (vertex startup).
    startup: float = 1.0
    #: Multiplier on the volume of a gather-merge: a single receiver
    #: must ingest the whole dataset serially, unlike a repartition
    #: whose receivers ingest in parallel.  Discourages plans that
    #: funnel large intermediates onto one machine.
    serial_sink_penalty: float = 5.0


class CostModel:
    """Computes per-operator and whole-plan costs."""

    def __init__(self, params: CostParams = CostParams()):
        if params.machines < 1:
            raise ValueError("the cluster needs at least one machine")
        if params.net_byte <= 0 or params.read_byte <= 0:
            raise ValueError("I/O and network cost constants must be positive")
        self.params = params

    # -- parallelism -------------------------------------------------------

    def parallelism(self, partitioning: Partitioning, stats: Stats) -> float:
        """Effective degree of parallelism of data laid out this way."""
        machines = float(self.params.machines)
        if partitioning.kind is PartitionKind.SERIAL:
            return 1.0
        if partitioning.kind is PartitionKind.RANDOM:
            return machines
        # HASH and RANGE layouts: useful parallelism is bounded by the
        # number of distinct partitioning keys.
        ndv = 1.0
        for col in partitioning.columns:
            ndv = min(stats.rows if stats.rows > 0 else 1.0, ndv * stats.ndv_of(col))
        return max(1.0, min(machines, ndv))

    # -- per-operator self cost ---------------------------------------------

    def operator_cost(
        self,
        op: PhysicalOp,
        out_stats: Stats,
        child_plans: Sequence[PhysicalPlan],
        child_stats: Sequence[Stats],
    ) -> float:
        """Cost contributed by this operator alone (children excluded)."""
        p = self.params
        cost = p.startup

        def in_rows(i: int = 0) -> float:
            return child_stats[i].rows if child_stats else 0.0

        def in_bytes(i: int = 0) -> float:
            return child_stats[i].bytes() if child_stats else 0.0

        def in_dop(i: int = 0) -> float:
            return self.parallelism(child_plans[i].props.partitioning, child_stats[i])

        if isinstance(op, PhysExtract):
            return cost + out_stats.bytes() * p.read_byte / p.machines

        if isinstance(op, (PhysFilter, PhysProject)):
            return cost + in_rows() * p.cpu_row / in_dop()

        if isinstance(op, PhysSort):
            rows = in_rows()
            dop = in_dop()
            per_part = max(2.0, rows / dop)
            return cost + rows * math.log2(per_part) * p.sort_row / dop

        if isinstance(op, PhysStreamAgg):
            return cost + in_rows() * p.cpu_row / in_dop()

        if isinstance(op, PhysHashAgg):
            return cost + in_rows() * p.hash_row / in_dop()

        if isinstance(op, PhysTopN):
            rows = in_rows()
            dop = in_dop()
            # Heap-select: one pass with a log(n)-ish heap per partition.
            return cost + rows * math.log2(max(2.0, op.n)) * p.sort_row / dop

        if isinstance(op, PhysRangeRepartition):
            # Same exchange volume as a hash repartition, plus a small
            # boundary-computation pass over the key values.
            volume = in_bytes()
            out_part = Partitioning.ranged(op.order)
            dop_out = self.parallelism(out_part, out_stats)
            skew = (p.machines / dop_out) ** p.skew_exp
            cost += volume * p.net_byte * skew
            cost += in_rows() * 0.05  # quantile sampling
            if op.merge_sort.is_sorted:
                cost += in_rows() * p.cpu_row / dop_out
            return cost

        if isinstance(op, PhysRepartition):
            volume = in_bytes()
            out_part = Partitioning.hashed(op.columns)
            dop_out = self.parallelism(out_part, out_stats)
            skew = (p.machines / dop_out) ** p.skew_exp
            cost += volume * p.net_byte * skew
            if op.merge_sort.is_sorted:
                # Receiving side performs a k-way merge of sorted runs.
                cost += in_rows() * p.cpu_row / dop_out
            return cost

        if isinstance(op, PhysMerge):
            cost += in_bytes() * p.net_byte * p.serial_sink_penalty
            if op.merge_sort.is_sorted:
                cost += in_rows() * p.cpu_row
            return cost

        if isinstance(op, PhysMergeJoin):
            dop = max(1.0, min(in_dop(0), in_dop(1)))
            return cost + (in_rows(0) + in_rows(1)) * p.cpu_row / dop

        if isinstance(op, PhysHashJoin):
            dop = max(1.0, min(in_dop(0), in_dop(1)))
            return cost + (in_rows(1) * p.hash_row + in_rows(0) * p.cpu_row) / dop

        if isinstance(op, PhysBroadcastJoin):
            dop = in_dop(0)
            broadcast = in_bytes(1) * p.net_byte * dop
            probe = (in_rows(1) * p.hash_row * dop + in_rows(0) * p.cpu_row) / dop
            return cost + broadcast + probe

        if isinstance(op, PhysSpool):
            # Build once plus a single read; extra consumers are charged
            # by dag_cost / spool_read_cost.
            volume = in_bytes()
            return cost + volume * (p.spool_write_byte + p.spool_read_byte)

        if isinstance(op, PhysOutput):
            return cost + in_bytes() * p.write_byte / in_dop()

        if isinstance(op, PhysPassThrough):
            # A no-op: consumers recompute the input; the re-execution is
            # charged by the per-reference walk in dag_cost.
            return 0.0

        if isinstance(op, (PhysSequence, PhysUnionAll)):
            return cost

        raise TypeError(f"no cost formula for {type(op).__name__}")

    # -- whole-plan costing ---------------------------------------------------

    def spool_read_cost(self, spool: PhysicalPlan) -> float:
        """Cost of one additional consumer re-reading a spooled result."""
        child_bytes = spool.rows * spool.schema.row_width_bytes()
        return child_bytes * self.params.spool_read_byte

    def dag_cost(self, plan: PhysicalPlan) -> float:
        """Price a plan with materialization-aware sharing.

        Only SPOOL nodes are materialized by the runtime: the first
        reference pays the build (plus one read), every further
        reference pays just a re-read.  A multi-referenced *non-spool*
        node is re-executed per reference — exactly the runtime's
        semantics — so it is charged once per path, like in a tree.

        Sub-plans containing no spool are priced by their precomputed
        tree cost.  For the others the result is cached on the plan node
        (an ``id()``-keyed dict would be poisoned by CPython reusing the
        addresses of discarded candidates), and :meth:`_walk` reuses it
        for every sub-plan none of whose spools was already priced, so
        pricing a new candidate walks only its own node.
        """
        if not spool_ids(plan):
            return plan.cost
        cached = plan.__dict__.get("_dag_cost")
        if cached is None:
            cached = plan._dag_cost = self._expand(plan, set())
        return cached

    def dag_cost_of(self, plans: Sequence[PhysicalPlan]) -> float:
        """DAG cost of several plans executed together.

        The plans are priced as one DAG — a spool reached from two of
        them is built once — without any root operator above them: the
        cost of a ``PhysSequence`` over ``plans`` minus its own startup.
        """
        seen_spools: set = set()
        return sum(self._walk(plan, seen_spools) for plan in plans)

    def referenced_cost(self, plan: PhysicalPlan, references: int) -> float:
        """Total cost of a plan consumed through ``references`` edges.

        The first reference pays the full DAG cost; each further
        reference pays the *marginal* cost of re-reaching the result —
        spool re-reads for materialized parts, full re-execution for
        everything else.  This is the metric by which a shared group's
        candidates (materialize vs recompute) are compared: it makes the
        sharing decision itself cost-based.
        """
        seen_spools: set = set()
        total = 0.0
        for _ in range(max(1, references)):
            # seen_spools persists across references: later walks pay
            # only re-reads for already-built spools.
            total += self._walk(plan, seen_spools)
        return total

    def _walk(self, node: PhysicalPlan, seen_spools: set) -> float:
        """DAG cost of ``node``; spools in ``seen_spools`` are re-reads.

        The walk of a node depends on ``seen_spools`` only through the
        node's own spools, so when none of them was seen it performs
        exactly the float operations of a fresh walk: the node's cached
        :meth:`dag_cost` is that result, bit for bit.
        """
        spools = spool_ids(node)
        if not spools:
            return node.cost
        if seen_spools.isdisjoint(spools):
            seen_spools.update(spools)
            return self.dag_cost(node)
        return self._expand(node, seen_spools)

    def _expand(self, node: PhysicalPlan, seen_spools: set) -> float:
        """Price ``node`` itself and walk its children."""
        if isinstance(node.op, PhysSpool):
            if id(node) in seen_spools:
                return self.spool_read_cost(node)
            seen_spools.add(id(node))
            return node.self_cost + self._walk(node.children[0], seen_spools)
        return node.self_cost + sum(
            self._walk(child, seen_spools) for child in node.children
        )


_NO_SPOOLS: FrozenSet[int] = frozenset()


def spool_ids(node: PhysicalPlan) -> FrozenSet[int]:
    """``id()`` of every SPOOL node in the sub-plan rooted at ``node``.

    Computed once per node and cached on the node itself, like
    :meth:`CostModel.dag_cost`: plan nodes are shared between every
    candidate built above them, so a per-call cache would re-walk the
    same sub-plans for every candidate priced.  The ids stay valid for
    the node's lifetime, which keeps the spools alive.  A node whose
    set equals a child's shares that child's set object.
    """
    ids = node.__dict__.get("_spool_ids")
    if ids is None:
        ids = _NO_SPOOLS
        for child in node.children:
            below = spool_ids(child)
            if not ids:
                ids = below
            elif not below <= ids:
                ids = ids | below
        if isinstance(node.op, PhysSpool):
            ids = ids | {id(node)}
        node._spool_ids = ids
    return ids
