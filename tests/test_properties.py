"""Unit tests for the physical-property framework.

Includes the Figure 1(b) scenario: both repartitioning on ``{A,B,C}``
and on ``{B}`` satisfy a grouping requirement on ``{A,B,C}``.
"""

import pickle

import pytest

from repro.cse.history import HistoryEntry
from repro.plan.properties import (
    Partitioning,
    PartitioningReq,
    PartitionKind,
    PhysicalProps,
    ReqProps,
    SortOrder,
    enforced_props_for,
    subsets_nonempty,
)


class TestPartitioning:
    def test_hash_requires_columns(self):
        with pytest.raises(ValueError):
            Partitioning(PartitionKind.HASH, frozenset())

    def test_non_hash_rejects_columns(self):
        with pytest.raises(ValueError):
            Partitioning(PartitionKind.SERIAL, frozenset({"A"}))

    def test_partitioned_on_subset_rule(self):
        # Data hash-partitioned on {B} is partitioned on any superset.
        part = Partitioning.hashed({"B"})
        assert part.partitioned_on({"A", "B", "C"})
        assert part.partitioned_on({"B"})
        assert not part.partitioned_on({"A", "C"})

    def test_serial_partitioned_on_everything(self):
        assert Partitioning.serial().partitioned_on({"A"})
        assert Partitioning.serial().partitioned_on(())

    def test_random_guarantees_nothing(self):
        assert not Partitioning.random().partitioned_on({"A"})


class TestPartitioningReq:
    def test_figure_1b_both_repartitionings_satisfy(self):
        """Figure 1(b): {A,B,C} and {B} both satisfy grouping on ABC."""
        req = PartitioningReq.grouping({"A", "B", "C"})
        assert req.is_satisfied_by(Partitioning.hashed({"A", "B", "C"}))
        assert req.is_satisfied_by(Partitioning.hashed({"B"}))
        assert req.is_satisfied_by(Partitioning.hashed({"A", "C"}))
        assert not req.is_satisfied_by(Partitioning.hashed({"D"}))
        assert not req.is_satisfied_by(Partitioning.hashed({"B", "D"}))

    def test_serial_satisfies_any_requirement(self):
        for req in (
            PartitioningReq.none(),
            PartitioningReq.serial(),
            PartitioningReq.grouping({"A"}),
            PartitioningReq.exact({"A", "B"}),
        ):
            assert req.is_satisfied_by(Partitioning.serial())

    def test_random_satisfies_only_none(self):
        assert PartitioningReq.none().is_satisfied_by(Partitioning.random())
        assert not PartitioningReq.serial().is_satisfied_by(Partitioning.random())
        assert not PartitioningReq.grouping({"A"}).is_satisfied_by(
            Partitioning.random()
        )

    def test_exact_requirement(self):
        req = PartitioningReq.exact({"B"})
        assert req.is_satisfied_by(Partitioning.hashed({"B"}))
        assert not req.is_satisfied_by(Partitioning.hashed({"A", "B"}))

    def test_range_with_lower_bound(self):
        req = PartitioningReq.range({"B"}, {"A", "B", "C"})
        assert req.is_satisfied_by(Partitioning.hashed({"B"}))
        assert req.is_satisfied_by(Partitioning.hashed({"A", "B"}))
        assert not req.is_satisfied_by(Partitioning.hashed({"A"}))

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            PartitioningReq.range({"Z"}, {"A"})
        with pytest.raises(ValueError):
            PartitioningReq.range({"A"}, set())

    def test_concrete_partitionings_enumerates_paper_example(self):
        """Section V: [∅,{A,B,C}] expands to the 7 non-empty subsets."""
        req = PartitioningReq.grouping({"A", "B", "C"})
        options = req.concrete_partitionings()
        col_sets = {p.columns for p in options}
        assert col_sets == {
            frozenset(s)
            for s in (
                {"A"}, {"B"}, {"C"},
                {"A", "B"}, {"B", "C"}, {"A", "C"},
                {"A", "B", "C"},
            )
        }

    def test_concrete_partitionings_cap_keeps_upper_bound(self):
        req = PartitioningReq.grouping({"A", "B", "C", "D"})
        options = req.concrete_partitionings(max_subset_size=1)
        col_sets = {p.columns for p in options}
        assert frozenset({"A", "B", "C", "D"}) in col_sets
        assert frozenset({"A"}) in col_sets
        assert frozenset({"A", "B"}) not in col_sets


class TestSortOrder:
    def test_prefix_satisfaction(self):
        delivered = SortOrder.of("B", "A", "C")
        assert delivered.satisfies(SortOrder.of("B", "A"))
        assert delivered.satisfies(SortOrder.of("B"))
        assert delivered.satisfies(SortOrder())
        assert not delivered.satisfies(SortOrder.of("A", "B"))
        assert not delivered.satisfies(SortOrder.of("B", "A", "C", "D"))

    def test_common_prefix(self):
        a = SortOrder.of("B", "A", "C")
        b = SortOrder.of("B", "A", "D")
        assert a.common_prefix(b) == SortOrder.of("B", "A")


class TestPropsInterplay:
    def test_physical_props_satisfaction(self):
        props = PhysicalProps(Partitioning.hashed({"B"}), SortOrder.of("B", "A"))
        req = ReqProps(PartitioningReq.grouping({"A", "B"}), SortOrder.of("B"))
        assert props.satisfies(req)
        req2 = req.with_sort(SortOrder.of("A"))
        assert not props.satisfies(req2)

    def test_enforced_props_for_roundtrip(self):
        part = Partitioning.hashed({"B"})
        order = SortOrder.of("B", "A")
        req = enforced_props_for(part, order)
        assert PhysicalProps(part, order).satisfies(req)
        # A different partitioning must not satisfy the pinned req.
        other = PhysicalProps(Partitioning.hashed({"A", "B"}), order)
        assert not other.satisfies(req)

    def test_enforced_props_for_serial_and_random(self):
        serial = enforced_props_for(Partitioning.serial(), SortOrder())
        assert serial.partitioning.is_satisfied_by(Partitioning.serial())
        anyp = enforced_props_for(Partitioning.random(), SortOrder())
        assert anyp.partitioning.is_satisfied_by(Partitioning.random())


class TestSubsets:
    def test_subsets_nonempty(self):
        subsets = set(subsets_nonempty(["A", "B"]))
        assert subsets == {
            frozenset({"A"}), frozenset({"B"}), frozenset({"A", "B"})
        }

    def test_subsets_size_cap(self):
        subsets = set(subsets_nonempty(["A", "B", "C"], max_size=1))
        assert subsets == {frozenset({"A"}), frozenset({"B"}), frozenset({"C"})}


class TestCachedHash:
    def test_cached_hash_is_the_field_hash(self):
        req = ReqProps(PartitioningReq.exact(["A", "B"]), SortOrder.of("A"))
        assert hash(req) == hash((req.partitioning, req.sort_order))
        assert hash(req) == hash(req)  # second call reads the cache
        entry = HistoryEntry(Partitioning.hashed(["B"]))
        assert hash(entry) == hash((entry.partitioning, entry.sort_order))

    def test_cached_hash_stays_out_of_pickles(self):
        # String hashes differ between processes, so a pickled hash
        # would be wrong wherever the value is loaded.
        req = ReqProps(PartitioningReq.exact(["A"]), SortOrder.of("A"))
        entry = HistoryEntry(Partitioning.hashed(["A"]))
        for value in (req, req.partitioning, req.sort_order, entry):
            hash(value)
            assert "_hash" in value.__dict__
            assert "_hash" not in value.__getstate__()
            loaded = pickle.loads(pickle.dumps(value))
            assert "_hash" not in loaded.__dict__
            assert loaded == value and hash(loaded) == hash(value)
