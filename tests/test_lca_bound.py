"""The exact lower bound that prunes hopeless LCAs (DESIGN.md, decision 9).

Phase 2 is chosen only when strictly cheaper than the phase-1 plan, so
an LCA none of whose rounds can beat that plan is skipped without
running any round.  The pruning must be *exact*: every test here either
checks that the chosen plan is unchanged with the bound disabled, or
pins where the bound fires and where its guards keep it from firing.

The bound is disabled by shadowing the engine's ``incumbent`` with a
class-level property that always reads ``None`` (the pipeline's
assignment is dropped), not through any public option.
"""

from __future__ import annotations

import pathlib

import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.api import optimize_script
from repro.cli import main
from repro.cse.fingerprint import identify_common_subexpressions
from repro.cse.propagation import propagate_shared_groups
from repro.frontend import compile_text
from repro.optimizer.cardinality import annotate_memo
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import (
    PHASE_CONVENTIONAL,
    PHASE_CSE,
    OptimizerConfig,
    SearchEngine,
)
from repro.optimizer.explain import explain_normalized
from repro.optimizer.memo import GroupExpr, Memo
from repro.plan.physical import PhysSpool
from repro.plan.properties import ReqProps
from repro.plan.pruning import prune_columns
from repro.scope.statistics import catalog_from_json, catalog_to_json
from repro.service import QueryService
from repro.workloads.large_scripts import make_large_script
from repro.workloads.paper_scripts import PAPER_SCRIPTS, make_catalog
from repro.workloads.starjoin import STARJOIN_QUERIES, make_starjoin_catalog
from tests.test_property_based import scope_scripts, small_catalog

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.scope"))

#: Phase-2 round counts of the paper scripts (Figure 7 harness).
PAPER_ROUNDS = {"S1": 5, "S2": 5, "S3": 12, "S4": 24, "LS1": 18, "LS2": 71}

#: (chosen, phase-1, phase-2, fallback) DAG costs of the paper scripts,
#: compared with float ``==``: the run-scoped caches and the incremental
#: DAG walk must leave every cost bit-identical.
PAPER_COSTS = {
    "S1": (8032320009.0, 15063520013.0, 8032320009.0, 13063520011.0),
    "S2": (8532820171.0, 22595220179.0, 8532820171.0, 19595220176.0),
    "S3": (16115034021.0, 16115034021.0, 16115034021.0, 26177434025.0),
    "S4": (8056637015.0, 23123037027.0, 8056637015.0, 26142237023.0),
    "LS1": (2968171610.2737083, 3814635247.162597, 2968171610.2737083,
            3777771238.162597),
    "LS2": (4237214466.006695, 7966233511.1178055, 4237214466.006695,
            7806489472.1178055),
}

_NO_INCUMBENT = property(lambda self: None, lambda self, value: None)

BAND_SALES_CTE = """WITH band_sales AS (
  SELECT Band, State, SUM(Net) AS revenue, SUM(Qty) AS units
  FROM store_sales AS ss JOIN customer AS c ON ss.CustSk = c.CustSk
  GROUP BY Band, State
)
"""


def band_batch(state_lt, band_gt, year, qty_gt):
    """The q02/q07 CTE pair with consumer-side predicates plus a
    q03-style star filter, on the given constants."""
    return [
        BAND_SALES_CTE
        + "SELECT Band, SUM(revenue) AS revenue FROM band_sales\n"
        f"WHERE State < {state_lt}\nGROUP BY Band;\n",
        BAND_SALES_CTE
        + "SELECT State, SUM(units) AS units FROM band_sales\n"
        f"WHERE Band > {band_gt}\nGROUP BY State;\n",
        "SELECT State, Category, SUM(Net) AS revenue\n"
        "FROM store_sales AS ss\n"
        "JOIN date_dim AS d ON ss.DateSk = d.DateSk\n"
        "JOIN customer AS c ON ss.CustSk = c.CustSk\n"
        "JOIN item AS i ON ss.ItemSk = i.ItemSk\n"
        f"WHERE Year = {year} AND Qty > {qty_gt}\n"
        "GROUP BY State, Category;\n",
    ]


Q = STARJOIN_QUERIES
STAR_BATCH = [Q["q02_band_revenue"], Q["q07_band_units"], Q["q03_star_filter"]]


@pytest.fixture(scope="module")
def star_catalog():
    catalog, _ = make_starjoin_catalog()
    return catalog


def batch_result(catalog, texts):
    """Optimization result of a merged batch, through a fresh service."""
    return QueryService(catalog).submit_many(texts).result


def both_ways(run):
    """``run()`` with the bound, then with it disabled."""
    bounded = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SearchEngine, "incumbent", _NO_INCUMBENT,
                      raising=False)
        unbounded = run()
    assert unbounded.details.engine.stats.lcas_pruned == 0
    return bounded, unbounded


def assert_same_choice(bounded, unbounded):
    assert explain_normalized(bounded.plan) == explain_normalized(
        unbounded.plan
    )
    assert bounded.cost == unbounded.cost
    assert bounded.details.chosen_phase == unbounded.details.chosen_phase
    assert bounded.details.phase1_cost == unbounded.details.phase1_cost
    # A pruned LCA only removes plans that cannot beat phase 1: a phase-2
    # plan that wins is found either way, and one that loses may be
    # replaced by a plan bypassing the pruned LCA, or by none.
    b2, u2 = bounded.details, unbounded.details
    if u2.phase2_cost < u2.phase1_cost:
        assert explain_normalized(b2.phase2_plan) == explain_normalized(
            u2.phase2_plan
        )
        assert b2.phase2_cost == u2.phase2_cost
    else:
        assert b2.phase2_plan is None or b2.phase2_cost >= b2.phase1_cost


# -- exactness --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(STARJOIN_QUERIES))
def test_starjoin_query_plans_unchanged(name, star_catalog):
    assert_same_choice(*both_ways(
        lambda: optimize_script(STARJOIN_QUERIES[name], star_catalog)
    ))


@pytest.mark.parametrize("constants", [
    (6, 2, 2023, 8), (16, 3, 2023, 3), (5, 0, 2023, 2),
])
def test_band_batches_unchanged(constants, star_catalog):
    bounded, unbounded = both_ways(
        lambda: batch_result(star_catalog, band_batch(*constants))
    )
    assert_same_choice(bounded, unbounded)
    assert bounded.details.engine.stats.lcas_pruned == 1


@pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "LS1"])
def test_paper_scripts_unchanged(name):
    assert_same_choice(*both_ways(lambda: paper_result(name)))


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_plans_unchanged(path):
    catalog = catalog_from_json((CORPUS_DIR / "catalog.json").read_text())
    config = OptimizerConfig(cost_params=CostParams(machines=4))
    text = path.read_text()
    assert_same_choice(*both_ways(
        lambda: optimize_script(text, catalog, config)
    ))


#: LCA #4 is pruned (bound 16,684 against a phase-1 cost of 3,614.73),
#: yet phase 2 still returns a plan through an expression bypassing it,
#: as costly as phase 1; the conventional fallback wins both ways.
BYPASSED_PRUNED_LCA = (
    'R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor; '
    'X0 = SELECT A,B,C,D AS V FROM R0; '
    'X1 = SELECT A,Sum(V) AS V FROM X0 GROUP BY A; '
    'X2 = SELECT X0.A AS A, X0.V AS V, X1.V AS W FROM X0, X1 '
    'WHERE X0.A = X1.A; '
    'X3 = SELECT A,V FROM X2 WHERE V > 0; '
    'OUTPUT X3 TO "out0.res";'
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=scope_scripts())
@example(script=BYPASSED_PRUNED_LCA)
def test_random_scripts_unchanged(script):
    catalog = small_catalog()
    config = OptimizerConfig(cost_params=CostParams(machines=3))
    assert_same_choice(*both_ways(
        lambda: optimize_script(script, catalog, config)
    ))


# -- where the bound fires ------------------------------------------------------


def test_fires_on_star_batch(star_catalog):
    result = batch_result(star_catalog, STAR_BATCH)
    stats = result.details.engine.stats
    assert stats.rounds == 0
    assert stats.lcas_pruned == 1
    (lca,) = set(result.details.propagation.lca.values())
    ((pruned_lca, bound),) = stats.prune_log
    assert pruned_lca == lca
    assert bound >= result.details.phase1_cost
    assert result.details.chosen_phase == 1


def test_fires_on_store_split(star_catalog):
    result = optimize_script(Q["q06_store_split"], star_catalog)
    stats = result.details.engine.stats
    assert (stats.rounds, stats.lcas_pruned) == (0, 1)


def paper_result(name):
    """The Figure-7 harness's optimization of a paper script."""
    if name in PAPER_SCRIPTS:
        text, catalog = PAPER_SCRIPTS[name], make_catalog()
    else:
        text, catalog, _ = make_large_script(name)
    return optimize_script(
        text, catalog, OptimizerConfig(cost_params=CostParams(machines=25))
    )


@pytest.mark.parametrize("name", sorted(PAPER_ROUNDS))
def test_never_fires_on_paper_scripts(name):
    result = paper_result(name)
    stats = result.details.engine.stats
    assert stats.lcas_pruned == 0
    assert stats.rounds == PAPER_ROUNDS[name]
    details = result.details
    assert (result.cost, details.phase1_cost, details.phase2_cost,
            details.fallback_cost) == PAPER_COSTS[name]


# -- guards -----------------------------------------------------------------


def prepared_engine(text, catalog):
    """An engine right before phase 2, as the CSE pipeline leaves it."""
    memo = Memo.from_logical_plan(prune_columns(compile_text(text, catalog)))
    identify_common_subexpressions(memo)
    engine = SearchEngine(memo, catalog)
    annotate_memo(memo, engine.estimator)
    assert engine.optimize(PHASE_CONVENTIONAL) is not None
    propagation = propagate_shared_groups(memo)
    engine.refresh_cse_annotations(propagation.independent_sets)
    return engine, propagation


def test_zero_incumbent_prunes_every_guarded_lca():
    engine, propagation = prepared_engine(PAPER_SCRIPTS["S1"], make_catalog())
    engine.incumbent = 0.0
    assert engine.optimize(PHASE_CSE) is None
    assert engine.stats.rounds == 0
    assert engine.stats.lcas_pruned == 1


def test_bypassable_shared_group_blocks_pruning():
    engine, propagation = prepared_engine(PAPER_SCRIPTS["S1"], make_catalog())
    memo = engine.memo
    ((shared, lca),) = propagation.lca.items()
    assert engine._unavoidable(lca, shared)
    # Give every consumer an alternative reading the un-spooled input:
    # a plan of the LCA no longer has to contain the shared group.
    (spooled,) = memo.group(shared).initial_expr.children
    for consumer in propagation.consumers[shared]:
        expr = memo.group(consumer).initial_expr
        bypass = tuple(spooled if c == shared else c for c in expr.children)
        assert memo.add_expr_to_group(consumer, GroupExpr(expr.op, bypass))
    assert not engine._unavoidable(lca, shared)

    engine.incumbent = 0.0
    assert engine.optimize(PHASE_CSE) is not None
    assert engine.stats.lcas_pruned == 0
    assert engine.stats.rounds > 0


def test_lca_under_enforcement_is_not_bounded():
    engine, propagation = prepared_engine(PAPER_SCRIPTS["S1"],
                                          make_catalog())
    engine.incumbent = 0.0
    ((shared, lca),) = propagation.lca.items()
    # An enforcement already in force means an outer LCA's round is
    # running: its greedy unit choice reads this LCA's rounds, so they
    # must run.  (The outer shared group is a stand-in id outside the
    # memo; no group reaches it.)
    outer = len(engine.memo.groups) + 1
    ctx = {outer: engine._entries_for(shared)[0]}
    plan = engine._optimize_with_rounds(lca, ReqProps.anything(), ctx,
                                        [shared], PHASE_CSE)
    assert plan is not None
    assert engine.stats.lcas_pruned == 0
    assert engine.stats.rounds == PAPER_ROUNDS["S1"]


# -- reporting ----------------------------------------------------------------


def test_trace_and_summary_name_the_pruned_lca(star_catalog):
    config = OptimizerConfig(trace=True)
    result = QueryService(star_catalog, config=config).submit_many(
        STAR_BATCH
    ).result
    details = result.details
    (lca,) = set(details.propagation.lca.values())
    (event,) = details.engine.trace.prunes()
    assert event.gid == lca
    assert event.incumbent == details.phase1_cost
    assert event.cost >= event.incumbent
    assert details.engine.trace.rounds() == []
    assert (f"phase 2: pruned at LCA #{lca} (bound ≥ phase-1 cost)"
            in result.cse_summary())


def test_explain_names_the_pruned_lca(tmp_path, star_catalog, capsys):
    catalog = tmp_path / "catalog.json"
    catalog.write_text(catalog_to_json(star_catalog))
    script = tmp_path / "q06.sql"
    script.write_text(Q["q06_store_split"])
    assert main(["explain", str(script), "--catalog", str(catalog)]) == 0
    out = capsys.readouterr().out
    assert "phase-2 rounds: 0" in out
    assert "phase 2: pruned at LCA #" in out


# -- run-scoped caches and incremental DAG costing ------------------------------


def reference_dag_cost(model, plans):
    """``CostModel.dag_cost_of`` as a plain walk: no cached cost or spool
    set is read, so every node is priced from its children down."""
    def has_spool(node):
        return any(isinstance(n.op, PhysSpool) for n in node.iter_nodes())

    def walk(node, seen):
        if isinstance(node.op, PhysSpool):
            if id(node) in seen:
                return model.spool_read_cost(node)
            seen.add(id(node))
            return node.self_cost + walk(node.children[0], seen)
        if not has_spool(node):
            return node.cost
        return node.self_cost + sum(walk(c, seen) for c in node.children)

    seen = set()
    return sum(walk(plan, seen) for plan in plans)


def assert_winners_priced_exactly(result):
    engine = result.details.engine
    model = engine.cost_model
    winners = [
        plan
        for group in engine.memo.groups
        for plan in group.winners.values()
        if plan is not None
    ]
    assert winners
    for plan in winners:
        assert model.dag_cost(plan) == reference_dag_cost(model, [plan])
    # All winners as one DAG: walks that meet already-built spools.
    assert model.dag_cost_of(winners) == reference_dag_cost(model, winners)
    # Nothing context-free outlives the run that computed it.
    assert not engine._candidates
    assert not engine._enforcer_chains
    assert not engine._compensations
    return winners


def assert_spools_won(winners):
    """Sharing was chosen, so the walks above met already-built spools."""
    assert any(plan.find_all(PhysSpool) for plan in winners)


def test_star_batch_winners_priced_exactly(star_catalog):
    assert_spools_won(assert_winners_priced_exactly(
        batch_result(star_catalog, STAR_BATCH)
    ))


@pytest.mark.parametrize("name", sorted(PAPER_ROUNDS))
def test_paper_winners_priced_exactly(name):
    assert_spools_won(assert_winners_priced_exactly(paper_result(name)))


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_winners_priced_exactly(path):
    catalog = catalog_from_json((CORPUS_DIR / "catalog.json").read_text())
    config = OptimizerConfig(cost_params=CostParams(machines=4))
    assert_winners_priced_exactly(
        optimize_script(path.read_text(), catalog, config)
    )


def test_bound_settles_combinations_before_the_outer_group(star_catalog):
    """On the cold-batch shape the enforced ``store_sales`` spool alone
    costs more than the phase-1 plan under some layouts, so those
    combinations never optimize the ``band_sales`` spool above it."""
    details = batch_result(star_catalog, band_batch(6, 2, 2023, 8)).details
    engine = details.engine
    assert engine.stats.lcas_pruned == 1
    shared = sorted(details.propagation.lca, key=lambda g: len(
        engine._shared_reach(g)))
    outer = shared[-1]
    assert engine._shared_reach(outer) == frozenset(shared)
    combinations = 1
    for gid in shared:
        combinations *= len(engine._entries_for(gid))
    assert combinations == 40
    contexts = {
        key[1] for key in engine.memo.group(outer).winners if key[1]
    }
    assert 0 < len(contexts) < combinations
