"""One list of a join's physical alternatives, read by the join-order DP
and the physical planner alike.

An index nested-loop join reaches an indexed extent under any stack of
selections (the selections ride along as its residual), and the DP
prices a pair with an index join exactly when the planner can build one
— so the order the DP picks is one the planner can run at its price.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adl import builders as B
from repro.datamodel import VTuple
from repro.engine import plan as P
from repro.engine.cost import CostModel
from repro.engine.joinorder import _Enumerator, extract_join_graph
from repro.engine.planner import Executor, Planner
from repro.engine.stats import Stats
from repro.storage import Catalog, MemoryDatabase

v, a = B.var, B.attr


def stacked_db():
    """R1 ⋈ R2 ⋈ R3 at a tenth of the scale where the stacked-selection
    reorder was first seen (R1: 20 rows, R2: 2000, R3: 40,000): the
    plans are the same."""
    db = MemoryDatabase(
        {
            "R1": [VTuple(a1=i % 50) for i in range(5)],
            "R2": [VTuple(a2=i % 50, b2=i) for i in range(200)],
            "R3": [VTuple(b3=i, c3=i % 7, i3=i) for i in range(4000)],
        }
    )
    catalog = Catalog(db)
    catalog.analyze()
    catalog.create_index("R3", "b3")
    return db, catalog


def stacked_query():
    """``(σ[z : z.c3 < 5](R3) ⋈⟨z,y : z.b3 = y.b2⟩ R2)
    ⋈⟨t,x : t.a2 = x.a1 ∧ t.i3 >= 0⟩ R1`` — the DP pushes ``t.i3 >= 0``
    onto R3's leaf, which then stands under two selections."""
    inner = B.join(
        B.sel("z", B.lt(a(v("z"), "c3"), 5), B.extent("R3")),
        B.extent("R2"), "z", "y", B.eq(a(v("z"), "b3"), a(v("y"), "b2")),
    )
    return B.join(
        inner, B.extent("R1"), "t", "x",
        B.conj(B.eq(a(v("t"), "a2"), a(v("x"), "a1")), B.ge(a(v("t"), "i3"), 0)),
    )


def test_reordered_region_probes_the_index_under_stacked_selections():
    db, catalog = stacked_db()
    expr = stacked_query()
    reordered = Planner(catalog).plan(expr)
    kept = Planner(catalog, reorder=False).plan(expr)
    (decision,) = reordered.join_orders
    assert decision.reordered
    assert isinstance(reordered, P.IndexNestedLoopJoin)
    assert reordered.index_name == "idx_R3_b3"
    assert reordered.est_cost < kept.est_cost

    runs = {}
    for reorder in (True, False):
        stats = Stats()
        rows = Executor(db, stats, catalog=catalog, reorder=reorder).execute(expr)
        runs[reorder] = (rows, stats.total_work())
    assert runs[True][0] == runs[False][0]
    assert runs[True][1] < runs[False][1]


def index_db():
    return MemoryDatabase(
        {
            "L": [VTuple(a=i % 5) for i in range(4)],
            "M": [VTuple(m=i % 5, k=i) for i in range(20)],
            "R": [VTuple(b=i, c=i % 10, w=i) for i in range(2000)],
        }
    )


def index_catalog(db, indexed):
    """Statistics over ``db``, with an index on ``R.b`` when ``indexed``."""
    catalog = Catalog(db)
    catalog.analyze()
    if indexed:
        catalog.create_index("R", "b")
    return catalog


DB = index_db()
CATALOGS = {indexed: index_catalog(DB, indexed) for indexed in (True, False)}


def _right(depth, bounds):
    """R under ``depth`` stacked selections, each binding its own variable."""
    expr = B.extent("R")
    for j in range(depth):
        var = f"s{j}"
        expr = B.sel(var, B.lt(a(v(var), "c"), bounds[j]), expr)
    return expr


def _left():
    return B.join(B.extent("L"), B.extent("M"), "l", "m", B.eq(a(v("l"), "a"), a(v("m"), "m")))


def _dp_pair_price(catalog, region):
    graph = extract_join_graph(region, catalog)
    enumerator = _Enumerator(graph, CostModel(catalog))
    probe = frozenset((0, 1))
    probe_cost = enumerator.combine_cost(
        frozenset((0,)), enumerator.est[0].cost, frozenset((1,)), enumerator.est[1].cost
    )
    price = enumerator.combine_cost(probe, probe_cost, frozenset((2,)), enumerator.est[2].cost)
    return price, graph.leaves[2].expr


@settings(max_examples=40, deadline=None)
@given(
    depth=st.integers(0, 3),
    pushed=st.booleans(),
    key=st.sampled_from(["b", "c"]),
    bounds=st.lists(st.integers(1, 9), min_size=3, max_size=3),
)
def test_dp_prices_an_index_join_exactly_when_the_planner_builds_one(
    depth, pushed, key, bounds
):
    """R is indexed on ``b`` only; the probe side is a few rows, so an
    index join wins wherever it is an alternative — in the DP its price
    drops below the price without the index, in the planner the join is
    an :class:`~repro.engine.plan.IndexNestedLoopJoin`."""
    on_key = B.eq(a(v("t"), "k"), a(v("r"), key))
    pred = B.conj(on_key, B.lt(a(v("r"), "w"), 1500)) if pushed else on_key
    region = B.join(_left(), _right(depth, bounds), "t", "r", pred)

    with_index, leaf = _dp_pair_price(CATALOGS[True], region)
    without_index, _ = _dp_pair_price(CATALOGS[False], region)
    dp_index = with_index < without_index

    pair = B.join(_left(), leaf, "t", "r", on_key)
    plan = Planner(CATALOGS[True], reorder=False).plan(pair)
    planner_index = isinstance(plan, P.IndexNestedLoopJoin)

    assert dp_index == planner_index
    assert planner_index == (key == "b")
