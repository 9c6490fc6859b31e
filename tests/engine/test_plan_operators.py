"""Physical operators must compute exactly what the naive interpreter does,
and must do strictly less work on the workloads they are designed for."""

import pytest

from repro.adl import ast as A
from repro.adl import builders as B
from repro.engine.interpreter import Interpreter
from repro.engine.plan import (
    ExecRuntime,
    EvalExpr,
    Filter,
    HashJoinBase,
    MembershipHashJoin,
    NestedLoopJoin,
    Scan,
)
from repro.engine.planner import Executor
from repro.engine.stats import Stats
from repro.datamodel import PlanError, VTuple, vset
from repro.storage import MemoryDatabase
from repro.workload.generator import generate_xy


@pytest.fixture()
def db():
    return MemoryDatabase(
        {
            "X": [VTuple(a=1, b=10), VTuple(a=2, b=20), VTuple(a=3, b=30)],
            "Y": [VTuple(d=1, e=1), VTuple(d=1, e=2), VTuple(d=3, e=3)],
        }
    )


EQ = B.eq(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d"))
TRUE = A.Literal(True)


def rt_for(db):
    return ExecRuntime(db, Stats())


def naive(expr, db):
    return Interpreter(db).eval(expr)


class TestJoinKindsAgainstNaive:
    """Each hash implementation == nested-loop implementation == interpreter."""

    @pytest.mark.parametrize("kind,node_cls", [
        ("join", A.Join), ("semijoin", A.SemiJoin), ("antijoin", A.AntiJoin),
    ])
    def test_hash_vs_naive(self, db, kind, node_cls):
        logical = node_cls(B.extent("X"), B.extent("Y"), "x", "y", EQ)
        hash_plan = HashJoinBase(
            kind, "x", "y",
            (B.attr(B.var("x"), "a"),), (B.attr(B.var("y"), "d"),),
            TRUE, Scan("X"), Scan("Y"),
        )
        nl_plan = NestedLoopJoin(kind, "x", "y", EQ, Scan("X"), Scan("Y"))
        expected = naive(logical, db)
        assert hash_plan.execute(rt_for(db)) == expected
        assert nl_plan.execute(rt_for(db)) == expected

    def test_outerjoin(self, db):
        logical = A.OuterJoin(B.extent("X"), B.extent("Y"), "x", "y", EQ, ("d", "e"))
        hash_plan = HashJoinBase(
            "outerjoin", "x", "y",
            (B.attr(B.var("x"), "a"),), (B.attr(B.var("y"), "d"),),
            TRUE, Scan("X"), Scan("Y"), right_attrs=("d", "e"),
        )
        assert hash_plan.execute(rt_for(db)) == naive(logical, db)

    def test_nestjoin(self, db):
        logical = B.nestjoin(B.extent("X"), B.extent("Y"), "x", "y", EQ, "ys")
        hash_plan = HashJoinBase(
            "nestjoin", "x", "y",
            (B.attr(B.var("x"), "a"),), (B.attr(B.var("y"), "d"),),
            TRUE, Scan("X"), Scan("Y"), as_attr="ys", result=A.Var("y"),
        )
        assert hash_plan.execute(rt_for(db)) == naive(logical, db)

    def test_residual_predicate(self, db):
        residual = B.gt(B.attr(B.var("y"), "e"), 1)
        logical = A.Join(B.extent("X"), B.extent("Y"), "x", "y", A.And(EQ, residual))
        hash_plan = HashJoinBase(
            "join", "x", "y",
            (B.attr(B.var("x"), "a"),), (B.attr(B.var("y"), "d"),),
            residual, Scan("X"), Scan("Y"),
        )
        assert hash_plan.execute(rt_for(db)) == naive(logical, db)

    def test_invalid_kind_rejected(self):
        with pytest.raises(PlanError):
            NestedLoopJoin("fancy", "x", "y", TRUE, Scan("X"), Scan("Y"))
        with pytest.raises(PlanError):
            HashJoinBase("join", "x", "y", (), (), TRUE, Scan("X"), Scan("Y"))


class TestMembershipJoin:
    @pytest.fixture()
    def mdb(self):
        return MemoryDatabase({
            "S": [
                VTuple(s=1, parts=vset(10, 20)),
                VTuple(s=2, parts=vset(30)),
                VTuple(s=3, parts=frozenset()),
            ],
            "P": [VTuple(pid=10), VTuple(pid=20), VTuple(pid=99)],
        })

    def test_left_set_semijoin(self, mdb):
        logical = A.SemiJoin(
            B.extent("S"), B.extent("P"), "s", "p",
            B.member(B.attr(B.var("p"), "pid"), B.attr(B.var("s"), "parts")),
        )
        plan = MembershipHashJoin(
            "semijoin", "s", "p",
            B.attr(B.var("p"), "pid"), B.attr(B.var("s"), "parts"),
            "left-set", TRUE, Scan("S"), Scan("P"),
        )
        assert plan.execute(rt_for(mdb)) == naive(logical, mdb)

    def test_left_set_antijoin(self, mdb):
        logical = A.AntiJoin(
            B.extent("S"), B.extent("P"), "s", "p",
            B.member(B.attr(B.var("p"), "pid"), B.attr(B.var("s"), "parts")),
        )
        plan = MembershipHashJoin(
            "antijoin", "s", "p",
            B.attr(B.var("p"), "pid"), B.attr(B.var("s"), "parts"),
            "left-set", TRUE, Scan("S"), Scan("P"),
        )
        out = plan.execute(rt_for(mdb))
        assert out == naive(logical, mdb)
        assert {t["s"] for t in out} == {2, 3}  # 30 not in P; empty set never matches

    def test_left_set_nestjoin(self, mdb):
        logical = B.nestjoin(
            B.extent("S"), B.extent("P"), "s", "p",
            B.member(B.attr(B.var("p"), "pid"), B.attr(B.var("s"), "parts")), "ps",
        )
        plan = MembershipHashJoin(
            "nestjoin", "s", "p",
            B.attr(B.var("p"), "pid"), B.attr(B.var("s"), "parts"),
            "left-set", TRUE, Scan("S"), Scan("P"),
            as_attr="ps", result=A.Var("p"),
        )
        assert plan.execute(rt_for(mdb)) == naive(logical, mdb)

    def test_right_set_orientation(self):
        db = MemoryDatabase({
            "E": [VTuple(k=1), VTuple(k=5)],
            "S": [VTuple(s=1, members=vset(1, 2)), VTuple(s=2, members=vset(3))],
        })
        logical = A.Join(
            B.extent("E"), B.extent("S"), "e", "s",
            B.member(B.attr(B.var("e"), "k"), B.attr(B.var("s"), "members")),
        )
        plan = MembershipHashJoin(
            "join", "e", "s",
            B.attr(B.var("e"), "k"), B.attr(B.var("s"), "members"),
            "right-set", TRUE, Scan("E"), Scan("S"),
        )
        assert plan.execute(rt_for(db)) == naive(logical, db)


class TestWorkCounters:
    def test_hash_semijoin_beats_nested_loop(self):
        db = generate_xy(100, 100, key_domain=50, seed=1)
        logical = A.SemiJoin(B.extent("X"), B.extent("Y"), "x", "y",
                             B.eq(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d")))
        nl_stats, hash_stats = Stats(), Stats()
        nl = NestedLoopJoin("semijoin", "x", "y",
                            B.eq(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d")),
                            Scan("X"), Scan("Y"))
        hj = HashJoinBase("semijoin", "x", "y",
                          (B.attr(B.var("x"), "a"),), (B.attr(B.var("y"), "d"),),
                          TRUE, Scan("X"), Scan("Y"))
        out_nl = nl.execute(ExecRuntime(db, nl_stats))
        out_hj = hj.execute(ExecRuntime(db, hash_stats))
        assert out_nl == out_hj
        assert hash_stats.total_work() < nl_stats.total_work() / 3

    def test_explain_renders_tree(self, db):
        plan = HashJoinBase(
            "join", "x", "y",
            (B.attr(B.var("x"), "a"),), (B.attr(B.var("y"), "d"),),
            TRUE, Scan("X"), Scan("Y"),
        )
        text = plan.explain()
        assert "HashJoin(join)" in text
        assert "Scan [X]" in text and "Scan [Y]" in text


class TestPipelineOperators:
    def test_filter(self, db):
        plan = Filter("x", B.gt(B.attr(B.var("x"), "a"), 1), Scan("X"))
        assert plan.execute(rt_for(db)) == vset(VTuple(a=2, b=20), VTuple(a=3, b=30))

    def test_eval_leaf_requires_set(self, db):
        with pytest.raises(PlanError):
            EvalExpr(B.lit(1)).execute(rt_for(db))

    def test_executor_matches_interpreter_on_pipeline(self, db):
        expr = B.project(
            B.sel("y", B.gt(B.attr(B.var("y"), "e"), 1), B.extent("Y")), "d"
        )
        assert Executor(db).execute(expr) == naive(expr, db)
