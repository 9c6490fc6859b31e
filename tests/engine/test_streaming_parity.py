"""Streaming parity: for every physical operator class, the streaming
interface (``iterate``) and the materializing wrapper (``execute``) must
produce the same set AND the same work counters, and the result must equal
the reference :class:`Interpreter`'s evaluation of the operator's logical
ADL form."""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.adl import ast as A
from repro.adl import builders as B
from repro.datamodel import MissingAttributeError, VTuple, vset
from repro.datamodel.errors import QueryTimeoutError
from repro.engine.nestjoin_impls import SortMergeNestJoin
from repro.engine.plan import (
    CartesianProduct,
    DivisionOp,
    EvalExpr,
    ExecRuntime,
    Filter,
    FlattenOp,
    HashJoinBase,
    IndexNestedLoopJoin,
    IndexScan,
    MapOp,
    MaterializeOp,
    MembershipHashJoin,
    NestOp,
    NestedLoopJoin,
    PlanNode,
    ProjectOp,
    RenameOp,
    Scan,
    SetOp,
    UnnestOp,
)
from repro.engine.interpreter import Interpreter
from repro.engine.stats import Stats
from repro.shard import Exchange, PartitionedHashJoin, PartitionedScan, ShardRef
from repro.shred import StitchNest
from repro.storage import Catalog, MemoryDatabase
from repro.workload.generator import generate_database

TRUE = A.Literal(True)
EQ = B.eq(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "d"))
XA = (B.attr(B.var("x"), "a"),)
YD = (B.attr(B.var("y"), "d"),)


def flat_db():
    return MemoryDatabase(
        {
            "X": [VTuple(a=1, b=10), VTuple(a=2, b=20), VTuple(a=3, b=30)],
            "Y": [VTuple(d=1, e=1), VTuple(d=1, e=2), VTuple(d=3, e=3)],
            "Y2": [VTuple(d=1, e=1), VTuple(d=9, e=9)],
            "NESTED": [
                VTuple(k=1, ms=vset(VTuple(m=1), VTuple(m=2))),
                VTuple(k=2, ms=frozenset()),
            ],
            "SETS": [vset(1, 2), vset(2, 3), frozenset()],
            "DIV": [VTuple(a=1, d=1), VTuple(a=1, d=3), VTuple(a=2, d=1)],
            "DIVISOR": [VTuple(d=1), VTuple(d=3)],
            "S": [
                VTuple(s=1, parts=vset(10, 20)),
                VTuple(s=2, parts=vset(30)),
                VTuple(s=3, parts=frozenset()),
            ],
            "P": [VTuple(pid=10), VTuple(pid=20), VTuple(pid=99)],
        }
    )


def paged_db():
    return generate_database(
        n_parts=20, n_suppliers=8, n_deliveries=10, seed=3, page_size=512
    )


def indexed_db():
    """flat_db plus a catalog with indexes (registered on the db itself,
    which is how ExecRuntime finds it)."""
    db = flat_db()
    catalog = Catalog(db)
    catalog.analyze(["X", "Y"])
    catalog.create_index("X", "a")
    catalog.create_index("Y", "d")
    return db


def partitioned_db():
    """flat_db plus registered 2-way partitionings of X and Y."""
    db = flat_db()
    catalog = Catalog(db)
    catalog.analyze(["X", "Y"])
    catalog.partition("X", "a", 2)
    catalog.partition("Y", "d", 2)
    return db


def kinds_db():
    """The join-kind fixture (Table 3 / Fig. 2 territory): an empty right
    side (``EMPTY``), dangling left rows (``a=2``; ``pid=99``; ``s=2``,
    whose part is in no ``PR`` row; ``s=3``, whose set is empty), duplicate
    matches (``a=1`` meets three ``YR`` rows, ``pid=30`` two ``SR`` rows)
    and left rows whose every candidate the residuals below reject
    (``a=4``; ``s=4``; ``pid=10``).  ``YR.d`` and ``EMPTY.d`` are indexed
    for the index nested-loop cells."""
    db = MemoryDatabase(
        {
            "XR": [VTuple(a=a, b=10 * a) for a in (1, 2, 3, 4)],
            "YR": [
                VTuple(d=1, e=1), VTuple(d=1, e=2), VTuple(d=1, e=3),
                VTuple(d=3, e=3), VTuple(d=4, e=-5),
            ],
            "SR": [
                VTuple(s=1, parts=vset(10, 20, 30)),
                VTuple(s=2, parts=vset(40)),
                VTuple(s=3, parts=frozenset()),
                VTuple(s=4, parts=vset(10)),
                VTuple(s=5, parts=vset(30)),
            ],
            "PR": [VTuple(pid=10), VTuple(pid=20), VTuple(pid=30), VTuple(pid=99)],
            "EMPTY": [],
        }
    )
    catalog = Catalog(db)
    catalog.create_index("YR", "d")
    catalog.create_index("EMPTY", "d")
    return db


#: the left operand of the filtered gather-join case: the selection rides
#: into every fragment, and ``explain()`` renders it over the shards
X_A_GT_1_PRED = B.gt(B.attr(B.var("x"), "a"), 1)


def _gathered_join(strategy="partition-wise", kind="join", left_pred=None):
    """A gather over a :class:`PartitionedHashJoin` of ``X`` and ``Y`` on
    ``x.a = y.d``, shaped as the planner builds each strategy:
    partition-wise reads the stored 2-way shards of both sides, broadcast
    reads X's shards against the whole of Y, and repartition hash-filters
    both sides 3 ways (a partition count with no stored shards)."""
    import dataclasses

    from repro.shard.fragment import LEFT_PLACEHOLDER, RIGHT_PLACEHOLDER, rebind_extent

    left = B.extent("X")
    if left_pred is not None:
        left = B.sel("x", left_pred, left)
    expr = {"join": B.join, "semijoin": B.semijoin}[kind](
        left, B.extent("Y"), "x", "y", EQ
    )
    template = dataclasses.replace(
        expr,
        left=rebind_extent(expr.left, LEFT_PLACEHOLDER),
        right=rebind_extent(expr.right, RIGHT_PLACEHOLDER),
    )
    parts = 3 if strategy == "repartition" else 2
    right_ref = {
        "partition-wise": lambda i: ShardRef("Y", "d", parts, i),
        "broadcast": lambda i: ShardRef("Y"),
        "repartition": lambda i: ShardRef("Y", "d", parts, i),
    }[strategy]
    bindings = [
        {LEFT_PLACEHOLDER: ShardRef("X", "a", parts, i), RIGHT_PLACEHOLDER: right_ref(i)}
        for i in range(parts)
    ]
    left_node = PartitionedScan("X", "a", parts)
    right_node = PartitionedScan("Y", "d", parts)
    if strategy == "broadcast":
        right_node = Exchange("broadcast", Scan("Y"), parts)
    elif strategy == "repartition":
        left_node = Exchange("repartition", left_node, parts, key_attr="a")
        right_node = Exchange("repartition", right_node, parts, key_attr="d")
    if left_pred is not None:
        left_node = Filter("x", left_pred, left_node)
    join = PartitionedHashJoin(
        kind, "x", "y", EQ, strategy, parts, template, bindings, left_node, right_node,
    )
    return Exchange("gather", join, parts)


# one representative instance per operator class; (factory, db factory)
CASES = {
    "Scan": (lambda: Scan("X"), flat_db),
    "EvalExpr": (
        lambda: EvalExpr(B.sel("x", B.gt(B.attr(B.var("x"), "a"), 1), B.extent("X"))),
        flat_db,
    ),
    "Filter": (
        lambda: Filter("x", B.gt(B.attr(B.var("x"), "a"), 1), Scan("X")),
        flat_db,
    ),
    "MapOp": (
        lambda: MapOp("x", B.tup(v=B.attr(B.var("x"), "a")), Scan("X")),
        flat_db,
    ),
    "ProjectOp": (lambda: ProjectOp(("a",), Scan("X")), flat_db),
    "RenameOp": (lambda: RenameOp((("a", "z"),), Scan("X")), flat_db),
    "UnnestOp": (lambda: UnnestOp("ms", Scan("NESTED")), flat_db),
    "NestOp": (lambda: NestOp(("e",), "es", Scan("Y")), flat_db),
    "FlattenOp": (lambda: FlattenOp(Scan("SETS")), flat_db),
    "SetOp-union": (lambda: SetOp("union", Scan("Y"), Scan("Y2")), flat_db),
    "SetOp-intersect": (lambda: SetOp("intersect", Scan("Y"), Scan("Y2")), flat_db),
    "SetOp-difference": (lambda: SetOp("difference", Scan("Y"), Scan("Y2")), flat_db),
    "CartesianProduct": (lambda: CartesianProduct(Scan("X"), Scan("Y")), flat_db),
    "DivisionOp": (lambda: DivisionOp(Scan("DIV"), Scan("DIVISOR")), flat_db),
    "SortMergeNestJoin": (
        lambda: SortMergeNestJoin(
            "x", "y", XA[0], YD[0], TRUE, Scan("X"), Scan("Y"), "g", A.Var("y")
        ),
        flat_db,
    ),
    "MaterializeOp": (
        lambda: MaterializeOp("parts_supplied", "objs", "Part", Scan("SUPPLIER")),
        paged_db,
    ),
    "MembershipHashJoin-left-set": (
        lambda: MembershipHashJoin(
            "semijoin", "s", "p",
            B.attr(B.var("p"), "pid"), B.attr(B.var("s"), "parts"),
            "left-set", TRUE, Scan("S"), Scan("P"),
        ),
        flat_db,
    ),
    "MembershipHashJoin-right-set": (
        lambda: MembershipHashJoin(
            "join", "p", "s",
            B.attr(B.var("p"), "pid"), B.attr(B.var("s"), "parts"),
            "right-set", TRUE, Scan("P"), Scan("S"),
        ),
        flat_db,
    ),
    "IndexScan": (lambda: IndexScan("X", "a", B.lit(1), "idx_X_a"), indexed_db),
    "HashJoinBase-build-left": (
        lambda: HashJoinBase(
            "join", "x", "y", XA, YD, TRUE, Scan("X"), Scan("Y"),
            build_side="left",
        ),
        flat_db,
    ),
    # PR 5: the one parallel shape the planner emits, a gather over a
    # partitioned join, in each strategy and join kind it parallelizes
    # (inline fragment execution; the pool path runs the identical
    # execute_fragment and is parity-tested in
    # tests/shard/test_parallel_parity.py)
    "Exchange-gather-join": (lambda: _gathered_join(), partitioned_db),
    "Exchange-gather-semijoin": (
        lambda: _gathered_join(kind="semijoin"), partitioned_db,
    ),
    "Exchange-gather-filtered-join": (
        lambda: _gathered_join(left_pred=X_A_GT_1_PRED), partitioned_db,
    ),
    "Exchange-gather-broadcast-join": (
        lambda: _gathered_join("broadcast"), partitioned_db,
    ),
    "Exchange-gather-broadcast-semijoin": (
        lambda: _gathered_join("broadcast", kind="semijoin"), partitioned_db,
    ),
    "Exchange-gather-repartition-join": (
        lambda: _gathered_join("repartition"), partitioned_db,
    ),
    "Exchange-gather-repartition-semijoin": (
        lambda: _gathered_join("repartition", kind="semijoin"), partitioned_db,
    ),
    # PR 9: the stitch reassembling a shredded nestjoin — outer re-stream
    # over the consumed inner flat join (full matrix in tests/shred/)
    "StitchNest": (
        lambda: StitchNest(
            "x", "y", "ys", A.Var("y"), ("a", "b"),
            Scan("X"),
            HashJoinBase("join", "x", "y", XA, YD, TRUE, Scan("X"), Scan("Y")),
        ),
        flat_db,
    ),
}

for kind in ("join", "semijoin", "antijoin", "outerjoin", "nestjoin"):
    extra = {}
    if kind == "outerjoin":
        extra = {"right_attrs": ("d", "e")}
    elif kind == "nestjoin":
        extra = {"as_attr": "ys", "result": A.Var("y")}
    CASES[f"NestedLoopJoin-{kind}"] = (
        lambda kind=kind, extra=extra: NestedLoopJoin(
            kind, "x", "y", EQ, Scan("X"), Scan("Y"), **extra
        ),
        flat_db,
    )
    CASES[f"HashJoinBase-{kind}"] = (
        lambda kind=kind, extra=extra: HashJoinBase(
            kind, "x", "y", XA, YD, TRUE, Scan("X"), Scan("Y"), **extra
        ),
        flat_db,
    )
    CASES[f"IndexNestedLoopJoin-{kind}"] = (
        lambda kind=kind, extra=extra: IndexNestedLoopJoin(
            kind, "x", "y", XA[0], "Y", "d", "idx_Y_d", TRUE, Scan("X"), **extra
        ),
        indexed_db,
    )


# emitting joins: a plain ``join`` whose ``result`` is set emits
# ``result(x, y)`` per pair instead of ``x ∘ y`` (full matrix in
# tests/engine/test_emitting_join.py)
EMIT = B.tup(v=B.attr(B.var("x"), "b"), w=B.attr(B.var("y"), "e"))
CASES["NestedLoopJoin-emitting"] = (
    lambda: NestedLoopJoin("join", "x", "y", EQ, Scan("X"), Scan("Y"), result=EMIT),
    flat_db,
)
for side in ("left", "right"):
    CASES[f"HashJoinBase-emitting-build-{side}"] = (
        lambda side=side: HashJoinBase(
            "join", "x", "y", XA, YD, TRUE, Scan("X"), Scan("Y"),
            result=EMIT, build_side=side,
        ),
        flat_db,
    )
CASES["IndexNestedLoopJoin-emitting"] = (
    lambda: IndexNestedLoopJoin(
        "join", "x", "y", XA[0], "Y", "d", "idx_Y_d", TRUE, Scan("X"), result=EMIT
    ),
    indexed_db,
)
CASES["MembershipHashJoin-emitting"] = (
    lambda: MembershipHashJoin(
        "join", "s", "p",
        B.attr(B.var("p"), "pid"), B.attr(B.var("s"), "parts"),
        "left-set", TRUE, Scan("S"), Scan("P"),
        result=B.tup(s=B.attr(B.var("s"), "s"), pid=B.attr(B.var("p"), "pid")),
    ),
    flat_db,
)


# the join-kind cells over ``kinds_db``: every serial strategy x the four
# kinds whose dangling-tuple / empty-set behaviour differs, each with a
# residual that rejects some but not all candidates and again against an
# empty right side, plus the membership join's remaining trivial-residual
# cells on both probe sides
S_VAR, P_VAR = B.var("s"), B.var("p")
PID, PARTS = B.attr(P_VAR, "pid"), B.attr(S_VAR, "parts")
PID_IN_PARTS = B.member(PID, PARTS)
RES_XY = B.gt(B.add(B.attr(B.var("x"), "a"), B.attr(B.var("y"), "e")), 2)
RES_SP = B.gt(B.add(PID, B.attr(S_VAR, "s")), 14)


def _kind_extra(kind, right_attrs, rvar):
    if kind == "outerjoin":
        return {"right_attrs": right_attrs}
    if kind == "nestjoin":
        return {"as_attr": "grp", "result": A.Var(rvar)}
    return {}


def _xy_strategies(kind, residual, right):
    """NL / hash / INLJ nodes for ``XR (kind)⟨x,y : x.a = y.d ∧ residual⟩ right``."""
    extra = _kind_extra(kind, ("d", "e"), "y")
    return {
        "NestedLoopJoin": lambda: NestedLoopJoin(
            kind, "x", "y", B.conj(EQ, residual), Scan("XR"), Scan(right), **extra
        ),
        "HashJoinBase": lambda: HashJoinBase(
            kind, "x", "y", XA, YD, residual, Scan("XR"), Scan(right), **extra
        ),
        "IndexNestedLoopJoin": lambda: IndexNestedLoopJoin(
            kind, "x", "y", XA[0], right, "d", f"idx_{right}_d", residual,
            Scan("XR"), **extra
        ),
    }


#: probe side -> (left extent, right extent, lvar, rvar, right attributes)
#: of ``SR (kind) PR`` / ``PR (kind) SR`` on ``p.pid ∈ s.parts``
MEMBERSHIP_SIDES = {
    "left-set": ("SR", "PR", "s", "p", ("pid",)),
    "right-set": ("PR", "SR", "p", "s", ("s", "parts")),
}


def _membership(kind, probe_side, residual, right):
    left, _, lvar, rvar, attrs = MEMBERSHIP_SIDES[probe_side]
    return lambda: MembershipHashJoin(
        kind, lvar, rvar, PID, PARTS, probe_side, residual,
        Scan(left), Scan(right), **_kind_extra(kind, attrs, rvar),
    )


def _logical(kind, left, right, lvar, rvar, pred, right_attrs):
    args = (B.extent(left), B.extent(right), lvar, rvar, pred)
    if kind == "outerjoin":
        return B.outerjoin(*args, right_attrs)
    if kind == "nestjoin":
        return B.nestjoin(*args, "grp")
    return {"semijoin": B.semijoin, "antijoin": B.antijoin}[kind](*args)


KIND_LOGICAL = {}
for kind in ("semijoin", "antijoin", "outerjoin", "nestjoin"):
    for suffix, right in (("residual", "YR"), ("empty-right", "EMPTY")):
        for impl, factory in _xy_strategies(kind, RES_XY, right).items():
            CASES[f"{impl}-{kind}-{suffix}"] = (factory, kinds_db)
            KIND_LOGICAL[f"{impl}-{kind}-{suffix}"] = _logical(
                kind, "XR", right, "x", "y", B.conj(EQ, RES_XY), ("d", "e")
            )
    for side, (left, right, lvar, rvar, attrs) in MEMBERSHIP_SIDES.items():
        cells = {"residual": (RES_SP, right), "empty-right": (RES_SP, "EMPTY")}
        if kind != "semijoin" or side != "left-set":
            cells["trivial"] = (TRUE, right)  # semijoin left-set: already above
        for suffix, (residual, right_extent) in cells.items():
            name = f"MembershipHashJoin-{side}-{kind}-{suffix}"
            CASES[name] = (_membership(kind, side, residual, right_extent), kinds_db)
            KIND_LOGICAL[name] = _logical(
                kind, left, right_extent, lvar, rvar,
                B.conj(PID_IN_PARTS, residual) if residual != TRUE else PID_IN_PARTS,
                attrs,
            )


# the logical ADL form of every case above — what the reference
# interpreter evaluates as the oracle
X_EXT, Y_EXT = B.extent("X"), B.extent("Y")
LOGICAL_JOINS = {
    "join": B.join(X_EXT, Y_EXT, "x", "y", EQ),
    "semijoin": B.semijoin(X_EXT, Y_EXT, "x", "y", EQ),
    "antijoin": B.antijoin(X_EXT, Y_EXT, "x", "y", EQ),
    "outerjoin": B.outerjoin(X_EXT, Y_EXT, "x", "y", EQ, ("d", "e")),
    "nestjoin": B.nestjoin(X_EXT, Y_EXT, "x", "y", EQ, "ys"),
}
LOGICAL_EMITTING = B.flatten(
    B.amap("x", B.amap("y", EMIT, B.sel("y", EQ, Y_EXT)), X_EXT)
)
X_A_GT_1 = B.sel("x", B.gt(B.attr(B.var("x"), "a"), 1), X_EXT)
LOGICAL = {
    "Scan": X_EXT,
    "EvalExpr": X_A_GT_1,
    "Filter": X_A_GT_1,
    "MapOp": B.amap("x", B.tup(v=B.attr(B.var("x"), "a")), X_EXT),
    "ProjectOp": B.project(X_EXT, "a"),
    "RenameOp": B.rename(X_EXT, a="z"),
    "UnnestOp": B.unnest(B.extent("NESTED"), "ms"),
    "NestOp": B.nest(Y_EXT, ("e",), "es"),
    "FlattenOp": B.flatten(B.extent("SETS")),
    "SetOp-union": B.union(Y_EXT, B.extent("Y2")),
    "SetOp-intersect": B.intersect(Y_EXT, B.extent("Y2")),
    "SetOp-difference": B.difference(Y_EXT, B.extent("Y2")),
    "CartesianProduct": B.cart(X_EXT, Y_EXT),
    "DivisionOp": B.division(B.extent("DIV"), B.extent("DIVISOR")),
    "SortMergeNestJoin": B.nestjoin(X_EXT, Y_EXT, "x", "y", EQ, "g"),
    "MaterializeOp": B.materialize(
        B.extent("SUPPLIER"), "parts_supplied", "objs", "Part"
    ),
    "MembershipHashJoin-left-set": B.semijoin(
        B.extent("S"), B.extent("P"), "s", "p", PID_IN_PARTS
    ),
    "MembershipHashJoin-right-set": B.join(
        B.extent("P"), B.extent("S"), "p", "s", PID_IN_PARTS
    ),
    "MembershipHashJoin-emitting": B.flatten(
        B.amap(
            "s",
            B.amap(
                "p",
                B.tup(s=B.attr(B.var("s"), "s"), pid=B.attr(B.var("p"), "pid")),
                B.sel("p", PID_IN_PARTS, B.extent("P")),
            ),
            B.extent("S"),
        )
    ),
    "IndexScan": B.sel("x", B.eq(B.attr(B.var("x"), "a"), 1), X_EXT),
    "HashJoinBase-build-left": LOGICAL_JOINS["join"],
    "Exchange-gather-join": LOGICAL_JOINS["join"],
    "Exchange-gather-semijoin": LOGICAL_JOINS["semijoin"],
    "Exchange-gather-filtered-join": B.join(
        B.sel("x", X_A_GT_1_PRED, X_EXT), Y_EXT, "x", "y", EQ
    ),
    "Exchange-gather-broadcast-join": LOGICAL_JOINS["join"],
    "Exchange-gather-broadcast-semijoin": LOGICAL_JOINS["semijoin"],
    "Exchange-gather-repartition-join": LOGICAL_JOINS["join"],
    "Exchange-gather-repartition-semijoin": LOGICAL_JOINS["semijoin"],
    "StitchNest": LOGICAL_JOINS["nestjoin"],
    "NestedLoopJoin-emitting": LOGICAL_EMITTING,
    "HashJoinBase-emitting-build-left": LOGICAL_EMITTING,
    "HashJoinBase-emitting-build-right": LOGICAL_EMITTING,
    "IndexNestedLoopJoin-emitting": LOGICAL_EMITTING,
}
for impl in ("NestedLoopJoin", "HashJoinBase", "IndexNestedLoopJoin"):
    for kind, logical in LOGICAL_JOINS.items():
        LOGICAL[f"{impl}-{kind}"] = logical
LOGICAL.update(KIND_LOGICAL)


class TestIterateExecuteParity:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_result_and_counters(self, name):
        factory, db_factory = CASES[name]
        db = db_factory()

        stream_stats = Stats()
        streamed = frozenset(factory().iterate(ExecRuntime(db, stream_stats)))

        exec_stats = Stats()
        executed = factory().execute(ExecRuntime(db, exec_stats))

        assert streamed == executed, name
        assert stream_stats.snapshot() == exec_stats.snapshot(), name

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_interpreter_agrees(self, name):
        """The reference interpreter computes the same set from the
        operator's logical form (every case has one)."""
        factory, db_factory = CASES[name]
        db = db_factory()
        streaming = factory().execute(ExecRuntime(db, Stats()))
        assert streaming == Interpreter(db).eval(LOGICAL[name]), name

    def test_every_plan_node_class_is_covered(self):
        """Future operator classes must join the parity matrix."""

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        tested = {type(factory()) for factory, _ in CASES.values()}
        # the parallel join and its partitioned inputs never run on their
        # own: they ride along as the gather-join case's fragment template
        gather_join = CASES["Exchange-gather-join"][0]()
        tested |= {type(node) for node in gather_join.operators()}
        missing = {
            cls.__name__
            for cls in subclasses(PlanNode)
            if cls not in tested and not cls.__name__.startswith("_")
        }
        assert not missing, f"operators without parity coverage: {sorted(missing)}"


JOIN_CLASSES = (NestedLoopJoin, HashJoinBase, MembershipHashJoin, IndexNestedLoopJoin)
GOLDEN_JOIN_COUNTERS = os.path.join(os.path.dirname(__file__), "golden_join_counters.json")


def join_counter_table():
    """``{case: {"tuple": counters, "batch": counters}}`` (non-zero
    counters only) for every join-family case of the matrix."""
    table = {}
    for name in sorted(CASES):
        factory, db_factory = CASES[name]
        if not isinstance(factory(), JOIN_CLASSES):
            continue
        table[name] = {}
        for mode, batch_size in (("tuple", None), ("batch", 256)):
            stats = Stats()
            factory().execute(ExecRuntime(db_factory(), stats, batch_size=batch_size))
            table[name][mode] = {k: v for k, v in stats.snapshot().items() if v}
    return table


class TestJoinCounterGolden:
    def test_every_join_case_matches_the_golden_stats_table(self):
        """Row parity is the matrix above; this pins the *counters* of
        every strategy x kind cell to a table captured before the join
        family was folded into one emission loop, so a refactor of that
        loop is shown counter-identical, not just row-identical.

        Semijoins stop at the first match, so their counters depend on
        the iteration order of the right operand's frozenset — i.e. on
        string hashing.  The table is therefore computed in a child
        interpreter with ``PYTHONHASHSEED=0``; regenerate the file with
        ``PYTHONHASHSEED=0 PYTHONPATH=src python -m
        tests.engine.test_streaming_parity > tests/engine/golden_join_counters.json``."""
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        result = subprocess.run(
            [sys.executable, "-m", "tests.engine.test_streaming_parity"],
            capture_output=True, text=True, cwd=root,
            env=dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(root, "src")),
        )
        assert result.returncode == 0, result.stderr
        with open(GOLDEN_JOIN_COUNTERS) as fh:
            golden = json.load(fh)
        actual = json.loads(result.stdout)
        assert sorted(actual) == sorted(golden)
        for name in sorted(golden):
            assert actual[name] == golden[name], name


class TestDeadlineAtTheEdge:
    """The operator edge polls the deadline on open: under an expired one
    no operator hands on a row or a batch, whether or not its own loop
    ever polls."""

    @pytest.mark.parametrize("edge", ["stream", "stream_batches"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_expired_deadline_raises_before_the_first_item(self, name, edge):
        factory, db_factory = CASES[name]
        rt = ExecRuntime(
            db_factory(),
            Stats(),
            deadline=time.monotonic() - 1,
            batch_size=256 if edge == "stream_batches" else None,
        )
        with pytest.raises(QueryTimeoutError):
            next(iter(getattr(factory(), edge)(rt)))


class TestStreamingBehaviour:
    def test_scan_streams_pages_lazily(self):
        db = paged_db()
        db.reset_io()
        it = Scan("PART").iterate(ExecRuntime(db, Stats()))
        next(it)
        assert db.io.pages_read < db.page_count("PART")

    def test_filter_stops_scanning_once_consumer_stops(self):
        db = paged_db()
        db.reset_io()
        it = Filter(
            "p", B.gt(B.attr(B.var("p"), "price"), 0), Scan("PART")
        ).iterate(ExecRuntime(db, Stats()))
        next(it)
        assert db.io.pages_read < db.page_count("PART")

    def test_pipeline_breaks_counted(self):
        db = flat_db()
        stats = Stats()
        HashJoinBase(
            "join", "x", "y", XA, YD, TRUE, Scan("X"), Scan("Y")
        ).execute(ExecRuntime(db, stats))
        assert stats.pipeline_breaks == 1  # the build side only

        stats = Stats()
        SortMergeNestJoin(
            "x", "y", XA[0], YD[0], TRUE, Scan("X"), Scan("Y"), "g", A.Var("y")
        ).execute(ExecRuntime(db, stats))
        assert stats.pipeline_breaks == 2  # both sorts

        stats = Stats()
        Filter("x", TRUE, Scan("X")).execute(ExecRuntime(db, stats))
        assert stats.pipeline_breaks == 0  # fully pipelined

    def test_explain_marks_breakers(self):
        plan = HashJoinBase("join", "x", "y", XA, YD, TRUE, Scan("X"), Scan("Y"))
        text = plan.explain()
        assert "<builds right>" in text
        assert "Scan [X]" in text
        nest = NestOp(("e",), "es", Scan("Y"))
        assert "<groups input>" in nest.explain()
        assert "<" not in Filter("x", TRUE, Scan("X")).explain()


class TestRenameMissingAttribute:
    def test_rename_missing_attribute_raises_missing_attribute_error(self):
        db = flat_db()
        plan = RenameOp((("nope", "z"),), Scan("X"))
        with pytest.raises(MissingAttributeError) as err:
            plan.execute(ExecRuntime(db, Stats()))
        assert "nope" in str(err.value)

    def test_rename_missing_attribute_is_catchable_as_datamodel_key(self):
        from repro.datamodel import DataModelError

        db = flat_db()
        plan = RenameOp((("nope", "z"),), Scan("X"))
        with pytest.raises(DataModelError):
            frozenset(plan.iterate(ExecRuntime(db, Stats())))


if __name__ == "__main__":
    # prints the golden join-counter table, one case per line
    rows = [
        f" {json.dumps(name)}: {json.dumps(modes, sort_keys=True)}"
        for name, modes in join_counter_table().items()
    ]
    print("{\n" + ",\n".join(rows) + "\n}")
