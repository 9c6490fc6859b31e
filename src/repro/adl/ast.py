"""AST for ADL — the paper's complex-object algebra (Section 3).

Every operator the paper uses appears here as an expression node:

* tuple operators: subscription ``e[a1..an]``, ``except`` update, access;
* constructors: tuple, set, literals;
* the *iterators* (operators with lambda parameters): map ``α``, select
  ``σ``, the join family ``⋈ ⋉ ▷ ⊣`` and the quantifiers ``∃ ∀``;
* restructuring: nest ``ν``, unnest ``μ``, flatten, project ``π``,
  rename ``ρ``;
* set algebra: ``∪ ∩ −``, Cartesian product ``×``, division ``÷``;
* aggregates and scalar operators;
* the Section 6 additions: the nestjoin ``⊣``, the (left) outerjoin used by
  the Ganski–Wong repair, and ``materialize`` for pointer dereferencing.

Nodes are frozen dataclasses: structurally comparable, hashable, safe to
share between rewritten plans.  Collections inside nodes are tuples so the
whole tree stays immutable.

Generic traversal: :meth:`Expr.child_exprs` yields every sub-expression and
:meth:`Expr.map_children` rebuilds a node with transformed children — the
rewrite engine is written entirely against these two methods, so adding a
node type never requires touching the engine.  Both read the node class's
child-field names from :func:`child_fields`, computed once per class (every
field not annotated ``str``); ``map_children`` returns the node itself
when no child changed and otherwise rebuilds only that node, so the
siblings of a rewritten child keep their identity.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.datamodel.errors import DataModelError
from repro.datamodel.values import Value, format_value

# ---------------------------------------------------------------------------
# Operator vocabularies
# ---------------------------------------------------------------------------

#: Arithmetic operator names accepted by :class:`Arith`.
ARITH_OPS = ("+", "-", "*", "/", "mod")

#: Scalar comparison operator names accepted by :class:`Compare`.
COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")

#: Set comparison operator names accepted by :class:`SetCompare`, using the
#: paper's Table 1 vocabulary (``in`` is ``∈``, ``ni`` is ``∋`` i.e. the left
#: set *contains the right set as an element*).
SET_COMPARE_OPS = (
    "in",          # x.c ∈ Y'
    "notin",       # x.c ∉ Y'
    "subset",      # x.c ⊂ Y'   (proper)
    "subseteq",    # x.c ⊆ Y'
    "seteq",       # x.c = Y'
    "setneq",      # x.c ≠ Y'
    "supseteq",    # x.c ⊇ Y'
    "supset",      # x.c ⊃ Y'   (proper)
    "ni",          # x.c ∋ Y'   (Y' is an element of x.c)
    "notni",       # x.c ∌ Y'
    "disjoint",    # x.c ∩ Y' = ∅  (Table 2, third row)
)

#: Aggregate function names accepted by :class:`Aggregate`.
AGGREGATE_FUNCS = ("count", "sum", "min", "max", "avg")


_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {}


def child_fields(cls: type) -> Tuple[str, ...]:
    """Names of the fields of node class ``cls`` that may hold
    sub-expressions (all but those annotated ``str``), in field order."""
    names = _CHILD_FIELDS.get(cls)
    if names is None:
        names = _CHILD_FIELDS[cls] = tuple(
            f.name for f in dataclasses.fields(cls) if f.type not in ("str", str)
        )
    return names


class Expr:
    """Base class of all ADL expression nodes."""

    __slots__ = ()

    # -- generic traversal --------------------------------------------------
    def child_exprs(self) -> Iterator["Expr"]:
        """Yield every direct sub-expression, in field order."""
        for name in child_fields(type(self)):
            value = getattr(self, name)
            if isinstance(value, Expr):
                yield value
            elif isinstance(value, tuple):
                for item in value:
                    if isinstance(item, Expr):
                        yield item
                    elif (
                        isinstance(item, tuple)
                        and len(item) == 2
                        and isinstance(item[1], Expr)
                    ):
                        yield item[1]

    def map_children(self, fn: Callable[["Expr"], "Expr"]) -> "Expr":
        """Rebuild this node with ``fn`` applied to each direct child.

        Returns ``self`` unchanged (same object) when no child changed, which
        lets the rewrite engine detect fixpoints cheaply.
        """
        changes = {}
        for name in child_fields(type(self)):
            value = getattr(self, name)
            if isinstance(value, Expr):
                new = fn(value)
                if new is not value:
                    changes[name] = new
            elif isinstance(value, tuple):
                new_items = []
                dirty = False
                for item in value:
                    if isinstance(item, Expr):
                        new = fn(item)
                        dirty = dirty or new is not item
                        new_items.append(new)
                    elif (
                        isinstance(item, tuple)
                        and len(item) == 2
                        and isinstance(item[1], Expr)
                    ):
                        new = fn(item[1])
                        dirty = dirty or new is not item[1]
                        new_items.append((item[0], new))
                    else:
                        new_items.append(item)
                if dirty:
                    changes[name] = tuple(new_items)
        if not changes:
            return self
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal over the whole tree (self included)."""
        yield self
        for child in self.child_exprs():
            yield from child.walk()

    def __str__(self) -> str:  # pretty form; repr stays the dataclass form
        from repro.adl.pretty import pretty

        return pretty(self)


# ---------------------------------------------------------------------------
# Atoms, variables, base tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class Literal(Expr):
    """A constant value (atom, tuple value, or set value)."""

    value: Value

    def __repr__(self) -> str:
        return f"Literal({format_value(self.value)})"


@dataclass(frozen=True)
class Var(Expr):
    """A variable bound by an enclosing iterator (map/select/join/quantifier)."""

    name: str


@dataclass(frozen=True)
class ExtentRef(Expr):
    """A base table — the extension of a class (e.g. ``SUPPLIER``)."""

    name: str


@dataclass(frozen=True)
class Param(Expr):
    """A prepared-statement parameter placeholder ``$name``.

    Unlike :class:`Var`, a parameter is *not* bound by any iterator: it is
    closed (no free variables), constant for the duration of one execution,
    and resolved from the runtime's parameter bindings instead of the
    evaluation environment.  Rewrite rules and the cost model treat it as
    an opaque constant of unknown value, which is what lets one cached
    plan serve every binding of the same query shape.
    """

    name: str


# ---------------------------------------------------------------------------
# Tuple operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttrAccess(Expr):
    """Attribute access / one step of a path expression: ``e.a``."""

    base: Expr
    attr: str


@dataclass(frozen=True)
class TupleExpr(Expr):
    """Tuple construction ``(a1 = e1, ..., an = en)``."""

    fields: Tuple[Tuple[str, Expr], ...]

    def __post_init__(self) -> None:
        names = [n for n, _ in self.fields]
        if len(names) != len(set(names)):
            raise DataModelError(f"duplicate attribute in tuple expression: {names}")

    def field(self, name: str) -> Expr:
        for n, e in self.fields:
            if n == name:
                return e
        raise DataModelError(f"tuple expression has no field {name!r}")


@dataclass(frozen=True)
class SetExpr(Expr):
    """Set construction ``{e1, ..., en}`` (the empty set is ``SetExpr(())``)."""

    elements: Tuple[Expr, ...]


@dataclass(frozen=True)
class TupleSubscript(Expr):
    """Tuple subscription ``e[a1, ..., an]`` (ADL operator 2)."""

    base: Expr
    attrs: Tuple[str, ...]


@dataclass(frozen=True)
class TupleUpdate(Expr):
    """The ``except`` operator (ADL operator 3): update/extend tuple fields."""

    base: Expr
    updates: Tuple[Tuple[str, Expr], ...]


@dataclass(frozen=True)
class Concat(Expr):
    """Tuple concatenation ``e1 o e2`` (used when spelling out join results)."""

    left: Expr
    right: Expr


# ---------------------------------------------------------------------------
# Scalar / boolean operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arith(Expr):
    """Binary arithmetic: ``+ - * / mod``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ARITH_OPS:
            raise DataModelError(f"unknown arithmetic operator {self.op!r}")


@dataclass(frozen=True)
class Neg(Expr):
    """Unary arithmetic negation ``-e``."""

    operand: Expr


@dataclass(frozen=True)
class Compare(Expr):
    """Scalar comparison ``= != < <= > >=`` (equality works on any values)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in COMPARE_OPS:
            raise DataModelError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class SetCompare(Expr):
    """Set comparison (Table 1 / Table 2 vocabulary), e.g. ``x.c ⊆ Y'``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in SET_COMPARE_OPS:
            raise DataModelError(f"unknown set comparison operator {self.op!r}")


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr


@dataclass(frozen=True)
class IsEmpty(Expr):
    """``e = ∅`` as a first-class predicate (Table 2, first row)."""

    operand: Expr


# ---------------------------------------------------------------------------
# Quantifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exists(Expr):
    """``∃ var ∈ source • pred`` — false over the empty set."""

    var: str
    source: Expr
    pred: Expr


@dataclass(frozen=True)
class Forall(Expr):
    """``∀ var ∈ source • pred`` — true over the empty set."""

    var: str
    source: Expr
    pred: Expr


# ---------------------------------------------------------------------------
# Iterators over sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Map(Expr):
    """The map operator ``α[var : body](source)`` (function application)."""

    var: str
    body: Expr
    source: Expr


@dataclass(frozen=True)
class Select(Expr):
    """The selection ``σ[var : pred](source)``."""

    var: str
    pred: Expr
    source: Expr


@dataclass(frozen=True)
class Project(Expr):
    """The projection ``π_{a1..an}(source)`` (ADL operator 6)."""

    source: Expr
    attrs: Tuple[str, ...]


@dataclass(frozen=True)
class Rename(Expr):
    """The renaming operator ``ρ_{old→new,...}(source)``."""

    source: Expr
    renames: Tuple[Tuple[str, str], ...]


# ---------------------------------------------------------------------------
# Restructuring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Flatten(Expr):
    """Multiple union ``⊔(e) = {x | x ∈ X ∧ X ∈ e}`` (ADL operator 1)."""

    source: Expr


@dataclass(frozen=True)
class Unnest(Expr):
    """``μ_a(e)``: concatenate each element of ``x.a`` with the rest of ``x``."""

    source: Expr
    attr: str


@dataclass(frozen=True)
class Nest(Expr):
    """``ν_{A→a}(e)``: group by the non-``A`` attributes, collecting the
    ``A``-projections of each group into new set-valued attribute ``a``."""

    source: Expr
    attrs: Tuple[str, ...]
    as_attr: str


# ---------------------------------------------------------------------------
# Products and joins
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CartProd(Expr):
    """Extended Cartesian product (operand tuples are concatenated)."""

    left: Expr
    right: Expr


@dataclass(frozen=True)
class Join(Expr):
    """Regular join ``e1 ⋈⟨x1,x2 : p⟩ e2`` — concatenates matching tuples."""

    left: Expr
    right: Expr
    lvar: str
    rvar: str
    pred: Expr


@dataclass(frozen=True)
class SemiJoin(Expr):
    """Semijoin ``e1 ⋉⟨x1,x2 : p⟩ e2`` — left tuples with ≥1 match."""

    left: Expr
    right: Expr
    lvar: str
    rvar: str
    pred: Expr


@dataclass(frozen=True)
class AntiJoin(Expr):
    """Antijoin ``e1 ▷⟨x1,x2 : p⟩ e2`` — left tuples with no match."""

    left: Expr
    right: Expr
    lvar: str
    rvar: str
    pred: Expr


@dataclass(frozen=True)
class OuterJoin(Expr):
    """Left outerjoin: like ``Join`` but dangling left tuples survive with
    the right-hand attributes set to ``null`` — the [GaWo87] COUNT-bug
    repair the paper discusses in Section 5.2.2.

    ``right_attrs`` lists the right operand's top-level attributes so the
    null-padding is well-defined even when the right operand is empty.
    """

    left: Expr
    right: Expr
    lvar: str
    rvar: str
    pred: Expr
    right_attrs: Tuple[str, ...]


@dataclass(frozen=True)
class NestJoin(Expr):
    """The nestjoin ``e1 ⊣⟨x1,x2 : p ; f ; a⟩ e2`` (Definition 1 + the
    extended form of [StAB94]).

    Each left tuple is concatenated with a unary tuple ``(a = X)`` where
    ``X = { f(x1, x2) | x2 ∈ e2, p(x1, x2) }``.  Dangling left tuples keep
    an empty set — no tuple loss, hence no Complex Object bug.  ``result``
    is the paper's extra function parameter ``f``; the simple nestjoin of
    Definition 1 is ``result = Var(rvar)``.
    """

    left: Expr
    right: Expr
    lvar: str
    rvar: str
    pred: Expr
    as_attr: str
    result: Expr


@dataclass(frozen=True)
class Stitch(Expr):
    """The stitching operator of query shredding (PR 9, after
    [CLW14]'s shredded evaluation): semantically *identical* to the
    nestjoin ``left ⊣⟨x1,x2 : p ; f ; a⟩ right``, but annotated with
    ``key_attrs`` — the complete list of top-level attributes of
    ``left`` — which is what licenses a flat evaluation strategy.

    Because ``key_attrs`` covers every attribute of a left tuple, the
    pair ``(x1, x2)`` can be recovered from a *flat* join output ``z``
    as ``x1 = z[key_attrs]`` and ``x2 = z except-without key_attrs``:
    the synthetic grouping key linking the outer flat subplan to the
    inner one is simply the left tuple itself.  The physical plan runs
    the inner flat subplan ``left ⋈⟨x1,x2 : p⟩ right`` through the full
    pipeline (join-order DP, partitioned hash joins, batch kernels),
    groups its output by ``key_attrs``, and re-streams ``left`` so
    dangling tuples keep their empty set — no tuple loss, exactly the
    nestjoin's contract.
    """

    left: Expr
    right: Expr
    lvar: str
    rvar: str
    pred: Expr
    as_attr: str
    result: Expr
    key_attrs: Tuple[str, ...]


@dataclass(frozen=True)
class Division(Expr):
    """Relational division ``e1 ÷ e2`` ([Codd72], for universal
    quantification).  ``e1`` has attributes A ∪ B, ``e2`` has attributes B;
    the result keeps the A-projections whose group covers all of ``e2``."""

    left: Expr
    right: Expr


# ---------------------------------------------------------------------------
# Set algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Union(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Intersect(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Difference(Expr):
    left: Expr
    right: Expr


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Aggregate(Expr):
    """``count/sum/min/max/avg`` over a set expression."""

    func: str
    source: Expr

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCS:
            raise DataModelError(f"unknown aggregate function {self.func!r}")


# ---------------------------------------------------------------------------
# Section 6: materialize
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Materialize(Expr):
    """The materialize operator of [BlMG93]: make inter-object references
    explicit by attaching, for every tuple of ``source``, the object(s)
    referenced by the oid(s) stored in attribute ``attr`` as a new attribute
    ``as_attr``.

    ``attr`` may hold a single oid (the new attribute is the referenced
    tuple) or a set of oids (the new attribute is the set of referenced
    tuples).  Physically this is the *assembly* pointer-based join.
    """

    source: Expr
    attr: str
    as_attr: str
    class_name: str


# Nodes whose first positional semantics is "this expression is a set".
SET_PRODUCING_NODES = (
    ExtentRef,
    SetExpr,
    Map,
    Select,
    Project,
    Rename,
    Flatten,
    Unnest,
    Nest,
    CartProd,
    Join,
    SemiJoin,
    AntiJoin,
    OuterJoin,
    NestJoin,
    Stitch,
    Division,
    Union,
    Intersect,
    Difference,
    Materialize,
)
