"""Compilation of ADL expressions into Python closures.

The reference :class:`~repro.engine.interpreter.Interpreter` re-walks the
AST for every tuple an operator touches: one dictionary dispatch, one
method call, and (at the public entry point) one environment copy *per
node per tuple*.  That tuple-oriented overhead is exactly what the paper
blames nested-loop processing for.  The physical operators therefore
compile their parameter expressions — predicates, hash keys, nestjoin
result functions — **once per operator** into plain Python closures
``fn(env) -> value`` and call those in their inner loops.

Design rules:

* **Semantics**: a compiled closure must be observationally identical to
  ``Interpreter._eval`` on the same expression — same values, same error
  types and messages, same short-circuiting.  The test suite checks this
  oracle-equality over a battery of expression forms.
* **Counters**: compiled closures maintain the same :class:`Stats`
  counters the interpreter maintains (``comparisons``, ``oid_derefs``,
  ``tuples_visited``/``predicate_evals`` inside quantifiers), so work
  accounting stays comparable across engines.  Consequently **constant
  folding is restricted to counter-free node types** — a folded ``Compare``
  would silently stop counting.
* **Fallback**: node types the compiler does not cover (the set iterators
  ``Map``/``Select``/joins, restructuring, ``Materialize``...) compile
  into a closure that delegates the whole subtree to the interpreter, so
  coverage gaps can never change behaviour.  The per-compiler census
  (:attr:`Compiler.fallback_nodes`) makes the gap measurable.

Binding discipline: the interpreter copies the environment at every
binder; compiled quantifiers instead save and restore the single bound
name around the loop (``try/finally``, so a raising predicate cannot leak
a binding into the caller's environment).

Vectorized batch kernels (PR 8)
===============================

:meth:`Compiler.compile_batch` compiles a *covered* expression form into
a **batch kernel** ``kernel(rows) -> list`` that maps a whole columnar
chunk in tight list-level loops instead of one closure call per tuple.
Coverage is the pure predicate :func:`vector_covered` — literals,
parameters, the batch variable, attribute access, comparisons, boolean
connectives and arithmetic over those; anything else (set iterators,
quantifiers, tuple constructors...) is *uncovered* and the caller falls
back to applying the tuple-wise closure per batch element (counted in
``stats.vector_fallbacks`` — never silent).

The fallback discipline extends PR 1's: kernels must be oracle-equal to
the tuple-wise closures **by construction**.  Counter increments inside
a kernel land in a private scratch :class:`Stats` that is folded into
the real bundle only when the whole batch maps cleanly; if *anything*
raises mid-column (a type error, a missing attribute, an oid that needs
dereferencing through a failing store) the scratch is discarded and the
batch re-runs element-wise through the tuple closure, so the error — its
type, message and the counter state it surfaces under — is exactly the
tuple engine's.  Short-circuiting ``and``/``or`` evaluate their right
operand only over the rows the left operand selected, preserving both
values and per-conjunct counter totals.
"""

from __future__ import annotations

import operator as _op
from itertools import compress
from typing import Callable, Dict, List, Optional

from repro.adl import ast as A
from repro.datamodel.errors import EvaluationError, UnboundParameterError, UnboundVariableError
from repro.datamodel.values import Oid, Value, VTuple, concat, trusted_tuple
from repro.engine.stats import Stats

#: A compiled expression: evaluate against a mutable environment dict.
CompiledFn = Callable[[Dict[str, Value]], Value]

#: A batch kernel: map a list of rows to a list of values.
BatchKernel = Callable[[List[Value]], List[Value]]

_MISSING = object()

#: ordered-comparison operators as callables for the batch kernels
_ORDERED_OPS = {"<": _op.lt, "<=": _op.le, ">": _op.gt, ">=": _op.ge}

#: operator to use when a fused compare finds its literal on the *left*:
#: ``k < x.a`` runs the loop as ``x.a > k``
_MIRRORED_OPS = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

_ARITH_OPS = {"+": _op.add, "-": _op.sub, "*": _op.mul, "/": _op.truediv, "%": _op.mod}

#: value-class sets the ordered comparison accepts (bool is excluded by
#: construction: ``type(True) is bool``, never ``int``)
_NUMERIC_KINDS = frozenset({int, float})
_STR_KINDS = frozenset({str})

#: reflected dunder for a fused ordered compare against a literal ``k``:
#: ``v <op> k`` computed as the bound method ``k.<refl>(v)`` so homogeneous
#: columns compare in one C-level ``map`` with no per-row dispatch
_REFLECTED_OPS = {"<": "__gt__", "<=": "__ge__", ">": "__lt__", ">=": "__le__"}


def _static_kind(expr: A.Expr) -> Optional[str]:
    """Compile-time value-class guarantee for a covered subexpression:
    ``"num"`` / ``"bool"`` / ``"str"``, or ``None`` when unknown.

    The guarantee is *conditional on clean return*: an ``Arith``/``Neg``
    kernel validates its operands numeric (bailing otherwise) and numeric
    arithmetic closes over int/float, so its output column is numeric by
    construction; ``Compare``/``And``/``Or``/``Not`` likewise emit real
    bools.  Consumers use this to elide their per-batch ``set(map(type,
    col))`` validation passes — the dominant non-compute cost on long
    expression chains."""
    t = type(expr)
    if t is A.Arith or t is A.Neg:
        return "num"
    if t is A.Compare or t is A.And or t is A.Or or t is A.Not:
        return "bool"
    if t is A.Literal:
        v = expr.value
        if type(v) is bool:
            return "bool"
        if type(v) is int or type(v) is float:
            return "num"
        if type(v) is str:
            return "str"
    return None


def _field_column(attr: str):
    """C-speed extraction of ``row._fields[attr]`` over a rows list: two
    chained ``map`` calls, no per-row Python frame.  Any irregular row
    (non-tuple, missing attribute) raises out of ``list`` and the caller
    bails the batch."""
    getter = _op.itemgetter(attr)
    fields = _op.attrgetter("_fields")

    def column(rows: List[Value]) -> List[Value]:
        return list(map(getter, map(fields, rows)))

    return column


def _fold_fields(scratch: Stats, stats: Stats):
    """Closure that folds a kernel's scratch counters into the real bundle.

    Covered node types only ever touch ``comparisons`` and ``oid_derefs``
    (``predicate_evals`` is bulk-counted by the predicate wrapper itself),
    so the fold is two adds, not a loop over every Stats field.
    """

    def fold() -> None:
        if scratch.comparisons:
            stats.comparisons += scratch.comparisons
        if scratch.oid_derefs:
            stats.oid_derefs += scratch.oid_derefs

    return fold


class _VectorBail(Exception):
    """Internal: a batch kernel hit something it cannot map column-wise
    (a type anomaly, an error mid-column).  Callers discard the scratch
    counters and re-run the batch element-wise through the tuple-wise
    closure, which reproduces the exact tuple-engine semantics."""


#: AST node types the vectorizing batch compiler covers natively; every
#: other type makes the whole kernel fall back to the tuple-wise closure
#: (see :func:`vector_covered`).  Exposed for tests and reporting.
VECTOR_NODE_TYPES = frozenset(
    {
        A.Literal,
        A.Var,
        A.Param,
        A.AttrAccess,
        A.Compare,
        A.And,
        A.Or,
        A.Not,
        A.Arith,
        A.Neg,
    }
)


def vector_covered(expr: A.Expr, var: str) -> bool:
    """Pure coverage predicate: can ``expr`` compile into a batch kernel
    over rows bound to ``var``?

    True iff every node in the tree is a :data:`VECTOR_NODE_TYPES` member
    and the only variable referenced is ``var`` itself (a reference to an
    outer binding cannot be columnized — the batch carries one binder).
    This is the *exact* condition under which ``compile_batch`` vectorizes;
    the property tests assert fallback triggers precisely on its negation.
    """
    t = type(expr)
    if t not in VECTOR_NODE_TYPES:
        return False
    if t is A.Var:
        return expr.name == var
    if t is A.Literal or t is A.Param:
        return True
    if t is A.AttrAccess:
        return vector_covered(expr.base, var)
    if t is A.Not or t is A.Neg:
        return vector_covered(expr.operand, var)
    # Compare / And / Or / Arith are all left/right binary nodes
    return vector_covered(expr.left, var) and vector_covered(expr.right, var)

#: Node types that are pure and counter-free: safe to evaluate at compile
#: time when all their inputs are constants.  ``Compare``/``SetCompare``
#: (they count comparisons) and anything that may dereference an oid
#: (``AttrAccess``, ``TupleSubscript``, ``TupleUpdate`` — they count
#: ``oid_derefs`` and read database state) are deliberately excluded.
_FOLDABLE = (
    A.Arith,
    A.Neg,
    A.And,
    A.Or,
    A.Not,
    A.IsEmpty,
    A.TupleExpr,
    A.SetExpr,
    A.Concat,
    A.Union,
    A.Intersect,
    A.Difference,
    A.Aggregate,
)


class Compiler:
    """Compiles ADL expressions against one database + stats bundle.

    One instance per :class:`~repro.engine.plan.ExecRuntime`; closures
    capture ``db``/``stats`` directly so the hot path carries no runtime
    lookups.  ``interpreter`` supplies the fallback evaluation.
    """

    def __init__(self, db, stats: Stats, interpreter, params=None) -> None:
        self.db = db
        self.stats = stats
        self.interpreter = interpreter
        #: prepared-statement parameter bindings for this runtime's
        #: executions; ``Param`` closures read it at call time.  Kept by
        #: reference (not copied) so the runtime that owns the mapping can
        #: rebind between runs without recompiling.
        self.params: Dict[str, Value] = params if params is not None else {}
        #: census: how many AST nodes compiled natively / fell back / folded
        self.compiled_nodes = 0
        self.fallback_nodes = 0
        self.folded_nodes = 0
        #: one-slot per-attribute column cache shared by every batch kernel
        #: this compiler builds: ``attr -> (rows, column)``, valid only
        #: while the cached ``rows`` IS the list being mapped (checked by
        #: identity).  A predicate like ``x.a*3 - x.a < x.a + 7`` extracts
        #: the ``a`` column once per batch instead of once per reference.
        #: Single-threaded by design — one compiler per ExecRuntime, one
        #: run at a time per runtime (which clears it between runs).
        self._col_cache: Dict[str, tuple] = {}

    # -- public API ---------------------------------------------------------
    def compile(self, expr: A.Expr) -> CompiledFn:
        fn, _ = self._compile(expr)
        return fn

    def compile_pred(self, expr: A.Expr) -> Callable[[Dict[str, Value]], bool]:
        """Compile a predicate: counts ``predicate_evals`` and enforces the
        boolean result."""
        fn, _ = self._compile(expr)
        stats = self.stats

        def pred(env: Dict[str, Value]) -> bool:
            stats.predicate_evals += 1
            value = fn(env)
            if not isinstance(value, bool):
                raise EvaluationError(f"predicate produced non-boolean {value!r}")
            return value

        return pred

    # -- batch kernels (PR 8) ------------------------------------------------
    def compile_batch(self, expr: A.Expr, var: str) -> Optional[BatchKernel]:
        """A batch kernel for ``expr`` over rows bound to ``var``, or
        ``None`` when the form is not :func:`vector_covered` (the caller
        applies the tuple-wise closure per element and counts the
        fallback).

        The kernel is oracle-equal to the tuple closure by construction:
        counters accrue in a scratch bundle folded in only on clean
        success; any mid-column anomaly re-runs the batch element-wise
        (see the module docstring).
        """
        if not vector_covered(expr, var):
            return None
        scratch = Stats()
        col_fn = self._vc(expr, var, scratch)
        row_fn = self.compile(expr)
        stats = self.stats
        fold = _fold_fields(scratch, stats)

        def kernel(rows: List[Value]) -> List[Value]:
            scratch.reset()
            try:
                out = col_fn(rows)
            except Exception:
                # discard the scratch, re-run element-wise: values, errors
                # and counters all become exactly the tuple engine's
                stats.vector_fallbacks += 1
                env: Dict[str, Value] = {}
                out = []
                for row in rows:
                    env[var] = row
                    out.append(row_fn(env))
                return out
            fold()
            return out

        return kernel

    def compile_batch_pred(self, expr: A.Expr, var: str) -> Optional[BatchKernel]:
        """Predicate variant of :meth:`compile_batch`: bulk-counts one
        ``predicate_evals`` per row and enforces boolean results, exactly
        like :meth:`compile_pred` does per tuple."""
        if not vector_covered(expr, var):
            return None
        scratch = Stats()
        col_fn = self._vc(expr, var, scratch)
        row_pred = self.compile_pred(expr)
        stats = self.stats
        fold = _fold_fields(scratch, stats)

        # Compare/And/Or/Not kernels (and bool literals) validate their
        # operands and emit real bools by construction — only the other
        # roots need the per-batch result-type pass
        check_bool = _static_kind(expr) != "bool"

        def pred_kernel(rows: List[Value]) -> List[Value]:
            scratch.reset()
            try:
                out = col_fn(rows)
                if check_bool and set(map(type, out)) - {bool}:
                    raise _VectorBail
            except Exception:
                # discard the scratch, re-run element-wise: the non-boolean
                # (or whatever else raised) surfaces with the tuple engine's
                # error and counter state
                stats.vector_fallbacks += 1
                env: Dict[str, Value] = {}
                replay = []
                for row in rows:
                    env[var] = row
                    replay.append(row_pred(env))
                return replay
            fold()
            stats.predicate_evals += len(rows)
            return out

        return pred_kernel

    def _vc(self, expr: A.Expr, var: str, stats: Stats):
        """Column compiler: ``expr`` (vector-covered) → ``fn(rows) -> list``.

        Counters land in ``stats`` (the kernel's scratch bundle).  On any
        anomaly the column raises — :class:`_VectorBail` for conditions the
        tuple engine would report with its own error, or the underlying
        exception — and the kernel wrapper re-runs element-wise.
        """
        t = type(expr)
        if t is A.Literal:
            value = expr.value
            return lambda rows: [value] * len(rows)
        if t is A.Var:
            return lambda rows: rows
        if t is A.Param:
            params = self.params
            name = expr.name

            def fn(rows):
                try:
                    value = params[name]
                except KeyError:
                    raise UnboundParameterError(name) from None
                return [value] * len(rows)

            return fn
        if t is A.AttrAccess:
            return self._vc_attr(expr, var, stats)
        if t is A.Compare:
            return self._vc_compare(expr, var, stats)
        if t is A.And or t is A.Or:
            return self._vc_bool(expr, var, stats, t is A.And)
        if t is A.Not:
            operand_fn = self._vc(expr.operand, var, stats)
            check = _static_kind(expr.operand) != "bool"

            def fn(rows):
                col = operand_fn(rows)
                if check and set(map(type, col)) - {bool}:
                    raise _VectorBail
                return list(map(_op.not_, col))

            return fn
        if t is A.Neg:
            operand_fn = self._vc(expr.operand, var, stats)
            check = _static_kind(expr.operand) != "num"

            def fn(rows):
                col = operand_fn(rows)
                if check and set(map(type, col)) - {int, float}:
                    raise _VectorBail
                return list(map(_op.neg, col))

            return fn
        if t is A.Arith:
            return self._vc_arith(expr, var, stats)
        raise AssertionError(f"not vector-covered: {expr!r}")  # pragma: no cover

    def _vc_attr(self, expr: A.AttrAccess, var: str, stats: Stats):
        attr = expr.attr
        db = self.db
        if type(expr.base) is A.Var and expr.base.name == var:
            # the dominant ``x.a`` shape: read the slot dict directly at
            # C speed; any irregular row (oid to deref, missing attribute,
            # non-tuple) bails the batch to the exact tuple-engine path
            return self._vc_column(attr)
        base_fn = self._vc(expr.base, var, stats)

        def fn(rows):
            col = base_fn(rows)
            out = []
            append = out.append
            derefs = 0
            for base in col:
                if isinstance(base, VTuple):
                    append(base._fields[attr] if attr in base._fields else _MISSING)
                elif isinstance(base, Oid):
                    derefs += 1
                    deref = db.deref(base)
                    if not isinstance(deref, VTuple):
                        raise _VectorBail
                    append(deref._fields[attr] if attr in deref._fields else _MISSING)
                else:
                    raise _VectorBail
            if _MISSING in out:
                raise _VectorBail
            if derefs:
                stats.oid_derefs += derefs
            return out

        return fn

    def _vc_column(self, attr: str):
        """Cached ``x.attr`` column extraction (see ``_col_cache``): every
        reference to the same attribute within one kernel call — and every
        kernel mapping the same batch — shares one extraction pass.
        Consumers never mutate returned columns, so sharing is safe."""
        column = _field_column(attr)
        cache = self._col_cache

        def fn(rows):
            hit = cache.get(attr)
            if hit is not None and hit[0] is rows:
                return hit[1]
            try:
                col = column(rows)
            except Exception:
                raise _VectorBail from None
            cache[attr] = (rows, col)
            return col

        return fn

    def _vc_compare(self, expr: A.Compare, var: str, stats: Stats):
        fused = self._vc_fused_compare(expr, var, stats)
        if fused is not None:
            return fused
        op = expr.op
        left_fn = self._vc(expr.left, var, stats)
        right_fn = self._vc(expr.right, var, stats)
        if op == "=" or op == "!=":
            ne = op == "!="

            def fn(rows):
                l = left_fn(rows)
                r = right_fn(rows)
                stats.comparisons += len(rows)
                if ne:
                    return [a != b for a, b in zip(l, r)]
                return [a == b for a, b in zip(l, r)]

            return fn
        cmp = _ORDERED_OPS[op]
        lkind = _static_kind(expr.left)
        rkind = _static_kind(expr.right)
        if lkind == "num" and rkind == "num":
            # both operands numeric by construction — compare is one map
            def fn(rows):
                l = left_fn(rows)
                r = right_fn(rows)
                stats.comparisons += len(rows)
                return list(map(cmp, l, r))

            return fn
        if lkind == "num" or rkind == "num":
            # one side is known numeric, so the str/str case is impossible:
            # only the unknown side needs the class pass
            known_left = lkind == "num"

            def fn(rows):
                l = left_fn(rows)
                r = right_fn(rows)
                stats.comparisons += len(rows)
                if set(map(type, r if known_left else l)) - _NUMERIC_KINDS:
                    raise _VectorBail
                return list(map(cmp, l, r))

            return fn

        def fn(rows):
            l = left_fn(rows)
            r = right_fn(rows)
            stats.comparisons += len(rows)
            lk = set(map(type, l))
            rk = set(map(type, r))
            num = _NUMERIC_KINDS
            if not ((lk <= num and rk <= num) or (lk <= _STR_KINDS and rk <= _STR_KINDS)):
                raise _VectorBail
            return list(map(cmp, l, r))

        return fn

    def _vc_fused_compare(self, expr: A.Compare, var: str, stats: Stats):
        """The hottest predicate shape, fused into one loop:
        ``x.attr <op> literal`` (or mirrored).  Reads the tuple slot dict
        directly; any anomaly bails the batch."""
        op = expr.op

        def plain_attr(e):
            if (
                type(e) is A.AttrAccess
                and type(e.base) is A.Var
                and e.base.name == var
            ):
                return e.attr
            return None

        attr = plain_attr(expr.left)
        if attr is not None and type(expr.right) is A.Literal:
            k = expr.right.value
        else:
            attr = plain_attr(expr.right)
            if attr is not None and type(expr.left) is A.Literal:
                k = expr.left.value
                # mirror the operator so the loop always computes value-vs-k
                op = _MIRRORED_OPS[op]
            else:
                return None
        column = self._vc_column(attr)
        if op == "=" or op == "!=":
            ne = op == "!="

            def fn(rows):
                stats.comparisons += len(rows)
                try:
                    col = column(rows)
                    if ne:
                        return [v != k for v in col]
                    return [v == k for v in col]
                except Exception:
                    raise _VectorBail from None

            return fn
        if isinstance(k, bool) or not isinstance(k, (int, float, str)):
            return None  # the tuple engine rejects such ordered comparisons
        cmp = _ORDERED_OPS[op]
        refl = getattr(k, _REFLECTED_OPS[op])  # v <op> k  ==  k.<refl>(v)
        want_str = isinstance(k, str)
        k_is_float = isinstance(k, float)

        def fn(rows):
            stats.comparisons += len(rows)
            try:
                col = column(rows)
            except Exception:
                raise _VectorBail from None
            kinds = set(map(type, col))
            if want_str:
                # str.<refl>(str) never returns NotImplemented
                if kinds - {str}:
                    raise _VectorBail
                return list(map(refl, col))
            if kinds - {int, float}:
                raise _VectorBail
            if k_is_float or kinds <= {int}:
                # the bound reflected method handles every value class in
                # the column, so the compare is one C-level map
                return list(map(refl, col))
            # int literal vs a column with floats: int.<refl>(float) is
            # NotImplemented, so dispatch per row (validated above)
            return [cmp(v, k) for v in col]

        return fn

    def _vc_bool(self, expr, var: str, stats: Stats, is_and: bool):
        """Short-circuiting ``and``/``or`` over columns: the right operand
        is evaluated only over the rows the left operand selected, so both
        values and counter totals match tuple-at-a-time evaluation."""
        left_fn = self._vc(expr.left, var, stats)
        right_fn = self._vc(expr.right, var, stats)
        check_l = _static_kind(expr.left) != "bool"
        check_r = _static_kind(expr.right) != "bool"

        def fn(rows):
            lcol = left_fn(rows)
            if check_l and set(map(type, lcol)) - {bool}:
                raise _VectorBail
            if is_and:
                selected = list(compress(rows, lcol))
            else:
                selected = list(compress(rows, map(_op.not_, lcol)))
            if not selected:
                return lcol
            rsub = right_fn(selected)
            if check_r and set(map(type, rsub)) - {bool}:
                raise _VectorBail
            out = []
            append = out.append
            sub = iter(rsub)
            if is_and:
                for l in lcol:
                    append(next(sub) if l else False)
            else:
                for l in lcol:
                    append(True if l else next(sub))
            return out

        return fn

    def _vc_arith(self, expr: A.Arith, var: str, stats: Stats):
        op = expr.op
        left_fn = self._vc(expr.left, var, stats)
        right_fn = self._vc(expr.right, var, stats)
        arith = _ARITH_OPS[op]
        guard_zero = op == "/" or op == "%"
        check_l = _static_kind(expr.left) != "num"
        check_r = _static_kind(expr.right) != "num"

        def fn(rows):
            l = left_fn(rows)
            r = right_fn(rows)
            if check_l and set(map(type, l)) - {int, float}:
                raise _VectorBail
            if check_r and set(map(type, r)) - {int, float}:
                raise _VectorBail
            if guard_zero and any(b == 0 for b in r):
                raise _VectorBail
            return list(map(arith, l, r))

        return fn

    # -- machinery ----------------------------------------------------------
    def _compile(self, expr: A.Expr):
        """Return ``(fn, is_const)``; ``is_const`` marks closures that are
        environment-independent, pure, and counter-free (fold candidates)."""
        method = _DISPATCH.get(type(expr))
        if method is None:
            return self._fallback(expr), False
        self.compiled_nodes += 1
        fn, const = method(self, expr)
        if const and isinstance(expr, _FOLDABLE):
            try:
                value = fn({})
            except Exception:
                # the expression fails deterministically (ReproError, or e.g.
                # a TypeError from an aggregate over mixed atoms) — keep the
                # closure so the error surfaces (or not, under
                # short-circuiting) at evaluation time, exactly like the
                # interpreter
                return fn, False
            self.folded_nodes += 1
            return (lambda env: value), True
        return fn, const

    def _fallback(self, expr: A.Expr) -> CompiledFn:
        self.fallback_nodes += 1
        interp = self.interpreter

        def fn(env: Dict[str, Value]) -> Value:
            return interp._eval(expr, env)

        return fn

    def _bool(self, expr: A.Expr):
        """Compile with the interpreter's boolean-coercion check."""
        fn, const = self._compile(expr)

        def bfn(env: Dict[str, Value]) -> bool:
            value = fn(env)
            if not isinstance(value, bool):
                raise EvaluationError(f"expected boolean, got {value!r} from {expr}")
            return value

        return bfn, const

    def _setfn(self, expr: A.Expr, what: str):
        fn, const = self._compile(expr)

        def sfn(env: Dict[str, Value]) -> frozenset:
            value = fn(env)
            if not isinstance(value, frozenset):
                raise EvaluationError(f"{what} must evaluate to a set, got {value!r}")
            return value

        return sfn, const

    @staticmethod
    def _tuple(value: Value, what: str) -> VTuple:
        if not isinstance(value, VTuple):
            raise EvaluationError(f"{what} must be a tuple, got {value!r}")
        return value

    # -- atoms --------------------------------------------------------------
    def _c_literal(self, expr: A.Literal):
        value = expr.value
        return (lambda env: value), True

    def _c_var(self, expr: A.Var):
        name = expr.name

        def fn(env: Dict[str, Value]) -> Value:
            try:
                return env[name]
            except KeyError:
                raise UnboundVariableError(name) from None

        return fn, False

    def _c_extent(self, expr: A.ExtentRef):
        db = self.db
        name = expr.name
        return (lambda env: db.extent(name)), False

    def _c_param(self, expr: A.Param):
        # not const: the binding belongs to the runtime, not the expression
        # (one compiled plan must serve every binding), so the closure reads
        # the params mapping at call time
        params = self.params
        name = expr.name

        def fn(env: Dict[str, Value]) -> Value:
            try:
                return params[name]
            except KeyError:
                raise UnboundParameterError(name) from None

        return fn, False

    # -- tuple operators ----------------------------------------------------
    def _c_attr(self, expr: A.AttrAccess):
        attr = expr.attr
        db = self.db
        stats = self.stats
        what = f"operand of .{attr}"
        if isinstance(expr.base, A.Var):
            # fast path: the overwhelmingly common ``x.a`` — one closure, no
            # nested call for the variable lookup
            name = expr.base.name

            def fn(env: Dict[str, Value]) -> Value:
                try:
                    base = env[name]
                except KeyError:
                    raise UnboundVariableError(name) from None
                if isinstance(base, Oid):
                    stats.oid_derefs += 1
                    base = db.deref(base)
                if isinstance(base, VTuple):
                    return base[attr]
                raise EvaluationError(f"{what} must be a tuple, got {base!r}")

            return fn, False

        base_fn, _ = self._compile(expr.base)

        def fn(env: Dict[str, Value]) -> Value:
            base = base_fn(env)
            if isinstance(base, Oid):
                stats.oid_derefs += 1
                base = db.deref(base)
            if isinstance(base, VTuple):
                return base[attr]
            raise EvaluationError(f"{what} must be a tuple, got {base!r}")

        return fn, False

    def _deref_tuple(self, base_fn: CompiledFn, what: str) -> CompiledFn:
        db = self.db
        stats = self.stats

        def fn(env: Dict[str, Value]) -> VTuple:
            base = base_fn(env)
            if isinstance(base, Oid):
                stats.oid_derefs += 1
                base = db.deref(base)
            return self._tuple(base, what)

        return fn

    def _c_tuple(self, expr: A.TupleExpr):
        parts = [(name, self._compile(e)) for name, e in expr.fields]
        fns = tuple((name, fn) for name, (fn, _) in parts)
        const = all(c for _, (_, c) in parts)

        def fn(env: Dict[str, Value]) -> Value:
            # field names are distinct (TupleExpr checks) and the dict is fresh
            return trusted_tuple({name: f(env) for name, f in fns})

        return fn, const

    def _c_setexpr(self, expr: A.SetExpr):
        parts = [self._compile(e) for e in expr.elements]
        fns = tuple(fn for fn, _ in parts)
        const = all(c for _, c in parts)

        def fn(env: Dict[str, Value]) -> Value:
            return frozenset(f(env) for f in fns)

        return fn, const

    def _c_subscript(self, expr: A.TupleSubscript):
        base_fn, _ = self._compile(expr.base)
        tup_fn = self._deref_tuple(base_fn, "subscript operand")
        attrs = expr.attrs
        return (lambda env: tup_fn(env).subscript(attrs)), False

    def _c_update(self, expr: A.TupleUpdate):
        base_fn, _ = self._compile(expr.base)
        tup_fn = self._deref_tuple(base_fn, "'except' operand")
        updates = tuple((name, self._compile(e)[0]) for name, e in expr.updates)

        def fn(env: Dict[str, Value]) -> Value:
            return tup_fn(env).update_except({name: f(env) for name, f in updates})

        return fn, False

    def _c_concat(self, expr: A.Concat):
        left_fn, lc = self._compile(expr.left)
        right_fn, rc = self._compile(expr.right)

        def fn(env: Dict[str, Value]) -> Value:
            return concat(
                self._tuple(left_fn(env), "concat operand"),
                self._tuple(right_fn(env), "concat operand"),
            )

        return fn, lc and rc

    # -- scalar operators ---------------------------------------------------
    def _c_arith(self, expr: A.Arith):
        left_fn, lc = self._compile(expr.left)
        right_fn, rc = self._compile(expr.right)
        op = expr.op

        def fn(env: Dict[str, Value]) -> Value:
            left = left_fn(env)
            right = right_fn(env)
            for v in (left, right):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise EvaluationError(f"arithmetic on non-number {v!r}")
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    raise EvaluationError("division by zero")
                return left / right
            if right == 0:
                raise EvaluationError("modulo by zero")
            return left % right

        return fn, lc and rc

    def _c_neg(self, expr: A.Neg):
        operand_fn, const = self._compile(expr.operand)

        def fn(env: Dict[str, Value]) -> Value:
            value = operand_fn(env)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise EvaluationError(f"negation of non-number {value!r}")
            return -value

        return fn, const

    def _c_compare(self, expr: A.Compare):
        left_fn, _ = self._compile(expr.left)
        right_fn, _ = self._compile(expr.right)
        op = expr.op
        stats = self.stats
        if op == "=":

            def fn(env: Dict[str, Value]) -> Value:
                stats.comparisons += 1
                return left_fn(env) == right_fn(env)

            return fn, False
        if op == "!=":

            def fn(env: Dict[str, Value]) -> Value:
                stats.comparisons += 1
                return left_fn(env) != right_fn(env)

            return fn, False

        def fn(env: Dict[str, Value]) -> Value:
            left = left_fn(env)
            right = right_fn(env)
            stats.comparisons += 1
            for v in (left, right):
                if isinstance(v, bool) or not isinstance(v, (int, float, str)):
                    raise EvaluationError(f"ordered comparison on {v!r}")
            if isinstance(left, str) != isinstance(right, str):
                raise EvaluationError(
                    f"ordered comparison across types: {left!r} vs {right!r}"
                )
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            return left >= right

        return fn, False

    def _c_setcompare(self, expr: A.SetCompare):
        left_fn, _ = self._compile(expr.left)
        right_fn, _ = self._compile(expr.right)
        op = expr.op
        stats = self.stats
        if op in ("in", "notin"):

            def fn(env: Dict[str, Value]) -> Value:
                left = left_fn(env)
                right = right_fn(env)
                stats.comparisons += 1
                if not isinstance(right, frozenset):
                    raise EvaluationError(f"∈ right operand must be a set, got {right!r}")
                return (left in right) if op == "in" else (left not in right)

            return fn, False
        if op in ("ni", "notni"):

            def fn(env: Dict[str, Value]) -> Value:
                left = left_fn(env)
                right = right_fn(env)
                stats.comparisons += 1
                if not isinstance(left, frozenset):
                    raise EvaluationError(f"∋ left operand must be a set, got {left!r}")
                return (right in left) if op == "ni" else (right not in left)

            return fn, False

        def fn(env: Dict[str, Value]) -> Value:
            left = left_fn(env)
            right = right_fn(env)
            stats.comparisons += 1
            if not isinstance(left, frozenset) or not isinstance(right, frozenset):
                raise EvaluationError(f"set comparison {op} on non-sets: {left!r}, {right!r}")
            if op == "subset":
                return left < right
            if op == "subseteq":
                return left <= right
            if op == "seteq":
                return left == right
            if op == "setneq":
                return left != right
            if op == "supseteq":
                return left >= right
            if op == "supset":
                return left > right
            return not (left & right)  # disjoint

        return fn, False

    # -- boolean ------------------------------------------------------------
    def _c_and(self, expr: A.And):
        left_fn, lc = self._bool(expr.left)
        right_fn, rc = self._bool(expr.right)
        return (lambda env: left_fn(env) and right_fn(env)), lc and rc

    def _c_or(self, expr: A.Or):
        left_fn, lc = self._bool(expr.left)
        right_fn, rc = self._bool(expr.right)
        return (lambda env: left_fn(env) or right_fn(env)), lc and rc

    def _c_not(self, expr: A.Not):
        operand_fn, const = self._bool(expr.operand)
        return (lambda env: not operand_fn(env)), const

    def _c_isempty(self, expr: A.IsEmpty):
        operand_fn, const = self._setfn(expr.operand, "emptiness test operand")
        return (lambda env: not operand_fn(env)), const

    # -- quantifiers --------------------------------------------------------
    def _c_exists(self, expr: A.Exists):
        return self._quantifier(expr, "∃ range", True)

    def _c_forall(self, expr: A.Forall):
        return self._quantifier(expr, "∀ range", False)

    def _quantifier(self, expr, what: str, is_exists: bool):
        source_fn, _ = self._setfn(expr.source, what)
        pred_fn, _ = self._bool(expr.pred)
        var = expr.var
        stats = self.stats

        def fn(env: Dict[str, Value]) -> Value:
            source = source_fn(env)
            old = env.get(var, _MISSING)
            try:
                for item in source:
                    stats.tuples_visited += 1
                    env[var] = item
                    stats.predicate_evals += 1
                    if pred_fn(env) is is_exists:
                        return is_exists
                return not is_exists
            finally:
                if old is _MISSING:
                    env.pop(var, None)
                else:
                    env[var] = old

        return fn, False

    # -- set algebra --------------------------------------------------------
    def _c_union(self, expr: A.Union):
        left_fn, lc = self._setfn(expr.left, "union operand")
        right_fn, rc = self._setfn(expr.right, "union operand")
        return (lambda env: left_fn(env) | right_fn(env)), lc and rc

    def _c_intersect(self, expr: A.Intersect):
        left_fn, lc = self._setfn(expr.left, "intersect operand")
        right_fn, rc = self._setfn(expr.right, "intersect operand")
        return (lambda env: left_fn(env) & right_fn(env)), lc and rc

    def _c_difference(self, expr: A.Difference):
        left_fn, lc = self._setfn(expr.left, "difference operand")
        right_fn, rc = self._setfn(expr.right, "difference operand")
        return (lambda env: left_fn(env) - right_fn(env)), lc and rc

    # -- aggregates ---------------------------------------------------------
    def _c_aggregate(self, expr: A.Aggregate):
        source_fn, const = self._setfn(expr.source, "aggregate operand")
        func = expr.func

        def fn(env: Dict[str, Value]) -> Value:
            source = source_fn(env)
            if func == "count":
                return len(source)
            if not source:
                if func == "sum":
                    return 0
                raise EvaluationError(f"{func} over an empty set")
            values = list(source)
            for v in values:
                if isinstance(v, bool) or not isinstance(v, (int, float, str)):
                    raise EvaluationError(f"aggregate {func} over non-atom {v!r}")
            if func == "sum":
                return sum(values)  # type: ignore[arg-type]
            if func == "min":
                return min(values)  # type: ignore[type-var]
            if func == "max":
                return max(values)  # type: ignore[type-var]
            numeric = [v for v in values if isinstance(v, (int, float))]
            if len(numeric) != len(values):
                raise EvaluationError("avg over non-numeric values")
            return sum(numeric) / len(numeric)

        return fn, const


_DISPATCH = {
    A.Literal: Compiler._c_literal,
    A.Var: Compiler._c_var,
    A.ExtentRef: Compiler._c_extent,
    A.Param: Compiler._c_param,
    A.AttrAccess: Compiler._c_attr,
    A.TupleExpr: Compiler._c_tuple,
    A.SetExpr: Compiler._c_setexpr,
    A.TupleSubscript: Compiler._c_subscript,
    A.TupleUpdate: Compiler._c_update,
    A.Concat: Compiler._c_concat,
    A.Arith: Compiler._c_arith,
    A.Neg: Compiler._c_neg,
    A.Compare: Compiler._c_compare,
    A.SetCompare: Compiler._c_setcompare,
    A.And: Compiler._c_and,
    A.Or: Compiler._c_or,
    A.Not: Compiler._c_not,
    A.IsEmpty: Compiler._c_isempty,
    A.Exists: Compiler._c_exists,
    A.Forall: Compiler._c_forall,
    A.Union: Compiler._c_union,
    A.Intersect: Compiler._c_intersect,
    A.Difference: Compiler._c_difference,
    A.Aggregate: Compiler._c_aggregate,
}

#: Node types the compiler handles natively (everything else falls back to
#: the interpreter).  Exposed for tests and ``explain``-style reporting.
COMPILED_NODE_TYPES = frozenset(_DISPATCH)


def compile_expr(expr: A.Expr, db, stats: Optional[Stats] = None, interpreter=None) -> CompiledFn:
    """One-shot convenience: compile ``expr`` against ``db``/``stats``."""
    from repro.engine.interpreter import Interpreter

    stats = stats if stats is not None else Stats()
    interp = interpreter if interpreter is not None else Interpreter(db, stats)
    return Compiler(db, stats, interp).compile(expr)
