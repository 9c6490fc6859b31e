"""Pretty printer for OOSQL ASTs — emits re-parseable query text."""

from __future__ import annotations

from repro.oosql import ast as Q

#: set operators whose ``select`` operands must be parenthesised: a bare
#: one would end in ``where … union …`` and swallow the operator
_SET_OPS = frozenset({"union", "intersect", "minus"})


def pretty(node: Q.Node) -> str:
    return _p(node)


def _p(node: Q.Node) -> str:
    if isinstance(node, Q.Literal):
        if node.value is None:
            return "null"
        if isinstance(node.value, bool):
            return "true" if node.value else "false"
        if isinstance(node.value, str):
            return f'"{node.value}"'
        return repr(node.value)
    if isinstance(node, Q.Ident):
        return node.name
    if isinstance(node, Q.Param):
        return f"${node.name}"
    if isinstance(node, Q.Path):
        return f"{_p_atomic(node.base)}.{node.attr}"
    if isinstance(node, Q.TupleCons):
        inner = ", ".join(f"{n} = {_p(e)}" for n, e in node.fields)
        return f"({inner})"
    if isinstance(node, Q.SetCons):
        return "{" + ", ".join(_p(e) for e in node.elements) + "}"
    if isinstance(node, Q.BinOp):
        if node.op in _SET_OPS:
            return f"({_p_atomic(node.left)} {node.op} {_p_atomic(node.right)})"
        return f"({_p(node.left)} {node.op} {_p(node.right)})"
    if isinstance(node, Q.Not):
        return f"not ({_p(node.operand)})"
    if isinstance(node, Q.Neg):
        return f"-({_p(node.operand)})"
    if isinstance(node, Q.Quantifier):
        body = f" : {_p(node.pred)}" if node.pred is not None else ""
        return f"{node.kind} {node.var} in ({_p(node.source)}){body}"
    if isinstance(node, Q.Aggregate):
        return f"{node.func}({_p(node.source)})"
    if isinstance(node, Q.Flatten):
        return f"flatten({_p(node.source)})"
    if isinstance(node, Q.SFW):
        bindings = ", ".join(f"{v} in {_p_atomic(e)}" for v, e in node.bindings)
        where = f" where {_p(node.where)}" if node.where is not None else ""
        return f"select {_p(node.select)} from {bindings}{where}"
    raise TypeError(f"no pretty form for {type(node).__name__}")


def _p_atomic(node: Q.Node) -> str:
    text = _p(node)
    if isinstance(node, (Q.SFW, Q.Quantifier)):
        return f"({text})"
    return text
