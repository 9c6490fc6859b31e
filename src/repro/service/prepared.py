"""Prepared statements: named, parameterized, compile-once query handles.

A prepared statement is the client-side face of the plan cache: preparing
parses + normalizes the text, compiles (or cache-hits) the plan, and
records the declared ``$name`` parameters; executing validates a binding
against those names and runs the cached physical plan on a runtime the
execution owns exclusively.

Binding validation is strict in both directions — a missing parameter
would raise :class:`~repro.datamodel.errors.UnboundParameterError` deep
inside an operator loop, and an *unexpected* one is almost always a typo
(``maxprice`` vs ``max_price``); both are rejected up front with the
full expected list in the message.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Optional, Tuple

from repro.datamodel.errors import ServiceError
from repro.datamodel.values import Value
from repro.oosql import ast as Q
from repro.oosql.parser import parse
from repro.oosql.pretty import pretty as oosql_pretty


#: raw texts whose shape is remembered (a few hundred bytes each)
SHAPE_MEMO_SIZE = 1024


@lru_cache(maxsize=SHAPE_MEMO_SIZE)
def normalize_shape(text: str) -> Tuple[str, Tuple[str, ...]]:
    """Parse ``text`` and return ``(shape, param_names)``.

    The shape is the pretty-printed parse tree — re-parseable canonical
    text, insensitive to whitespace, comments, keyword case and redundant
    parentheses — and is the plan cache's key.  ``param_names`` are the
    distinct ``$name`` placeholders in source order.

    Memoised on the raw text (the result is a pure function of it and
    immutable), so a client re-sending one text pays the parse once, not
    per call; a text that fails to parse raises on every call — errors
    are not remembered.
    """
    node = parse(text)
    names = []
    for sub in node.walk():
        if isinstance(sub, Q.Param) and sub.name not in names:
            names.append(sub.name)
    return oosql_pretty(node), tuple(names)


def schema_fingerprint(schema) -> str:
    """A stable text fingerprint of a schema's class definitions.

    The plan-cache warm start (PR 7) stores this next to the persisted
    entries: a restored plan is only trusted when the schema it was
    compiled under is *textually identical* to the current one — class
    set, extent names, attribute names and attribute types all
    participate.  ``None`` schemas fingerprint to ``""``.
    """
    if schema is None:
        return ""
    classes = getattr(schema, "classes", None)
    if classes is not None:
        lines = []
        for cdef in sorted(classes, key=lambda c: c.name):
            attrs = ", ".join(
                f"{a}: {t!r}" for a, t in sorted(cdef.attributes.items())
            )
            lines.append(f"{cdef.name}[{cdef.extent}]({attrs})")
        return "\n".join(lines)
    # a bare extent-type catalog (datamodel.Catalog): no classes, just
    # extent name -> set type
    names = getattr(schema, "extent_names", None)
    if names is not None:
        return "\n".join(
            f"{name}: {schema.extent_type(name)!r}" for name in sorted(names)
        )
    return repr(schema)


def check_bindings(
    param_names: Iterable[str],
    params: Optional[Dict[str, Value]],
    what: str = "statement",
) -> Dict[str, Value]:
    """Validate a parameter binding against the declared names.

    Returns the binding as a plain dict (empty when the statement has no
    parameters and none were supplied).
    """
    declared = tuple(param_names)
    supplied = dict(params or {})
    missing = [n for n in declared if n not in supplied]
    unexpected = [n for n in supplied if n not in declared]
    if missing or unexpected:
        parts = []
        if missing:
            parts.append(f"missing {['$' + n for n in missing]}")
        if unexpected:
            parts.append(f"unexpected {['$' + n for n in unexpected]}")
        expected = ", ".join(f"${n}" for n in declared) or "(none)"
        raise ServiceError(
            f"{what} parameter mismatch: {'; '.join(parts)} "
            f"(declared parameters: {expected})"
        )
    return supplied


class PreparedStatement:
    """A handle to one compiled query shape, bound to a session.

    Obtained from :meth:`Session.prepare`; ``execute(**params)`` (or
    ``execute(params_dict)``) runs it.  The underlying plan lives in the
    service's shared cache — preparing the same text in two sessions
    compiles once.
    """

    def __init__(self, session, text: str, shape: str, param_names: Tuple[str, ...]) -> None:
        self._session = session
        self.text = text
        self.shape = shape
        self.param_names = param_names

    def execute(
        self,
        params: Optional[Dict[str, Value]] = None,
        *,
        timeout: Optional[float] = None,
        **kw: Value,
    ):
        """Run the statement; returns a :class:`~repro.service.service.QueryResult`.

        ``timeout`` (seconds) is the session-level query deadline — a
        query *parameter* named ``timeout`` must be passed via the
        ``params`` dict, not as a keyword.
        """
        if params is not None and kw:
            raise ServiceError("pass parameters as one dict or as keywords, not both")
        return self._session.execute(
            self, params if params is not None else kw, timeout=timeout
        )

    def __repr__(self) -> str:
        names = ", ".join(f"${n}" for n in self.param_names) or "no parameters"
        return f"PreparedStatement({self.shape!r}; {names})"
