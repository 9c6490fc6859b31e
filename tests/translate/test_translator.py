"""Unit tests for OOSQL → ADL translation (the Section 3 scheme)."""

import pytest

from repro.adl import ast as A
from repro.adl import builders as B
from tests.adl.compare import alpha_equal
from repro.datamodel import TranslationError, TypeCheckError
from repro.engine.interpreter import Interpreter
from repro.oosql import parse
from repro.translate import Translator, compile_oosql, translate
from repro.workload.paper_db import example_database, example_schema


@pytest.fixture(scope="module")
def schema():
    return example_schema()


def tr(text, schema=None):
    return translate(parse(text), schema)


class TestSfwScheme:
    def test_single_block_is_map_over_select(self, schema):
        adl = tr('select s.sname from s in SUPPLIER where s.sname = "s1"', schema)
        expected = B.amap(
            "s",
            B.attr(B.var("s"), "sname"),
            B.sel("s", B.eq(B.attr(B.var("s"), "sname"), "s1"), B.extent("SUPPLIER")),
        )
        assert adl == expected

    def test_missing_where_becomes_true(self, schema):
        adl = tr("select s from s in SUPPLIER", schema)
        assert adl == B.amap("s", B.var("s"), B.sel("s", B.lit(True), B.extent("SUPPLIER")))

    def test_multi_binding_builds_flattened_tower(self, schema):
        adl = tr("select (a = s.sname, b = p.pname) from s in SUPPLIER, p in PART", schema)
        assert isinstance(adl, A.Flatten)
        outer = adl.source
        assert isinstance(outer, A.Map) and outer.var == "s"
        inner = outer.body
        assert isinstance(inner, A.Map) and inner.var == "p"

    def test_full_predicate_lands_innermost(self, schema):
        adl = tr(
            "select 1 from s in SUPPLIER, p in PART where p.oid in s.parts_supplied",
            schema,
        )
        inner_select = adl.source.body.source
        assert isinstance(inner_select, A.Select)
        assert isinstance(inner_select.pred, A.SetCompare)


class TestNameResolution:
    def test_variable_shadows_extent(self, schema):
        adl = tr("select PART from PART in SUPPLIER", schema)
        assert adl == B.amap("PART", B.var("PART"), B.sel("PART", B.lit(True), B.extent("SUPPLIER")))

    def test_unknown_name_rejected_with_schema(self, schema):
        with pytest.raises(TranslationError, match="unknown name"):
            tr("select x from x in GHOST", schema)

    def test_schemaless_mode_treats_free_names_as_extents(self):
        adl = tr("select x from x in ANYTHING")
        assert adl == B.amap("x", B.var("x"), B.sel("x", B.lit(True), B.extent("ANYTHING")))


class TestOperatorMapping:
    def test_set_equality_becomes_seteq(self, schema):
        adl = tr(
            "select s from s in SUPPLIER, t in SUPPLIER "
            "where s.parts_supplied = t.parts_supplied",
            schema,
        )
        ops = [n.op for n in adl.walk() if isinstance(n, A.SetCompare)]
        assert "seteq" in ops

    def test_scalar_equality_stays_compare(self, schema):
        adl = tr('select s from s in SUPPLIER where s.sname = "x"', schema)
        compares = [n for n in adl.walk() if isinstance(n, A.Compare)]
        assert any(c.op == "=" for c in compares)

    def test_schemaless_equality_defaults_to_compare(self):
        adl = tr("select x from x in X where x.c = x.d")
        assert not any(isinstance(n, A.SetCompare) for n in adl.walk())

    def test_surface_setcmp_names(self, schema):
        mapping = {
            "subset": "subset",
            "subseteq": "subseteq",
            "superset": "supset",
            "superseteq": "supseteq",
        }
        for surface, adl_op in mapping.items():
            adl = tr(
                f"select s from s in SUPPLIER, t in SUPPLIER "
                f"where s.parts_supplied {surface} t.parts_supplied",
                schema,
            )
            assert any(
                isinstance(n, A.SetCompare) and n.op == adl_op for n in adl.walk()
            ), surface

    def test_contains_becomes_ni(self, schema):
        adl = tr(
            "select s from s in SUPPLIER, p in PART "
            "where s.parts_supplied contains p.oid",
            schema,
        )
        assert any(isinstance(n, A.SetCompare) and n.op == "ni" for n in adl.walk())

    def test_not_in(self, schema):
        adl = tr(
            "select p from p in PART, s in SUPPLIER "
            "where p.oid not in s.parts_supplied",
            schema,
        )
        assert any(isinstance(n, A.SetCompare) and n.op == "notin" for n in adl.walk())

    def test_set_algebra(self, schema):
        adl = tr(
            "select s from s in SUPPLIER, t in SUPPLIER "
            "where s.parts_supplied union t.parts_supplied = s.parts_supplied",
            schema,
        )
        assert any(isinstance(n, A.Union) for n in adl.walk())

    def test_quantifier_without_body(self, schema):
        adl = tr(
            "select d from d in DELIVERY where exists x in d.supply",
            schema,
        )
        quantifiers = [n for n in adl.walk() if isinstance(n, A.Exists)]
        assert quantifiers and quantifiers[0].pred == A.Literal(True)

    def test_aggregate_and_flatten(self, schema):
        adl = tr("select count(s.parts_supplied) from s in SUPPLIER", schema)
        assert any(isinstance(n, A.Aggregate) for n in adl.walk())
        adl = tr("select flatten(select t.parts_supplied from t in SUPPLIER) from s in SUPPLIER", schema)
        assert any(isinstance(n, A.Flatten) for n in adl.walk())


class TestCompileOosql:
    def test_type_errors_surface(self, schema):
        with pytest.raises(TypeCheckError):
            compile_oosql("select s from s in SUPPLIER where s.sname", schema)

    def test_compile_produces_runnable_adl(self, schema):
        db = example_database()
        adl = compile_oosql(
            'select s.sname from s in SUPPLIER where s.sname = "s1"', schema
        )
        out = Interpreter(db).eval(adl)
        assert out == frozenset({"s1"})


class TestTranslationSemantics:
    """Translated queries evaluate to the expected answers on the paper db."""

    @pytest.fixture(scope="class")
    def db(self):
        return example_database()

    def run(self, text, schema, db):
        return Interpreter(db).eval(compile_oosql(text, schema))

    def test_projection(self, schema, db):
        names = self.run("select s.sname from s in SUPPLIER", schema, db)
        assert names == frozenset({"s1", "s2", "s3", "s4", "s5"})

    def test_where_filter(self, schema, db):
        reds = self.run('select p.pname from p in PART where p.color = "red"', schema, db)
        assert reds == frozenset({"p0", "p4"})

    def test_path_through_reference(self, schema, db):
        out = self.run(
            "select d.supplier.sname from d in DELIVERY where d.date = 940101",
            schema, db,
        )
        assert out == frozenset({"s1", "s2"})

    def test_iteration_over_set_attribute(self, schema, db):
        out = self.run(
            'select p.pname from s in SUPPLIER, p in s.parts_supplied '
            'where s.sname = "s1"',
            schema, db,
        )
        assert out == frozenset({"p0", "p1"})

    def test_quantifier_query(self, schema, db):
        out = self.run(
            "select s.sname from s in SUPPLIER "
            'where exists p in s.parts_supplied : p.color = "red"',
            schema, db,
        )
        assert out == frozenset({"s1", "s2", "s5"})
