import contextlib
import copy
import gc
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from sfgen import cli, loader, ownership, packs
from sfgen.loader import Severity, bind_model, load_model, validate_model
from sfgen.model import (
    ApplicationModel,
    Constraint,
    ConstraintKind,
    Entity,
    Field,
    FieldType,
    LocalizedText,
    Settings,
)
from sfgen.xmlsubset import Document, ParseError

import randmodels
from conftest import FIXTURES


def _wrap(entity_xml: str) -> bytes:
    return f"<xsource><EntityConfig>{entity_xml}</EntityConfig></xsource>".encode()


MINIMAL_ENTITY = '<Entity name="E" tableName="E"><Field name="ID" type="int" isPK="true"/></Entity>'


def errors_of(diagnostics):
    return [d for d in diagnostics if d.severity is Severity.ERROR]


def test_newsboard_binds_and_validates_clean(newsboard_model):
    model = newsboard_model
    assert [e.name for e in model.entities] == ["Fakultet", "Vest"]
    assert model.languages == ("Macedonian", "English")
    strname = model.entities[0].fields[1]
    assert strname.type is FieldType.NVARCHAR
    assert strname.length == 30
    assert model.entities[0].isLogged is True
    assert model.entities[0].constraints[0].kind_token == "Unique"
    assert model.settings.defaultLanguage == "English"


def test_fixture_validates_with_zero_errors():
    model, diagnostics = load_model((FIXTURES / "newsboard.xml").read_bytes())
    assert errors_of(diagnostics) == []
    assert validate_model(model) == []


def test_bad_bool_located_at_attribute():
    doc = _wrap('<Entity name="E" tableName="E">\n'
                '<Field name="x" type="int" isPK="true" nullable="maybe"/>\n</Entity>')
    model, diagnostics = bind_model(Document(doc))
    bad = [d for d in diagnostics if d.code == loader.E_BAD_BOOL]
    assert len(bad) == 1
    assert bad[0].location == (2, 40)
    # binding continued: the field is present with the default value
    assert model.entities[0].fields[0].nullable is False


def test_unknown_attribute_warns_and_continues():
    doc = _wrap('<Entity name="E" tableName="E">'
                '<Field name="x" type="int" isPK="true" frobnicate="1"/></Entity>')
    model, diagnostics = bind_model(Document(doc))
    assert any(d.code == loader.W_UNKNOWN_ATTR for d in diagnostics)
    assert errors_of(diagnostics) == []
    assert model.entities[0].fields[0].name == "x"


def test_model_returned_even_with_errors():
    doc = _wrap('<Entity name="E" tableName="E"><Field name="x" type="wat" isPK="true"/></Entity>')
    model, diagnostics = load_model(doc)
    assert model.entities[0].fields[0].type is None
    assert any(d.code == loader.E_BAD_TYPE for d in diagnostics)


def test_namename_accepted_as_fkname_alias():
    doc = _wrap('<Entity name="E" tableName="E">'
                '<Field name="x" type="int" isPK="true" nameName="legacy"/></Entity>')
    model, _ = bind_model(Document(doc))
    assert model.entities[0].fields[0].fkName == "legacy"


# one minimal fixture per diagnostic code, with the expected location
VALIDATOR_CASES = [
    (loader.E_FK_TARGET,
     '<Entity name="E" tableName="E"><Field name="ID" type="int" isPK="true"/>\n'
     '<Field name="fk" type="int" isFK="true" fkEntityName="Missing"/></Entity>', (2, 1)),
    (loader.E_CONSTRAINT_ARITY,
     '<Entity name="E" tableName="E"><Field name="a" type="int" isPK="true"/>'
     '<Field name="b" type="int"/><Field name="c" type="int"/>\n'
     '<Constraint type="TwoFields" relationship="le">'
     '<CField name="a"/><CField name="b"/><CField name="c"/></Constraint></Entity>', (2, 1)),
    (loader.E_CONSTRAINT_FIELD,
     '<Entity name="E" tableName="E"><Field name="a" type="int" isPK="true"/>\n'
     '<Constraint type="Unique"><CField name="nope"/></Constraint></Entity>', (2, 1)),
    (loader.E_CONSTRAINT_FAMILY,
     '<Entity name="E" tableName="E"><Field name="a" type="datetime" isPK="true"/>'
     '<Field name="b" type="int"/>\n'
     '<Constraint type="TwoFields" relationship="le">'
     '<CField name="a"/><CField name="b"/></Constraint></Entity>', (2, 1)),
    (loader.E_BAD_REL,
     '<Entity name="E" tableName="E"><Field name="a" type="int" isPK="true"/>'
     '<Field name="b" type="int"/>\n'
     '<Constraint type="TwoFields" relationship="approx">'
     '<CField name="a"/><CField name="b"/></Constraint></Entity>', (2, 1)),
    (loader.E_DUP_ENTITY, MINIMAL_ENTITY + "\n" +
     '<Entity name="E" tableName="E2"><Field name="ID" type="int" isPK="true"/></Entity>', (2, 1)),
    (loader.E_DUP_TABLE, MINIMAL_ENTITY + "\n" +
     '<Entity name="E2" tableName="E"><Field name="ID" type="int" isPK="true"/></Entity>', (2, 1)),
    (loader.E_DUP_ENTITY, MINIMAL_ENTITY + "\n" +
     '<Entity name="e" tableName="E2"><Field name="ID" type="int" isPK="true"/></Entity>', (2, 1)),
    (loader.E_DUP_TABLE, MINIMAL_ENTITY + "\n" +
     '<Entity name="E2" tableName="e"><Field name="ID" type="int" isPK="true"/></Entity>', (2, 1)),
    (loader.E_DUP_FIELD,
     '<Entity name="E" tableName="E"><Field name="ID" type="int" isPK="true"/>\n'
     '<Field name="ID" type="int"/></Entity>', (2, 1)),
    (loader.E_DUP_FIELD,
     '<Entity name="E" tableName="E"><Field name="ID" type="int" isPK="true"/>\n'
     '<Field name="id" type="int"/></Entity>', (2, 1)),
    (loader.E_DUP_FIELD,
     '<Entity name="E" tableName="E" isLogged="true"><Field name="ID" type="int" isPK="true"/>\n'
     '<Field name="ChangedBy" type="int"/></Entity>', (2, 1)),
    (loader.E_MISSING_ATTR,
     '<Entity name="E" tableName="E">\n<Field type="int" isPK="true"/></Entity>', (2, 1)),
    (loader.E_MISSING_ATTR,
     '<Entity name="E" tableName="E">\n<Field name="x" isPK="true"/></Entity>', (2, 1)),
    (loader.E_MISSING_ATTR,
     '\n<Entity tableName="E"><Field name="ID" type="int" isPK="true"/></Entity>', (2, 1)),
    (loader.E_BAD_TYPE,
     '<Entity name="E" tableName="E">\n<Field name="x" type="varchar2" isPK="true"/></Entity>',
     (2, 1)),
    (loader.E_NO_FIELDS, '\n<Entity name="E" tableName="E"/>', (2, 1)),
    (loader.E_NO_PK, '\n<Entity name="E" tableName="E"><Field name="x" type="int"/></Entity>',
     (2, 1)),
    (loader.E_MULTI_PK,
     '\n<Entity name="E" tableName="E"><Field name="a" type="int" isPK="true"/>'
     '<Field name="b" type="int" isPK="true"/></Entity>', (2, 1)),
    (loader.E_IDENTITY_NOT_PK,
     '<Entity name="E" tableName="E"><Field name="a" type="int" isPK="true"/>\n'
     '<Field name="b" type="int" isIdentity="true"/></Entity>', (2, 1)),
    (loader.E_IDENTITY_TYPE,
     '<Entity name="E" tableName="E">\n'
     '<Field name="a" type="datetime" isPK="true" isIdentity="true"/></Entity>', (2, 1)),
    (loader.E_LENGTH,
     '<Entity name="E" tableName="E"><Field name="ID" type="int" isPK="true"/>\n'
     '<Field name="x" type="nvarchar"/></Entity>', (2, 1)),
    (loader.E_LENGTH,
     '<Entity name="E" tableName="E"><Field name="ID" type="int" isPK="true"/>\n'
     '<Field name="x" type="int" length="10"/></Entity>', (2, 1)),
    (loader.E_ROWS_COLS,
     '<Entity name="E" tableName="E"><Field name="ID" type="int" isPK="true"/>\n'
     '<Field name="x" type="int" numberOfRows="4"/></Entity>', (2, 1)),
]


@pytest.mark.parametrize("code,entity_xml,location", VALIDATOR_CASES,
                         ids=[f"{c}-{i}" for i, (c, _, _) in enumerate(VALIDATOR_CASES)])
def test_validator_codes_with_location(code, entity_xml, location):
    _, diagnostics = load_model(_wrap(entity_xml))
    matching = [d for d in diagnostics if d.code == code]
    assert matching, f"expected {code}, got {[d.code for d in diagnostics]}"
    # column 14 offset: entities start after the inline wrapper on line 1
    line, _ = location
    assert any(d.location is not None and d.location[0] == line for d in matching)


_NOT_IDENT = "is not an identifier ([A-Za-z_][A-Za-z0-9_]*)"


def test_names_must_be_identifiers():
    # entity, table and field names become paths, JS names and SQL names; an
    # empty name is only missing
    doc = _wrap('\n<Entity name="E x;" tableName="a b]">\n'
                '<Field name="a-b" type="int" isPK="true"/></Entity>\n'
                '<Entity name="Ünï" tableName="U"><Field name="ID" type="int" isPK="true"/>'
                '</Entity>\n'
                '<Entity name="" tableName=""><Field name="" type="int" isPK="true"/></Entity>')
    _, diagnostics = load_model(doc)
    assert [(d.code, d.location, d.subject, d.message) for d in diagnostics] == [
        (loader.E_BAD_IDENT, (2, 1), "Entity[E x;]", f"entity name 'E x;' {_NOT_IDENT}"),
        (loader.E_BAD_IDENT, (2, 1), "Entity[E x;]", f"tableName 'a b]' {_NOT_IDENT}"),
        (loader.E_BAD_IDENT, (3, 1), "Entity[E x;]/Field[a-b]", f"field name 'a-b' {_NOT_IDENT}"),
        (loader.E_BAD_IDENT, (4, 1), "Entity[Ünï]", f"entity name 'Ünï' {_NOT_IDENT}"),
        (loader.E_MISSING_ATTR, (5, 1), "Entity[]", "Entity requires a 'name' attribute"),
        (loader.E_MISSING_ATTR, (5, 1), "Entity[]", "Entity requires a 'tableName' attribute"),
        (loader.E_MISSING_ATTR, (5, 30), "Entity[]/Field[]", "Field requires a 'name' attribute")]
    assert all(d.severity is Severity.ERROR for d in diagnostics)


def test_names_must_not_be_javascript_reserved_words():
    # entity and field names become JS class and member names, in strict code;
    # a table name is SQL only
    doc = _wrap('\n<Entity name="class" tableName="class">\n'
                '<Field name="arguments" type="int" isPK="true"/>'
                '<Field name="Class" type="int"/><Field name="yield_" type="int"/></Entity>')
    _, diagnostics = load_model(doc)
    assert [(d.code, d.location, d.subject, d.message) for d in diagnostics] == [
        (loader.E_BAD_IDENT, (2, 1), "Entity[class]",
         "entity name 'class' is a reserved word in JavaScript"),
        (loader.E_BAD_IDENT, (3, 1), "Entity[class]/Field[arguments]",
         "field name 'arguments' is a reserved word in JavaScript")]
    assert all(d.severity is Severity.ERROR for d in diagnostics)


def test_names_are_unique_case_folded():
    # names that SQL Server's default collation, or a case-insensitive file
    # system, takes for one; each error is at the second name
    doc = _wrap('\n<Entity name="Fakultet" tableName="Fakultet" isLogged="true">\n'
                '<Field name="ID" type="int" isPK="true"/>\n'
                '<Field name="strName" type="nvarchar" length="30"/>\n'
                '<Field name="strName" type="int"/><Field name="STRNAME" type="int"/>\n'
                '<Field name="changedAt" type="datetime"/><Field name="" type="int"/>'
                '<Field name="" type="int"/></Entity>\n'
                '<Entity name="fakultet" tableName="FAKULTET">'
                '<Field name="ID" type="int" isPK="true"/><Field name="changedBy" type="int"/>'
                '</Entity>')
    _, diagnostics = load_model(doc)
    assert [(d.code, d.location, d.subject, d.message) for d in diagnostics] == [
        (loader.E_DUP_FIELD, (5, 1), "Entity[Fakultet]/Field[strName]",
         "duplicate field name 'strName'"),
        (loader.E_DUP_FIELD, (5, 35), "Entity[Fakultet]/Field[STRNAME]",
         "duplicate field name 'STRNAME': it differs from 'strName' only in case"),
        (loader.E_DUP_FIELD, (6, 1), "Entity[Fakultet]/Field[changedAt]",
         "field name 'changedAt' is the name of the audit column 'changedAt' of a logged entity"),
        (loader.E_MISSING_ATTR, (6, 42), "Entity[Fakultet]/Field[]",
         "Field requires a 'name' attribute"),
        (loader.E_MISSING_ATTR, (6, 69), "Entity[Fakultet]/Field[]",
         "Field requires a 'name' attribute"),
        (loader.E_DUP_ENTITY, (7, 1), "Entity[fakultet]",
         "duplicate entity name 'fakultet': it differs from 'Fakultet' only in case"),
        (loader.E_DUP_TABLE, (7, 1), "Entity[fakultet]",
         "duplicate tableName 'FAKULTET': it differs from 'Fakultet' only in case")]
    # an entity that is not logged has no audit columns
    assert load_model(doc.replace(b' isLogged="true"', b""))[1][2:] == diagnostics[3:]


def test_constraint_names_are_unique_case_folded():
    # two constraints that 002_constraints.sql gives one name, UQ_tbl_<table>_
    # <fields joined by _> or CK_tbl_<table>_<first>_<second>; the error is at
    # the second, and other entities and kinds do not clash
    doc = _wrap('\n<Entity name="E" tableName="T"><Field name="ID" type="int" isPK="true"/>'
                '<Field name="a" type="int"/><Field name="b" type="int"/>'
                '<Field name="a_b" type="int"/>\n'
                '<Constraint type="Unique"><CField name="a"/><CField name="b"/></Constraint>\n'
                '<Constraint type="Unique"><CField name="a_b"/></Constraint>\n'
                '<Constraint type="Unique"><CField name="A"/><CField name="B"/></Constraint>\n'
                '<Constraint type="TwoFields" relationship="le">'
                '<CField name="a"/><CField name="b"/></Constraint>\n'
                '<Constraint type="TwoFields" relationship="ge">'
                '<CField name="a"/><CField name="b"/></Constraint>\n'
                '<Constraint type="Unique"><CField name="ID"/></Constraint></Entity>\n'
                '<Entity name="F" tableName="F"><Field name="ID" type="int" isPK="true"/>'
                '<Constraint type="Unique"><CField name="ID"/></Constraint></Entity>')
    _, diagnostics = load_model(doc)
    assert [(d.code, d.location, d.subject, d.message) for d in diagnostics
            if d.code == loader.E_DUP_CONSTRAINT] == [
        (loader.E_DUP_CONSTRAINT, (4, 1), "Entity[E]/Constraint[2]",
         "duplicate constraint name 'UQ_tbl_T_a_b'"),
        (loader.E_DUP_CONSTRAINT, (5, 1), "Entity[E]/Constraint[3]",
         "duplicate constraint name 'UQ_tbl_T_A_B': it differs from 'UQ_tbl_T_a_b' only in case"),
        (loader.E_DUP_CONSTRAINT, (7, 1), "Entity[E]/Constraint[5]",
         "duplicate constraint name 'CK_tbl_T_a_b'")]


def test_bad_default_language():
    doc = (b'<xsource><Settings defaultLanguage="Klingon"/><EntityConfig>'
           + MINIMAL_ENTITY.encode() + b"</EntityConfig></xsource>")
    _, diagnostics = load_model(doc)
    assert any(d.code == loader.E_BAD_DEFAULT_LANG for d in diagnostics)


def test_twofields_missing_relationship():
    doc = _wrap('<Entity name="E" tableName="E"><Field name="a" type="int" isPK="true"/>'
                '<Field name="b" type="int"/>'
                '<Constraint type="TwoFields"><CField name="a"/><CField name="b"/></Constraint>'
                "</Entity>")
    _, diagnostics = load_model(doc)
    assert any(d.code == loader.E_MISSING_ATTR for d in errors_of(diagnostics))


def test_validation_is_pure_and_deterministic(newsboard_model):
    assert validate_model(newsboard_model) == validate_model(newsboard_model)


def test_subject_paths():
    doc = _wrap('<Entity name="Fakultet" tableName="F">'
                '<Field name="ID" type="int" isPK="true"/>'
                '<Field name="strName" type="nvarchar"/></Entity>')
    _, diagnostics = load_model(doc)
    lengths = [d for d in diagnostics if d.code == loader.E_LENGTH]
    assert lengths[0].subject == "Entity[Fakultet]/Field[strName]"


@pytest.mark.parametrize(
    "data,gc_enabled,outcome",
    [
        (_wrap(MINIMAL_ENTITY), True, contextlib.nullcontext()),
        (b"<xsource>", True, pytest.raises(ParseError)),
        (_wrap(MINIMAL_ENTITY), False, contextlib.nullcontext()),
    ],
    ids=["loaded", "parse-error", "caller-disabled-gc"],
)
def test_load_model_restores_gc_state(data, gc_enabled, outcome):
    was_enabled = gc.isenabled()
    (gc.enable if gc_enabled else gc.disable)()
    try:
        with outcome:
            load_model(data)
        assert gc.isenabled() is gc_enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_load_model_keeps_no_document_tree():
    # a 200x20x3 model, 1.7 MB of XML; load_model's peak above the level it
    # started from is the model it returns, the document text and little else,
    # and the model holds a slot per attribute and each repeated string once
    rng = random.Random(5)  # a seed that draws all three languages
    model = randmodels.random_model(rng, force_size=(200, 20))
    assert len(model.languages) == 3
    data = randmodels.to_xml(randmodels.model_element(rng, model)).encode()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loaded = load_model(data)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert errors_of(loaded[1]) == []
    assert peak - start <= 1.75 * (size - start)
    assert size - start <= 1000 * sum(len(entity.fields) for entity in loaded[0].entities)


def _texts(*entries):
    return LocalizedText(tuple(entries))


# Hostile documents that together reach every binding code, each with the
# model it binds to and its diagnostics as (code, location, subject, message).
BINDING_CASES = [
    pytest.param(
        '<xsource><Settings appName="A"/><EntityConfig>\n'
        '<Entity name="E" tableName="T" caching="sometimes" isActive="yes">\n'
        '<Field name="a" type="nvarchar" nullable="maybe" length="0"\n'
        ' numberOfRows="x" numberOfCols="2" isShownInList="no"/>\n'
        '<Constraint type="Bogus" relationship="approx"/>\n'
        "</Entity></EntityConfig></xsource>",
        ApplicationModel(settings=Settings(appName="A"), entities=(Entity(
            name="E", tableName="T", location=(2, 1),
            fields=(Field(name="a", type=FieldType.NVARCHAR, type_token="nvarchar",
                          numberOfCols=2, location=(3, 1)),),
            constraints=(Constraint(kind_token="Bogus", rel_token="approx",
                                    location=(5, 1)),)),)),
        [(loader.E_BAD_ENUM, (2, 32), "Entity[E]",
          "attribute 'caching' must be 'enabled' or 'disabled', got 'sometimes'"),
         (loader.E_BAD_BOOL, (2, 52), "Entity[E]",
          "attribute 'isActive' must be 'true' or 'false', got 'yes'"),
         (loader.E_BAD_BOOL, (3, 33), "Entity[E]/Field[a]",
          "attribute 'nullable' must be 'true' or 'false', got 'maybe'"),
         (loader.E_BAD_INT, (3, 50), "Entity[E]/Field[a]",
          "attribute 'length' must be a positive integer, got '0'"),
         (loader.E_BAD_INT, (4, 2), "Entity[E]/Field[a]",
          "attribute 'numberOfRows' must be a positive integer, got 'x'"),
         (loader.E_BAD_BOOL, (4, 36), "Entity[E]/Field[a]",
          "attribute 'isShownInList' must be 'true' or 'false', got 'no'")],
        id="bad-values"),
    pytest.param(
        '<xsource><Settings appName="A" theme="dark"/><Extra/>\n'
        "<EntityConfig>\n"
        '<Entity name="E" tableName="T" owner="me"><Bogus/>\n'
        '<Language name="en"><DisplayName>E</DisplayName><Tooltip/></Language>\n'
        '<Field name="a" type="int" isPK="true" frob="1"><Hint/>\n'
        '<Language name="en"><DisplayName>A</DisplayName><Tooltip/></Language></Field>\n'
        '<Constraint type="Unique" strict="yes"><CField name="a"/><Note/>\n'
        '<Language name="en"><ErrorMessage>dup</ErrorMessage><Tooltip/></Language>'
        "</Constraint>\n"
        "</Entity><Junk/></EntityConfig>\n"
        "<EntityConfig/></xsource>",
        ApplicationModel(settings=Settings(appName="A"), languages=("en",), entities=(Entity(
            name="E", tableName="T", location=(3, 1), displayNames=_texts(("en", "E")),
            fields=(Field(name="a", type=FieldType.INT, type_token="int", isPK=True,
                          displayNames=_texts(("en", "A")), location=(5, 1)),),
            constraints=(Constraint(kind=ConstraintKind.UNIQUE, kind_token="Unique",
                                    cfields=("a",), errorMessages=_texts(("en", "dup")),
                                    location=(7, 1)),)),)),
        [(loader.W_UNKNOWN_ATTR, (1, 32), "Settings", "unknown attribute 'theme' ignored"),
         (loader.W_UNKNOWN_ELEM, (1, 46), "", "unknown element 'Extra' ignored"),
         (loader.W_UNKNOWN_ELEM, (10, 1), "", "extra EntityConfig element ignored"),
         (loader.W_UNKNOWN_ATTR, (3, 32), "Entity[E]", "unknown attribute 'owner' ignored"),
         (loader.W_UNKNOWN_ELEM, (3, 43), "Entity[E]", "unknown element 'Bogus' ignored"),
         (loader.W_UNKNOWN_ELEM, (4, 49), "Entity[E]", "unknown element 'Tooltip' ignored"),
         (loader.W_UNKNOWN_ATTR, (5, 40), "Entity[E]/Field[a]",
          "unknown attribute 'frob' ignored"),
         (loader.W_UNKNOWN_ELEM, (5, 49), "Entity[E]/Field[a]", "unknown element 'Hint' ignored"),
         (loader.W_UNKNOWN_ELEM, (6, 49), "Entity[E]/Field[a]",
          "unknown element 'Tooltip' ignored"),
         (loader.W_UNKNOWN_ATTR, (7, 27), "Entity[E]/Constraint[1]",
          "unknown attribute 'strict' ignored"),
         (loader.W_UNKNOWN_ELEM, (7, 58), "Entity[E]/Constraint[1]",
          "unknown element 'Note' ignored"),
         (loader.W_UNKNOWN_ELEM, (8, 53), "Entity[E]/Constraint[1]",
          "unknown element 'Tooltip' ignored"),
         (loader.W_UNKNOWN_ELEM, (9, 10), "EntityConfig", "unknown element 'Junk' ignored")],
        id="unknown-names"),
    pytest.param(
        "<xsource><EntityConfig>\n"
        '<Entity name="E" tableName="T">\n'
        '<Language name="en"><DisplayName>One</DisplayName><PluralName>Ones</PluralName>'
        "</Language>\n"
        '<Language name="mk"><DisplayName>Eden</DisplayName></Language>\n'
        '<Language name="en"><DisplayName>Two</DisplayName><PluralName>Twos</PluralName>'
        "</Language>\n"
        '<Field name="a" type="int" isPK="true">\n'
        '<Language name="en"><DisplayName>A1</DisplayName></Language>\n'
        '<Language name="en"><DisplayName>A2</DisplayName></Language></Field>\n'
        '<Constraint type="Unique"><CField name="a"/>\n'
        '<Language name="en"><ErrorMessage>m1</ErrorMessage></Language>\n'
        '<Language name="en"><ErrorMessage>m2</ErrorMessage></Language></Constraint>\n'
        "</Entity></EntityConfig></xsource>",
        ApplicationModel(languages=("en", "mk"), entities=(Entity(
            name="E", tableName="T", location=(2, 1),
            displayNames=_texts(("mk", "Eden"), ("en", "Two")),
            pluralNames=_texts(("en", "Twos")),
            fields=(Field(name="a", type=FieldType.INT, type_token="int", isPK=True,
                          displayNames=_texts(("en", "A2")), location=(6, 1)),),
            constraints=(Constraint(kind=ConstraintKind.UNIQUE, kind_token="Unique",
                                    cfields=("a",), errorMessages=_texts(("en", "m2")),
                                    location=(9, 1)),)),)),
        [(loader.W_DUP_LANG, (5, 1), "Entity[E]",
          "duplicate DisplayName for language 'en'; last one wins"),
         (loader.W_DUP_LANG, (5, 1), "Entity[E]",
          "duplicate PluralName for language 'en'; last one wins"),
         (loader.W_DUP_LANG, (8, 1), "Entity[E]/Field[a]",
          "duplicate DisplayName for language 'en'; last one wins"),
         (loader.W_DUP_LANG, (11, 1), "Entity[E]/Constraint[1]",
          "duplicate ErrorMessage for language 'en'; last one wins")],
        id="duplicate-languages"),
    pytest.param(
        "<xsource><EntityConfig>\n"
        '<Entity name="E" tableName="T"><Field name="ID" type="int" isPK="true"/>\n'
        '<Field name="a" type="int" nameName="legacy"/>\n'
        '<Field name="b" type="int" nameName="legacy" fkName="modern"/>\n'
        '<Field name="c" type="int" fkName="modern" nameName="legacy"/>\n'
        "</Entity></EntityConfig></xsource>",
        ApplicationModel(entities=(Entity(
            name="E", tableName="T", location=(2, 1),
            fields=(Field(name="ID", type=FieldType.INT, type_token="int", isPK=True,
                          location=(2, 32)),
                    Field(name="a", type=FieldType.INT, type_token="int", fkName="legacy",
                          location=(3, 1)),
                    Field(name="b", type=FieldType.INT, type_token="int", fkName="modern",
                          location=(4, 1)),
                    Field(name="c", type=FieldType.INT, type_token="int", fkName="modern",
                          location=(5, 1)))),)),
        [],
        id="fkname-alias"),
    # the Constraint and Field come before the entity's own Language block, and
    # there is no defaultLanguage: the entity's languages still come first
    pytest.param(
        "<xsource><EntityConfig>\n"
        '<Entity name="E" tableName="T">\n'
        '<Constraint type="Unique"><CField name="ID"/>\n'
        '<Language name="fr"><ErrorMessage>unique</ErrorMessage></Language></Constraint>\n'
        '<Field name="ID" type="int" isPK="true">\n'
        '<Language name="de"><DisplayName>Nummer</DisplayName></Language>\n'
        '<Language name="en"><DisplayName>Number</DisplayName></Language></Field>\n'
        '<Language name="en"><DisplayName>Thing</DisplayName></Language>\n'
        "</Entity></EntityConfig></xsource>",
        ApplicationModel(languages=("en", "de", "fr"), entities=(Entity(
            name="E", tableName="T", location=(2, 1), displayNames=_texts(("en", "Thing")),
            fields=(Field(name="ID", type=FieldType.INT, type_token="int", isPK=True,
                          displayNames=_texts(("de", "Nummer"), ("en", "Number")),
                          location=(5, 1)),),
            constraints=(Constraint(kind=ConstraintKind.UNIQUE, kind_token="Unique",
                                    cfields=("ID",), errorMessages=_texts(("fr", "unique")),
                                    location=(3, 1)),)),)),
        [],
        id="language-order"),
    # a Language and a CField bind only 'name'; an unnamed block binds the empty name
    pytest.param(
        "<xsource><EntityConfig>\n"
        '<Entity name="E" tableName="T">\n'
        '<Language lang="en"><DisplayName>Thing</DisplayName></Language>\n'
        '<Field name="ID" type="int" isPK="true">\n'
        '<Language name="en" region="GB"><DisplayName>Number</DisplayName></Language></Field>\n'
        '<Constraint type="Unique"><CField nam="ID"/><CField name="ID" field="x"/>\n'
        '<Language name="en"><ErrorMessage>dup</ErrorMessage></Language></Constraint>\n'
        "</Entity></EntityConfig></xsource>",
        ApplicationModel(languages=("en",), entities=(Entity(
            name="E", tableName="T", location=(2, 1), displayNames=_texts(("", "Thing")),
            fields=(Field(name="ID", type=FieldType.INT, type_token="int", isPK=True,
                          displayNames=_texts(("en", "Number")), location=(4, 1)),),
            constraints=(Constraint(kind=ConstraintKind.UNIQUE, kind_token="Unique",
                                    cfields=("", "ID"), errorMessages=_texts(("en", "dup")),
                                    location=(6, 1)),)),)),
        [(loader.W_UNKNOWN_ATTR, (3, 11), "Entity[E]", "unknown attribute 'lang' ignored"),
         (loader.W_UNKNOWN_ATTR, (5, 21), "Entity[E]/Field[ID]",
          "unknown attribute 'region' ignored"),
         (loader.W_UNKNOWN_ATTR, (6, 35), "Entity[E]/Constraint[1]",
          "unknown attribute 'nam' ignored"),
         (loader.W_UNKNOWN_ATTR, (6, 63), "Entity[E]/Constraint[1]",
          "unknown attribute 'field' ignored")],
        id="language-and-cfield-attributes"),
    # an attribute on the third line of a multi-line start tag is located there
    pytest.param(
        "<xsource><EntityConfig>\n"
        '<Entity name="E" tableName="T"><Field name="ID"\n'
        '  type="int"\n'
        '  isPK="true" nullable="maybe"/>\n'
        "</Entity></EntityConfig></xsource>",
        ApplicationModel(entities=(Entity(
            name="E", tableName="T", location=(2, 1),
            fields=(Field(name="ID", type=FieldType.INT, type_token="int", isPK=True,
                          location=(2, 32)),)),)),
        [(loader.E_BAD_BOOL, (4, 15), "Entity[E]/Field[ID]",
          "attribute 'nullable' must be 'true' or 'false', got 'maybe'")],
        id="multi-line-start-tag"),
]


def _located(diagnostics):
    return [(d.code, d.location, d.subject, d.message) for d in diagnostics]


@pytest.mark.parametrize("doc,model,diagnostics", BINDING_CASES)
def test_binding_diagnostics_are_pinned(doc, model, diagnostics):
    bound, found = bind_model(Document(doc.encode()))
    assert bound == model
    assert sorted(_located(found)) == sorted(diagnostics)
    assert all(d.severity is (Severity.ERROR if d.code.startswith("E_") else Severity.WARNING)
               for d in found)


# every integer attribute takes ASCII digits only; other digits are unreadable
@pytest.mark.parametrize("raw", ["0", "+3", "²", "١٢"],
                         ids=["zero", "plus", "superscript-two", "arabic-12"])
def test_bad_int_located_at_attribute(raw):
    doc = _wrap('<Entity name="E" tableName="E">\n'
                f'<Field name="x" type="nvarchar" isPK="true" length="{raw}"/>\n</Entity>')
    model, diagnostics = bind_model(Document(doc))
    assert _located(diagnostics) == [
        (loader.E_BAD_INT, (2, 45), "Entity[E]/Field[x]",
         f"attribute 'length' must be a positive integer, got '{raw}'")]
    assert model.entities[0].fields[0].length is None


def test_binding_diagnostic_order_within_an_element():
    # an element's attributes (unknown ones first, then in table order), then
    # its children and texts, then its fields, then its constraints
    doc = ('<xsource><EntityConfig>\n'
           '<Entity isActive="no" name="E" tableName="T" owner="me">\n'
           '<Constraint type="Unique" strict="yes"/>\n'
           '<Field name="a" length="x" nullable="maybe"/>\n'
           '<Language name="en"><DisplayName>A</DisplayName><Tooltip/></Language>\n'
           '<Bogus/>\n'
           '<Language name="en"><DisplayName>B</DisplayName></Language>\n'
           "</Entity></EntityConfig></xsource>")
    _, diagnostics = bind_model(Document(doc.encode()))
    assert [(d.code, d.location) for d in diagnostics] == [
        (loader.W_UNKNOWN_ATTR, (2, 46)),
        (loader.E_BAD_BOOL, (2, 9)),
        (loader.W_UNKNOWN_ELEM, (5, 49)),
        (loader.W_UNKNOWN_ELEM, (6, 1)),
        (loader.W_DUP_LANG, (7, 1)),
        (loader.E_BAD_INT, (4, 17)),
        (loader.E_BAD_BOOL, (4, 28)),
        (loader.W_UNKNOWN_ATTR, (3, 27)),
    ]


def test_settings_bound_like_other_elements():
    doc = ('<xsource><Settings appName="a" frob="1"><Theme/><Language name="en"/></Settings>\n'
           '<Settings appName="b"/><EntityConfig/></xsource>')
    model, diagnostics = bind_model(Document(doc.encode()))
    assert model.settings == Settings(appName="a")
    assert model.languages == ()
    assert _located(diagnostics) == [
        (loader.W_UNKNOWN_ATTR, (1, 32), "Settings", "unknown attribute 'frob' ignored"),
        (loader.W_UNKNOWN_ELEM, (1, 41), "Settings", "unknown element 'Theme' ignored"),
        (loader.W_UNKNOWN_ELEM, (1, 49), "Settings", "unknown element 'Language' ignored"),
        (loader.W_UNKNOWN_ELEM, (2, 1), "", "extra Settings element ignored"),
    ]


# documents shaped like model documents, with every attribute value drawn from
# arbitrary text or from digit-like text (Unicode categories Nd and No); the
# strategies draw no surrogates, so every document encodes as UTF-8
_ATTRIBUTES = {
    "Settings": ["appName", "defaultLanguage"],
    "Entity": ["name", "tableName", "caching", "isActive"],
    "Field": ["name", "type", "length", "numberOfRows", "numberOfCols", "isPK", "isFK",
              "fkEntityName", "fkName", "nameName"],
    "Constraint": ["type", "relationship"],
    "CField": ["name"],
    "Language": ["name"],
}
# each element's structural child, always present, and the tags it may also hold
_CHILDREN = {
    "xsource": ("EntityConfig", ["Settings", "EntityConfig"]),
    "Settings": (None, ["Language"]),
    "EntityConfig": ("Entity", []),
    "Entity": ("Field", ["Constraint", "Language"]),
    "Field": (None, ["Language"]),
    "Constraint": ("CField", ["Language"]),
    "Language": (None, ["DisplayName", "PluralName", "ErrorMessage"]),
}
_VALUES = st.one_of(st.text(max_size=8),
                    st.text(st.characters(whitelist_categories=("Nd",)), min_size=1, max_size=3),
                    st.text(st.characters(whitelist_categories=("No",)), min_size=1, max_size=3))


@st.composite
def _trees(draw, tag="xsource"):
    """An element as randmodels.to_xml takes it: [tag, attributes, children, text]."""
    names = st.sampled_from(_ATTRIBUTES.get(tag, []) + ["frob"])
    attributes = draw(st.dictionaries(names, _VALUES, max_size=4))
    tags = []
    if tag in _CHILDREN:  # any other tag is a leaf
        required, optional = _CHILDREN[tag]
        tags = [required] if required else []
        tags += draw(st.lists(st.sampled_from(optional + ["Bogus"]), max_size=2))
    children = [draw(_trees(t)) for t in draw(st.permutations(tags))]
    return [tag, list(attributes.items()), children, draw(st.text(max_size=4))]


@given(_trees())
def test_binding_never_raises(root):
    # to_xml escapes '&', '<', '"' and the '>' of ']]>', so every drawn document is well-formed
    _, diagnostics = load_model(randmodels.to_xml(root).encode("utf-8"))
    assert all(isinstance(d, loader.Diagnostic) for d in diagnostics)


# -- loading with the summaries of an earlier load: stubs ------------------------

def _outcome(text, recorded=None):
    """What loading `text` gives: its located ParseError, or its model with
    every stub bound and the entities' digests, its diagnostics and the
    summaries it records."""
    summaries = {}
    try:
        model, diagnostics = loader.load_document(Document(text.encode()), recorded, summaries)
    except ParseError as exc:
        return exc.line, exc.column, exc.reason
    return model, [e.digest for e in model.entities], diagnostics, summaries


def _manifest_of(text, stale, rng):
    """The entity summaries that generate would take from the manifest that
    it wrote after loading `text`, made stale as `stale` says."""
    summaries = {}
    try:
        _, diagnostics = loader.load_document(Document(text.encode()), None, summaries)
    except ParseError:
        diagnostics = None
    if diagnostics != []:  # only a clean load's are recorded
        summaries = {}
    if stale == "length" and summaries:
        key = rng.choice(sorted(summaries))
        length, languages, targets = summaries[key]
        summaries[key] = (length + rng.choice([-1, 1]), languages, targets)
    sources = "0" * 64 if stale == "sources" else packs._sources_digest().hex()
    payload = json.loads(ownership.manifest_to_json(
        ownership.Manifest(summaries=summaries, sources=sources)))
    if stale == "version 3":
        payload = {"version": 3, "rules": [], "entities": [], "entries": []}
    return cli._recorded(ownership.manifest_from_json(json.dumps(payload)))


def _entities(root):
    return root[2][1][2]


def _rename(element, name, value):
    element[1] = [(n, v) for n, v in element[1] if n != name] + [(name, value)]


def _spans(text):
    return [m.span() for m in re.finditer(r"<Entity\b.*?</Entity>", text, re.S)]


def _tree_edit(edit, root, rng):
    entities = _entities(root)
    # an entity that an FK names, half the time where there is one
    targets = {value for element in entities for field in element[2] if field[0] == "Field"
               for name, value in field[1] if name == "fkEntityName"}
    named = [element for element in entities if dict(element[1])["name"] in targets]
    entity = rng.choice(named if named and rng.random() < 0.5 else entities)
    if edit == "insert":
        added = copy.deepcopy(entity)
        name = f"Added{rng.randrange(10**6)}"
        _rename(added, "name", name)
        _rename(added, "tableName", name)
        entities.insert(rng.randrange(len(entities) + 1), added)
    elif edit == "delete" and len(entities) > 1:
        entities.remove(entity)
    elif edit == "reorder":
        rng.shuffle(entities)
    elif edit == "rename":
        name = f"Renamed{rng.randrange(10**6)}"
        _rename(entity, "name", name)
        _rename(entity, "tableName", name)
    elif edit == "rename_field":
        field = rng.choice([child for child in entity[2] if child[0] == "Field"])
        _rename(field, "name", dict(field[1])["name"] + "X")
    elif edit == "empty_language":  # a Language block with no text declares its language
        owners = [entity, *(child for child in entity[2] if child[0] == "Field")]
        rng.choice(owners)[2].append(["Language", [("name", rng.choice(["Xx", "en", "mk"]))],
                                      [], ""])
    elif edit == "fk":
        target = dict(rng.choice(entities)[1])["name"]
        entity[2].append(["Field", [("name", f"Fk{rng.randrange(10**6)}"), ("type", "int"),
                                    ("isFK", "true"), ("fkEntityName", target)], [], ""])


def _text_edit(edit, text, rng):
    start, end = rng.choice(_spans(text))
    head_end = text.index(">", start) + 1
    if edit == "blank_line":
        return text[:start] + "\n" + text[start:]
    if edit == "crlf":
        return text.replace("\r\n", "\n").replace("\n", "\r\n")
    if edit == "duplicate":
        return text[:end] + text[start:end] + text[end:]
    if edit == "comment":  # the span no longer ends at its first Entity end tag
        return text[:head_end] + "<!-- </Entity> -->" + text[head_end:]
    if edit == "bad_reference":
        return text[:head_end] + "&bogus;" + text[head_end:]
    return text


_TREE_EDITS = ["insert", "delete", "reorder", "rename", "rename_field", "empty_language", "fk"]
_TEXT_EDITS = ["blank_line", "crlf", "duplicate", "comment", "bad_reference"]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), earlier_crlf=st.booleans(),
       earlier_edits=st.lists(st.sampled_from(["fk", "empty_language"]), max_size=3),
       edits=st.lists(st.sampled_from(_TREE_EDITS + _TEXT_EDITS), max_size=3),
       stale=st.sampled_from([None, None, "length", "sources", "version 3"]))
def test_a_load_with_stubs_equals_a_full_load(seed, earlier_crlf, earlier_edits, edits, stale):
    """For a document edited after an earlier one loaded, a load that takes
    the earlier load's summaries from its manifest gives the diagnostics and,
    once every stub is bound, the model and summaries of a full load, or the
    same ParseError; also where the summaries are stale."""
    rng = random.Random(seed)
    root = randmodels.model_element(rng, randmodels.random_model(rng, max_entities=6,
                                                                  max_fields=4))
    for edit in earlier_edits:
        _tree_edit(edit, root, rng)
    earlier = randmodels.to_xml(root)
    if earlier_crlf:
        earlier = _text_edit("crlf", earlier, rng)
    recorded = _manifest_of(earlier, stale, rng)
    for edit in (edit for edit in edits if edit in _TREE_EDITS):
        _tree_edit(edit, root, rng)
    text = randmodels.to_xml(root)
    if earlier_crlf:
        text = _text_edit("crlf", text, rng)
    for edit in (edit for edit in edits if edit in _TEXT_EDITS):
        text = _text_edit(edit, text, rng)
    assert _outcome(text, recorded) == _outcome(text)


def test_a_stub_with_an_fk_to_a_renamed_entity_is_an_error():
    """Fakultet is renamed and Vest is not edited: Vest's summary names
    Fakultet, so Vest is bound where it is, and its error is located as in a
    full load."""
    data = (FIXTURES / "newsboard.xml").read_bytes()
    summaries = {}
    assert loader.load_document(Document(data), None, summaries)[1] == []
    lines = data.split(b"\n")
    lines[4] = lines[4].replace(b'"Fakultet"', b'"Faculty"')
    renamed = b"\n".join(lines)
    assert renamed.count(b'"Fakultet"') == 1  # Vest's fkEntityName
    model, diagnostics = loader.load_document(Document(renamed), summaries)
    assert [(d.code, d.location, d.subject) for d in diagnostics] == [
        (loader.E_FK_TARGET, (52, 7), "Entity[Vest]/Field[FakultetID]")]
    assert (model, diagnostics) == loader.load_document(Document(renamed))


def test_only_a_stub_naming_a_missing_entity_is_bound(monkeypatch):
    """A is renamed: of the stubs B and C, only B's FK names A, so only B is
    bound, in place, and the model is bound once, with a full load's
    diagnostics."""
    text = ('<xsource><Settings appName="P"/><EntityConfig>\n'
            '<Entity name="A" tableName="A"><Field name="ID" type="int" isPK="true"/></Entity>\n'
            '<Entity name="B" tableName="B"><Field name="ID" type="int" isPK="true"/>\n'
            '  <Field name="AID" type="int" isFK="true" fkEntityName="A"/></Entity>\n'
            '<Entity name="C" tableName="C"><Field name="ID" type="int" isPK="true"/>\n'
            '  <Field name="BID" type="int" isFK="true" fkEntityName="B"/></Entity>\n'
            '</EntityConfig></xsource>')
    summaries = {}
    assert loader.load_document(Document(text.encode()), None, summaries)[1] == []
    renamed = text.replace('name="A" tableName="A"', 'name="Z" tableName="Z"').encode()
    binds, bind = [], loader.bind_model
    monkeypatch.setattr(loader, "bind_model", lambda *args: binds.append(args) or bind(*args))
    model, diagnostics = loader.load_document(Document(renamed), summaries)
    assert len(binds) == 1
    assert [entity.span is None for entity in model.entities] == [True, True, False]
    assert [(d.code, d.location, d.subject) for d in diagnostics] == [
        (loader.E_FK_TARGET, (4, 3), "Entity[B]/Field[AID]")]
    monkeypatch.undo()
    assert (model, diagnostics) == loader.load_document(Document(renamed))


def test_an_unchanged_entity_is_a_stub_until_read(newsboard_model):
    data = (FIXTURES / "newsboard.xml").read_bytes()
    summaries = {}
    full, diagnostics = loader.load_document(Document(data), None, summaries)
    assert diagnostics == [] and len(summaries) == 2
    edited = data.replace(b"<DisplayName>Faculty</DisplayName>",
                          b"<DisplayName>Faculty board</DisplayName>", 1)
    model, diagnostics = loader.load_document(Document(edited), summaries)
    fakultet, vest = model.entities
    assert diagnostics == [] and model.languages == full.languages
    assert fakultet.span is None and vest.span is not None
    assert (vest.name, vest.location, vest.digest) == (full.entities[1].name,
                                                        full.entities[1].location,
                                                        full.entities[1].digest)
    assert vest.fields == full.entities[1].fields and vest.span is None
    assert vest == full.entities[1] and model.entities[1] is vest
