import contextlib
import gc

import pytest

from sfgen import loader
from sfgen.loader import Severity, bind_model, load_model, validate_model
from sfgen.model import FieldType
from sfgen.xmlsubset import ParseError, parse_document

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
    model, diagnostics = bind_model(parse_document(doc))
    bad = [d for d in diagnostics if d.code == loader.E_BAD_BOOL]
    assert len(bad) == 1
    assert bad[0].location == (2, 40)
    # binding continued: the field is present with the default value
    assert model.entities[0].fields[0].nullable is False


def test_unknown_attribute_warns_and_continues():
    doc = _wrap('<Entity name="E" tableName="E">'
                '<Field name="x" type="int" isPK="true" frobnicate="1"/></Entity>')
    model, diagnostics = bind_model(parse_document(doc))
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
    model, _ = bind_model(parse_document(doc))
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
