import dataclasses
import typing

import pytest
from hypothesis import given, strategies as st

from sfgen.loader import Diagnostic
from sfgen.model import (
    ApplicationModel,
    ColumnSpec,
    Constraint,
    ConstraintKind,
    Entity,
    Field,
    FieldType,
    LocalizedText,
    Settings,
    build,
    effective_columns,
    localized_text,
)
from sfgen.ownership import ManifestEntry, PlanEntry
from sfgen.packs import Artifact


def _fakultet(is_logged=True):
    return Entity(
        name="Fakultet",
        tableName="Fakultet",
        isLogged=is_logged,
        displayNames=LocalizedText((("Macedonian", "Факултет"), ("English", "Faculty"))),
        fields=(
            Field(name="ID", type=FieldType.INT, type_token="int", isPK=True, isIdentity=True),
            Field(name="strName", type=FieldType.NVARCHAR, type_token="nvarchar", length=30),
        ),
    )


def test_effective_columns_with_audit_block():
    # hand-application of the CREATE TABLE template to the Fakultet entity
    assert effective_columns(_fakultet()) == (
        ColumnSpec(name="ID", type=FieldType.INT, nullable=False, identity=True),
        ColumnSpec(name="strName", type=FieldType.NVARCHAR, length=30, nullable=False),
        ColumnSpec(name="changedAt", type=FieldType.DATETIME, nullable=False),
        ColumnSpec(name="changedBy", type=FieldType.VARCHAR, length=50, nullable=False),
    )


def test_effective_columns_without_audit_block():
    columns = effective_columns(_fakultet(is_logged=False))
    assert [c.name for c in columns] == ["ID", "strName"]


def test_effective_columns_nullable_passthrough():
    entity = Entity(name="E", tableName="E",
                    fields=(Field(name="x", type=FieldType.INT, type_token="int",
                                  isPK=True, nullable=True),))
    assert effective_columns(entity)[0].nullable is True


@given(n_fields=st.integers(min_value=1, max_value=12), is_logged=st.booleans())
def test_effective_columns_count_and_prefix(n_fields, is_logged):
    fields = tuple(
        Field(name=f"f{i}", type=FieldType.INT, type_token="int", isPK=(i == 0))
        for i in range(n_fields)
    )
    entity = Entity(name="E", tableName="E", isLogged=is_logged, fields=fields)
    columns = effective_columns(entity)
    assert len(columns) == n_fields + (2 if is_logged else 0)
    assert [c.name for c in columns[:n_fields]] == [f.name for f in fields]


def test_display_name_paper_values():
    entity = _fakultet()
    assert localized_text(entity, "display", "English") == "Faculty"
    assert localized_text(entity, "display", "Macedonian") == "Факултет"


def test_display_name_fallback_chain():
    entity = _fakultet()
    # absent language falls back to the default language
    assert localized_text(entity, "display", "German", default_lang="English") == "Faculty"
    # then to the first declared entry
    assert localized_text(entity, "display", "German") == "Факултет"
    # then to the structural name
    bare = Entity(name="Bare", tableName="Bare")
    assert localized_text(bare, "display", "German") == "Bare"


def test_display_name_total_and_nonempty():
    field = Field(name="strName")
    assert localized_text(field, "display", "Nope") == "strName"
    constraint = Constraint(kind=ConstraintKind.UNIQUE, kind_token="Unique")
    assert localized_text(constraint, "display", "Nope") == "Unique"


def test_display_name_attribute_fallback():
    field = Field(name="strName", displayNameAttr="Name (attr)")
    assert localized_text(field, "display", "English") == "Name (attr)"
    # Language children win over the attribute
    field = dataclasses.replace(field, displayNames=LocalizedText((("English", "Name"),)))
    assert localized_text(field, "display", "English") == "Name"


def test_types_are_immutable():
    entity = _fakultet()
    with pytest.raises(dataclasses.FrozenInstanceError):
        entity.name = "Other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        entity.fields[0].length = 5


def test_structural_equality():
    assert _fakultet() == _fakultet()
    assert _fakultet() != _fakultet(is_logged=False)


_OVERRIDES = {  # keep nested model elements small
    "fields": st.lists(st.builds(Field, name=st.text(max_size=3)), max_size=2).map(tuple),
    "constraints": st.lists(st.builds(Constraint, cfields=st.just(("a",))), max_size=2).map(tuple),
    "entities": st.lists(st.builds(Entity, name=st.text(max_size=3)), max_size=2).map(tuple),
}


def _keywords(cls):
    """Its required fields and any subset of the others of `cls`, each with a
    value of its annotated type."""
    hints = typing.get_type_hints(cls)
    values = {f.name: _OVERRIDES[f.name] if f.name in _OVERRIDES else st.from_type(hints[f.name])
              for f in dataclasses.fields(cls)}
    required = {f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
    return st.fixed_dictionaries({name: values.pop(name) for name in required}, optional=values)


# the model types and the records built once per model element or per artifact
SLOTTED_TYPES = [Field, Entity, Constraint, LocalizedText, Settings, ApplicationModel, ColumnSpec,
                 Diagnostic, Artifact, ManifestEntry, PlanEntry]


@pytest.mark.parametrize("cls", SLOTTED_TYPES)
@given(data=st.data())
def test_build_equals_the_constructor(cls, data):
    values = data.draw(_keywords(cls))
    built, constructed = build(cls, **values), cls(**values)
    assert type(built) is cls
    assert built == constructed
    assert hash(built) == hash(constructed)
    assert repr(built) == repr(constructed)
    assert not hasattr(built, "__dict__") and not hasattr(constructed, "__dict__")
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, name, getattr(constructed, name))
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        build(cls, **values, bogus=1)


def test_load_shares_language_names_and_type_tokens(newsboard_model):
    model = newsboard_model
    texts = [text for entity in model.entities
             for text in (entity.displayNames, entity.pluralNames,
                          *(f.displayNames for f in entity.fields),
                          *(c.errorMessages for c in entity.constraints))]
    names = [name for text in texts for name, _ in text.entries]
    assert len(names) > len(model.languages)
    for name in names:
        assert name is model.languages[model.languages.index(name)]
    tokens = [f.type_token for entity in model.entities for f in entity.fields]
    assert len(set(tokens)) < len(tokens)
    first = {}
    for token in tokens:
        assert first.setdefault(token, token) is token
