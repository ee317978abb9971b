"""A typed path step and the run-time step read an element alike.

The compiler types each step from a typed root (`model`, `entity`) or loop
variable, and reads the name directly behind a test of the element's type;
_step reads it for any other value. Every name of atl.NAMES is read both ways
of the same elements: through the typed roots, and through the untyped
context names `Model` and `Entity` bound to the same elements. The two
templates of a pair are as long, so an error is located alike in both."""

import random
import re

import pytest

from sfgen import atl
from sfgen import model as m
from sfgen.atl import TemplateRuntimeError, parse_template, render

from conftest import load_fixture
from randmodels import random_model

FIXTURES = ["newsboard.xml", "fakultet.xml", "vest.xml"]

# each class's elements as a template reaches them: a template, and the path
# in it of one element, in the loop over the model's, or an entity's, elements
OF_MODEL = [
    (m.ApplicationModel, "{{ READ }}", "model"),
    (m.Settings, "{{ READ }}", "model.settings"),
    (m.Entity, "{% for e in model.entities %}{{ READ }};{% endfor %}", "e"),
    (m.LocalizedText, "{% for e in model.entities %}{% for f in e.fields %}{{ READ }};"
     "{% endfor %}{% endfor %}", "f.displayNames"),
    (m.Field, "{% for e in model.entities %}{% for f in e.fields %}{{ READ }};"
     "{% endfor %}{% endfor %}", "f"),
    (m.Constraint, "{% for e in model.entities %}{% for c in e.constraints %}{{ READ }};"
     "{% endfor %}{% endfor %}", "c"),
    (m.ColumnSpec, "{% for e in model.entities %}{% for c in e.columns %}{{ READ }};"
     "{% endfor %}{% endfor %}", "c"),
]
OF_ENTITY = [
    (m.Entity, "{{ READ }}", "entity"),
    (m.LocalizedText, "{{ READ }}", "entity.pluralNames"),
    (m.Field, "{% for f in entity.fields %}{{ READ }};{% endfor %}", "f"),
    (m.Constraint, "{% for c in entity.constraints %}{{ READ }};{% endfor %}", "c"),
    (m.ColumnSpec, "{% for c in entity.columns %}{{ READ }};{% endfor %}", "c"),
]


def untyped(source):
    """`source` with the roots `model` and `entity` read as untyped context names."""
    return re.sub(r"\b(model|entity)\b", lambda root: root.group().capitalize(), source)


def pairs(forms, wrap="{}"):
    """(class, name, typed template, untyped template) for each name of each
    class in `forms`, its read wrapped by `wrap`."""
    for cls, form, element in forms:
        for name in atl.NAMES[cls]:
            typed = form.replace("READ", wrap.format(f"{element}.{name}"))
            yield cls, name, typed, untyped(typed)


def outcome(source, context):
    try:
        return render(parse_template(source, "t.atl"), context)
    except TemplateRuntimeError as exc:
        return exc.line, exc.column, exc.reason


def contexts(model, entity):
    shared = {"lang": "English", atl.DEFAULT_LANGUAGE: model.settings.defaultLanguage}
    return ({"model": model, "entity": entity, **shared},
            {"Model": model, "Entity": entity, **shared})


def test_every_name_renders_alike_typed_and_untyped():
    """The text of each name, or its located error: a tuple, or an element,
    is no text."""
    read = 0
    for fixture in FIXTURES:
        model = load_fixture(fixture)
        for entity in model.entities:
            typed_context, untyped_context = contexts(model, entity)
            for cls, name, typed, untyped_source in pairs(OF_MODEL + OF_ENTITY):
                assert outcome(typed, typed_context) == outcome(untyped_source, untyped_context), \
                    (fixture, entity.name, cls.__name__, name)
                read += 1
    assert read > 500


def test_every_name_reads_the_same_value_typed_and_untyped(monkeypatch):
    """The value of each name, shown with its type: over the fixtures and
    C8's random models."""
    monkeypatch.setitem(atl.BUILTINS, "show", lambda value: f"{type(value).__name__} {value!r}")
    compiled = [(name, parse_template(typed, "t.atl"), parse_template(untyped_source, "t.atl"))
                for _, name, typed, untyped_source in pairs(OF_MODEL, "show({})")]
    models = [load_fixture(fixture) for fixture in FIXTURES]
    rng = random.Random(7)
    models += [random_model(rng, force_size=size) for size in [None] * 99 + [(20, 30)]]
    for model in models:
        typed_context, untyped_context = contexts(model, None)
        for name, typed, untyped_ast in compiled:
            assert render(typed, typed_context) == render(untyped_ast, untyped_context), name


def test_a_typed_template_reads_every_name_typed(monkeypatch, newsboard_model):
    """The typed templates above read each name by its typed read, not _step."""
    steps = []
    monkeypatch.setitem(atl._RUNTIME, "_step", lambda value, name, *_: steps.append(name))
    typed_context, untyped_context = contexts(newsboard_model, newsboard_model.entities[1])
    for _, _, typed, _ in pairs(OF_MODEL + OF_ENTITY):
        outcome(typed, typed_context)
    assert steps == []
    outcome("{{ Entity.name }}", untyped_context)
    assert steps == ["name"]


def test_constraint_fields_are_of_the_entity_whose_sequence_the_loop_reads(newsboard_model):
    vest = newsboard_model.entities[1]
    source = "{% for c in e.constraints %}{{ c.first_field.name }} {{ c.nullable }}{% endfor %}"
    assert render(parse_template(source, "t.atl"), {"e": vest}) == "DisplayFrom false"
    # with no such entity, unresolved
    source = "{{ c.first_field.name }}|{{ c.nullable }}|{{ count(c.fields) }}"
    assert render(parse_template(source, "t.atl"), {"c": vest.constraints[0]}) == "|false|2"


# (source, expected): the text of each render, typed and untyped, or the
# (line, column, reason) of its error
ROWS = [
    # not part of an entity's value: its source digest and its stub's binder
    ("{{ entity.digest }}|{{ entity.span }}", "|"),
    # a misspelt name, or a name of no element, reads as Null
    ("{{ entity.nmae }}|{% for f in entity.fields %}{{ f.nmae }}{{ f.__class__ }}{% endfor %}",
     "|"),
    ("{{ entity.fields.name }}", (1, 4, "cannot access '.name' on tuple value")),
    ("{{ entity.name }}{{ lower(entity) }}",
     (1, 21, "lower(): cannot render a Entity value as text")),
    ("{{ entity.fields }}", (1, 1, "cannot render a tuple value as text")),
    ("{{ model.settings }}", (1, 1, "cannot render a Settings value as text")),
    ("{% for c in entity.constraints %}{{ c.fields }}{% endfor %}",
     (1, 34, "cannot render a tuple value as text")),
]


@pytest.mark.parametrize("source, expected", ROWS)
def test_rows(newsboard_model, source, expected):
    typed_context, untyped_context = contexts(newsboard_model, newsboard_model.entities[0])
    assert outcome(source, typed_context) == outcome(untyped(source), untyped_context) == expected
