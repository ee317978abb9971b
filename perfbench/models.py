"""Seeded model generator for the benchmark workloads.

Every model is a plain description (`ModelSpec`) that is written out as XML in
the README's dialect subset. The benchmark derives its output checks from the
same description, never from saved generator output.

Shapes do not depend on the seed: the seed picks names, field types,
relationships and which entities are inactive, but the number of entities,
fields, constraints and active entities is fixed, so the work per op is the
same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator

LANGUAGES = ("English", "Macedonian", "German")
INACTIVE_SHARE = 0.15
RARE_RELATIONSHIP = "eq"  # used by exactly two entities, so lint flags it
COMMON_RELATIONSHIPS = ("lt", "le", "gt", "ge", "neq")

_WORDS = ("Customer", "Invoice", "Order", "Fee", "Account", "News", "Event",
          "Faculty", "Student", "Report", "Policy", "Ticket", "Course", "Grade")
_ATTR_WORDS = ("Amount", "Title", "Code", "Note", "Count", "Price", "Label",
               "Rate", "Stamp", "Flag", "Ratio", "Memo", "Total", "Level")
# (type, length, multiline rows); the wide models cycle through this list
_WIDE_TYPES = (
    ("int", None, None), ("bigint", None, None), ("decimal", None, None),
    ("bit", None, None), ("float", None, None), ("datetime", None, None),
    ("date", None, None), ("nvarchar", 50, None), ("varchar", 200, 4),
    ("text", None, 10),
)
_NARROW_TYPES = (("int", None, None), ("nvarchar", 40, None),
                 ("decimal", None, None), ("varchar", 20, None))
DATE_TYPES = frozenset({"datetime", "date"})


@dataclass(frozen=True)
class FieldSpec:
    name: str
    type: str
    length: int | None = None
    rows: int | None = None
    pk: bool = False
    nullable: bool = False
    shown_in_list: bool = True
    shown_in_edit: bool = True
    display: tuple[str, ...] = ()  # languages that carry a DisplayName

    @property
    def required(self) -> bool:
        """Shown in the edit form, not nullable and not an identity."""
        return self.shown_in_edit and not self.nullable and not self.pk


@dataclass(frozen=True)
class ConstraintSpec:
    kind: str  # "Unique" | "TwoFields"
    fields: tuple[str, ...]
    relationship: str | None = None


@dataclass(frozen=True)
class EntitySpec:
    name: str
    table: str
    active: bool
    logged: bool
    fields: tuple[FieldSpec, ...]
    constraints: tuple[ConstraintSpec, ...]


@dataclass(frozen=True)
class ModelSpec:
    app_name: str
    languages: tuple[str, ...]
    entities: tuple[EntitySpec, ...]

    @property
    def active_entities(self) -> tuple[EntitySpec, ...]:
        return tuple(e for e in self.entities if e.active)


@dataclass(frozen=True)
class Edit:
    """Rename (or restore) field `field_index` of entity `entity_index`."""
    entity_index: int
    field_index: int
    old: str
    new: str


def _pk(display: tuple[str, ...]) -> FieldSpec:
    return FieldSpec(name="ID", type="int", pk=True, shown_in_list=False, display=display)


def _display(languages: tuple[str, ...], j: int) -> tuple[str, ...]:
    """The default language plus one of the others, in rotation, so every
    language is used and each field carries at most two texts."""
    if len(languages) == 1:
        return languages
    return (languages[0], languages[1 + j % (len(languages) - 1)])


def _inactive(rng: random.Random, n: int) -> set[int]:
    return set(rng.sample(range(n), k=round(n * INACTIVE_SHARE)))


def wide_model(seed: int, n_entities: int, n_fields: int, n_languages: int) -> ModelSpec:
    """`n_entities` entities of `n_fields` fields each (the PK included).

    Every entity has one Unique constraint over one or two fields and two
    TwoFields constraints, one over a date pair and one over a non-date pair.
    Exactly two active entities carry an extra `eq` TwoFields constraint.
    """
    rng = random.Random(f"wide:{seed}")
    languages = LANGUAGES[:n_languages]
    inactive = _inactive(rng, n_entities)
    rare = set(rng.sample(sorted(set(range(n_entities)) - inactive), k=2))
    entities = []
    for i in range(n_entities):
        stem = rng.choice(_WORDS)
        types = [_WIDE_TYPES[j % len(_WIDE_TYPES)] for j in range(n_fields - 1)]
        rng.shuffle(types)
        fields = [_pk(_display(languages, i))]
        for j, (ftype, length, rows) in enumerate(types):
            fields.append(FieldSpec(
                name=f"{rng.choice(_ATTR_WORDS)}{j}", type=ftype, length=length, rows=rows,
                nullable=rng.random() < 0.3, shown_in_list=rng.random() < 0.8,
                shown_in_edit=rng.random() < 0.8, display=_display(languages, i + j + 1)))
        dates = [f.name for f in fields[1:] if f.type in DATE_TYPES]
        others = [f.name for f in fields[1:] if f.type not in DATE_TYPES]
        constraints = [
            ConstraintSpec("Unique", tuple(rng.sample(others, k=rng.randint(1, 2)))),
            ConstraintSpec("TwoFields", tuple(rng.sample(dates, k=2)),
                           rng.choice(COMMON_RELATIONSHIPS)),
            ConstraintSpec("TwoFields", tuple(rng.sample(others, k=2)),
                           rng.choice(COMMON_RELATIONSHIPS)),
        ]
        if i in rare:
            constraints.append(ConstraintSpec("TwoFields", tuple(rng.sample(others, k=2)),
                                              RARE_RELATIONSHIP))
        entities.append(EntitySpec(
            name=f"{stem}{i}", table=f"{stem}{i}", active=i not in inactive,
            logged=rng.random() < 0.5, fields=tuple(fields), constraints=tuple(constraints)))
    return ModelSpec("Wide", languages, tuple(entities))


def narrow_model(seed: int, n_entities: int) -> ModelSpec:
    """`n_entities` entities of two fields: the PK and one required value field.

    The value field has no DisplayName, so list views show its name. Each
    entity constrains it: Unique on its own, or TwoFields against the PK.
    """
    rng = random.Random(f"narrow:{seed}")
    inactive = _inactive(rng, n_entities)
    entities = []
    for i in range(n_entities):
        stem = rng.choice(_WORDS)
        ftype, length, _ = rng.choice(_NARROW_TYPES)
        value = FieldSpec(name=f"{rng.choice(_ATTR_WORDS)}Value", type=ftype, length=length)
        if rng.random() < 0.5:
            constraint = ConstraintSpec("Unique", (value.name,))
        else:
            constraint = ConstraintSpec("TwoFields", ("ID", value.name),
                                        rng.choice(COMMON_RELATIONSHIPS))
        entities.append(EntitySpec(
            name=f"{stem}{i}", table=f"{stem}{i}", active=i not in inactive,
            logged=rng.random() < 0.5, fields=(_pk(LANGUAGES[:1]), value),
            constraints=(constraint,)))
    return ModelSpec("Narrow", LANGUAGES[:1], tuple(entities))


def rename_field(entity: EntitySpec, field_index: int, new: str) -> EntitySpec:
    """`entity` with one field renamed, constraint references included."""
    old = entity.fields[field_index].name
    fields = list(entity.fields)
    fields[field_index] = replace(fields[field_index], name=new)
    constraints = tuple(
        replace(c, fields=tuple(new if f == old else f for f in c.fields))
        for c in entity.constraints)
    return replace(entity, fields=tuple(fields), constraints=constraints)


def edit_sequence(spec: ModelSpec, seed: int) -> Iterator[Edit]:
    """Endless rename/restore pairs: op 2k renames the value field of a seeded
    active entity, op 2k+1 restores it."""
    rng = random.Random(f"edits:{seed}")
    active = [i for i, e in enumerate(spec.entities) if e.active]
    while True:
        index = rng.choice(active)
        entity = spec.entities[index]
        old = entity.fields[1].name
        new = old.replace("Value", "Renamed")
        yield Edit(index, 1, old, new)
        yield Edit(index, 1, new, old)


# ---------------------------------------------------------------------------
# XML

def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _field_xml(field: FieldSpec) -> list[str]:
    attrs = [f'name="{field.name}"', f'type="{field.type}"']
    if field.length is not None:
        attrs.append(f'length="{field.length}"')
    if field.rows is not None:
        attrs.append(f'numberOfRows="{field.rows}"')
    if field.pk:
        attrs.append('isPK="true" isIdentity="true"')
    attrs.append(f'nullable="{_bool(field.nullable)}"')
    if not field.shown_in_list:
        attrs.append('isShownInList="false"')
    if not field.shown_in_edit:
        attrs.append('isShownInEdit="false"')
    head = f'      <Field {" ".join(attrs)}'
    if not field.display:
        return [head + " />"]
    lines = [head + ">"]
    for lang in field.display:
        lines.append(f'        <Language name="{lang}"><DisplayName>'
                     f'{_esc(field.name)} ({lang})</DisplayName></Language>')
    lines.append("      </Field>")
    return lines


def entity_xml(entity: EntitySpec, languages: tuple[str, ...]) -> str:
    lines = [f'    <Entity name="{entity.name}" tableName="{entity.table}" '
             f'isLogged="{_bool(entity.logged)}" isActive="{_bool(entity.active)}">']
    for lang in languages:
        lines += [f'      <Language name="{lang}">',
                  f"        <DisplayName>{_esc(entity.name)} ({lang})</DisplayName>",
                  f"        <PluralName>{_esc(entity.name)} records &amp; drafts "
                  f"({lang})</PluralName>",
                  "      </Language>"]
    for field in entity.fields:
        lines += _field_xml(field)
    for constraint in entity.constraints:
        rel = f' relationship="{constraint.relationship}"' if constraint.relationship else ""
        lines.append(f'      <Constraint type="{constraint.kind}"{rel}>')
        for lang in languages:
            lines.append(f'        <Language name="{lang}"><ErrorMessage>'
                         f'{constraint.kind} on {" and ".join(constraint.fields)} '
                         f'failed ({lang})</ErrorMessage></Language>')
        lines += [f'        <CField name="{name}" />' for name in constraint.fields]
        lines.append("      </Constraint>")
    lines.append("    </Entity>")
    return "\n".join(lines) + "\n"


def document_parts(spec: ModelSpec) -> tuple[str, list[str], str]:
    """(head, one chunk per entity, tail); joined they are the model document."""
    head = ('<?xml version="1.0" encoding="utf-8"?>\n<xsource>\n'
            f'  <Settings appName="{spec.app_name}" defaultLanguage="{spec.languages[0]}" />\n'
            "  <EntityConfig>\n")
    chunks = [entity_xml(e, spec.languages) for e in spec.entities]
    return head, chunks, "  </EntityConfig>\n</xsource>\n"


def to_xml(spec: ModelSpec) -> str:
    head, chunks, tail = document_parts(spec)
    return head + "".join(chunks) + tail
