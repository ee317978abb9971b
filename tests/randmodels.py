"""Randomized valid-model builder for determinism and consistency properties.

Models are built directly from the domain types and are valid by construction
(every run is checked against validate_model in the tests that use this).
"""

import random

from sfgen.model import (
    ApplicationModel,
    Constraint,
    ConstraintKind,
    DATE_TYPES,
    Entity,
    Field,
    FieldType,
    LocalizedText,
    RelationshipOp,
    SIZED_STRING_TYPES,
    Settings,
)

_LANGS = ["English", "Macedonian", "German"]
_WORDS = ["Customer", "Invoice", "Order", "Fee", "Account", "News", "Issue",
          "Faculty", "Student", "Report", "Policy", "Ticket"]


def _localized(rng: random.Random, langs: list[str], stem: str) -> LocalizedText:
    chosen = [lang for lang in langs if rng.random() < 0.7]
    return LocalizedText(tuple((lang, f"{stem} ({lang})") for lang in chosen))


def _random_field(rng: random.Random, name: str, langs: list[str]) -> Field:
    ftype = rng.choice(list(FieldType))
    multiline = ftype in (FieldType.NVARCHAR, FieldType.VARCHAR, FieldType.TEXT)
    return Field(
        name=name,
        type=ftype,
        type_token=ftype.value,
        length=rng.choice([20, 50, 200]) if ftype in SIZED_STRING_TYPES else None,
        nullable=rng.random() < 0.3,
        isShownInList=rng.random() < 0.8,
        isShownInEdit=rng.random() < 0.8,
        numberOfRows=rng.choice([4, 10]) if multiline and rng.random() < 0.3 else None,
        displayNames=_localized(rng, langs, name),
    )


def _random_constraints(rng: random.Random, fields: list[Field],
                        langs: list[str]) -> tuple[Constraint, ...]:
    constraints = []
    n_unique = rng.randint(0, 2)
    for _ in range(n_unique):
        chosen = rng.sample(fields, k=min(len(fields), rng.randint(1, 3)))
        constraint = Constraint(
            kind=ConstraintKind.UNIQUE,
            kind_token="Unique",
            cfields=tuple(f.name for f in chosen),
            errorMessages=_localized(rng, langs, "must be unique"),
        )
        # two with one field list share a name, E_DUP_CONSTRAINT; the second
        # is drawn as before and left out, so the draws after it are the same
        if all(c.cfields != constraint.cfields for c in constraints):
            constraints.append(constraint)

    dates = [f for f in fields if f.type in DATE_TYPES]
    others = [f for f in fields if f.type not in DATE_TYPES]
    used_pairs = set()
    for _ in range(rng.randint(0, 3)):
        family = rng.choice([dates, others])
        if len(family) < 2:
            continue
        first, second = rng.sample(family, k=2)
        if (first.name, second.name) in used_pairs:
            continue
        used_pairs.add((first.name, second.name))
        rel = rng.choice(list(RelationshipOp))
        constraints.append(Constraint(
            kind=ConstraintKind.TWO_FIELDS,
            kind_token="TwoFields",
            relationship=rel,
            rel_token=rel.value,
            cfields=(first.name, second.name),
            errorMessages=_localized(rng, langs, "fields must compare"),
        ))
    return tuple(constraints)


def random_model(rng: random.Random, max_entities: int = 20, max_fields: int = 30,
                 force_size: tuple[int, int] | None = None) -> ApplicationModel:
    langs = rng.sample(_LANGS, k=rng.randint(1, len(_LANGS)))
    if force_size is not None:
        n_entities, n_fields = force_size
    else:
        # skewed towards small models; large ones still occur
        n_entities = min(max_entities, 1 + int(rng.expovariate(1 / 3.0)))
        n_fields = min(max_fields, 1 + int(rng.expovariate(1 / 5.0)))

    entities = []
    for i in range(n_entities):
        stem = rng.choice(_WORDS)
        name = f"{stem}{i}"
        fields = [Field(name="ID", type=FieldType.INT, type_token="int",
                        isPK=True, isIdentity=rng.random() < 0.8,
                        isShownInList=False,
                        displayNames=_localized(rng, langs, "ID"))]
        for j in range(n_fields):
            fields.append(_random_field(rng, f"{stem}Attr{j}", langs))
        entities.append(Entity(
            name=name,
            tableName=name,
            isLogged=rng.random() < 0.5,
            isActive=rng.random() > 0.15,
            displayNames=_localized(rng, langs, name),
            pluralNames=_localized(rng, langs, f"{name}s"),
            fields=tuple(fields),
            constraints=_random_constraints(rng, fields, langs),
        ))

    default = rng.choice(langs) if rng.random() < 0.8 else None
    return ApplicationModel(
        settings=Settings(appName="Randomized", defaultLanguage=default),
        entities=tuple(entities),
        languages=tuple(langs),
    )


# ---------------------------------------------------------------------------
# models as XML documents

# An element of a document before it is written out: [tag, [(name, value), ...],
# [children], text]. Lists, so that tests can mutate a document's shape.
Element = list


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _language_blocks(texts: dict[str, LocalizedText]) -> list[Element]:
    """One Language block per language, with that language's text of each tag."""
    blocks: dict[str, Element] = {}
    for tag, localized in texts.items():
        for lang, text in localized.entries:
            block = blocks.setdefault(lang, ["Language", [("name", lang)], [], ""])
            block[2].append([tag, [], [], text])
    return list(blocks.values())


def _merge(rng: random.Random, *groups: list) -> list:
    """The items of every group, interleaved at random; each group keeps its order."""
    out: list = []
    queues = [list(g) for g in groups if g]
    while queues:
        queue = rng.choice(queues)
        out.append(queue.pop(0))
        if not queue:
            queues.remove(queue)
    return out


def _shuffled(rng: random.Random, attributes: list[tuple[str, str]]) -> list[tuple[str, str]]:
    rng.shuffle(attributes)
    return attributes


def _field_element(rng: random.Random, field: Field) -> Element:
    attributes = [("name", field.name), ("type", field.type_token),
                  ("nullable", _flag(field.nullable))]
    if field.length is not None:
        attributes.append(("length", str(field.length)))
    for name in ("isPK", "isIdentity"):
        if getattr(field, name):
            attributes.append((name, "true"))
    for name in ("isShownInList", "isShownInEdit"):
        if not getattr(field, name):
            attributes.append((name, "false"))
    if field.numberOfRows is not None:
        attributes.append(("numberOfRows", str(field.numberOfRows)))
    return ["Field", _shuffled(rng, attributes),
            _language_blocks({"DisplayName": field.displayNames}), ""]


def _constraint_element(rng: random.Random, constraint: Constraint) -> Element:
    attributes = [("type", constraint.kind_token)]
    if constraint.rel_token is not None:
        attributes.append(("relationship", constraint.rel_token))
    cfields = [["CField", [("name", name)], [], ""] for name in constraint.cfields]
    blocks = _language_blocks({"ErrorMessage": constraint.errorMessages})
    return ["Constraint", _shuffled(rng, attributes), _merge(rng, cfields, blocks), ""]


def model_element(rng: random.Random, model: ApplicationModel) -> Element:
    """`model` as the root element of a document, with attributes in random
    order and each element's Language blocks at random places among its children."""
    settings = [("appName", model.settings.appName)]
    if model.settings.defaultLanguage is not None:
        settings.append(("defaultLanguage", model.settings.defaultLanguage))
    entities = []
    for entity in model.entities:
        attributes = [("name", entity.name), ("tableName", entity.tableName),
                      ("isLogged", _flag(entity.isLogged)), ("isActive", _flag(entity.isActive))]
        blocks = _language_blocks({"DisplayName": entity.displayNames,
                                   "PluralName": entity.pluralNames})
        children = _merge(rng, blocks, [_field_element(rng, f) for f in entity.fields],
                          [_constraint_element(rng, c) for c in entity.constraints])
        entities.append(["Entity", _shuffled(rng, attributes), children, ""])
    return ["xsource", [], [["Settings", _shuffled(rng, settings), [], ""],
                            ["EntityConfig", [], entities, ""]], ""]


def _escaped(text: str) -> str:
    # `]]>` may not stand in character data, so its `>` is escaped as well
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
            .replace("]]>", "]]&gt;"))


def to_xml(root: Element) -> str:
    """The document text of `root`, one start tag per line, indented by depth."""
    out = ['<?xml version="1.0" encoding="utf-8"?>']

    def write(element: Element, depth: int) -> None:
        tag, attributes, children, text = element
        out.append("\n" + "  " * depth + "<" + tag)
        out.extend(f' {name}="{_escaped(value)}"' for name, value in attributes)
        if not children and not text:
            out.append("/>")
            return
        out.append(">" + _escaped(text))
        for child in children:
            write(child, depth + 1)
        if children:
            out.append("\n" + "  " * depth)
        out.append(f"</{tag}>")

    write(root, 0)
    return "".join(out) + "\n"
