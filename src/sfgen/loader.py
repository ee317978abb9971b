"""Binding of parsed documents to ApplicationModel, and model validation.

Binding is best-effort: it never raises, always returns a model plus the
diagnostics collected on the way, so a single run can report every problem.
Lexical issues (bad booleans, unknown attributes) are caught while binding;
semantic rules (key multiplicity, reference resolution, constraint shape) live
in `validate_model`, which works on the bound model using the source locations
captured on each element.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Any, Callable, Iterator, Optional

from .model import (
    ApplicationModel,
    Caching,
    Constraint,
    ConstraintKind,
    Entity,
    Field,
    FieldType,
    LocalizedText,
    MULTILINE_TYPES,
    RelationshipOp,
    SIZED_STRING_TYPES,
    Settings,
    build,
    comparison_family,
    find_entity,
)
from .xmlsubset import XmlNode, parse_document


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"
    ADVICE = "advice"


@dataclass(frozen=True)
class Diagnostic:
    code: str
    severity: Severity
    message: str
    location: Optional[tuple[int, int]] = None
    subject: str = ""

    def __str__(self) -> str:
        loc = f" at {self.location[0]}:{self.location[1]}" if self.location else ""
        subj = f" [{self.subject}]" if self.subject else ""
        return f"{self.severity.value} {self.code}{loc}{subj}: {self.message}"


# binding (lexical) codes
E_DOC_SHAPE = "E_DOC_SHAPE"
E_BAD_BOOL = "E_BAD_BOOL"
E_BAD_INT = "E_BAD_INT"
E_BAD_ENUM = "E_BAD_ENUM"
W_UNKNOWN_ATTR = "W_UNKNOWN_ATTR"
W_UNKNOWN_ELEM = "W_UNKNOWN_ELEM"
W_DUP_LANG = "W_DUP_LANG"

# validation (semantic) codes
E_MISSING_ATTR = "E_MISSING_ATTR"
E_BAD_TYPE = "E_BAD_TYPE"
E_BAD_REL = "E_BAD_REL"
E_BAD_CONSTRAINT_KIND = "E_BAD_CONSTRAINT_KIND"
E_DUP_ENTITY = "E_DUP_ENTITY"
E_DUP_TABLE = "E_DUP_TABLE"
E_NO_FIELDS = "E_NO_FIELDS"
E_NO_PK = "E_NO_PK"
E_MULTI_PK = "E_MULTI_PK"
E_MULTI_IDENTITY = "E_MULTI_IDENTITY"
E_IDENTITY_NOT_PK = "E_IDENTITY_NOT_PK"
E_IDENTITY_TYPE = "E_IDENTITY_TYPE"
E_LENGTH = "E_LENGTH"
E_ROWS_COLS = "E_ROWS_COLS"
E_FK_TARGET = "E_FK_TARGET"
E_CONSTRAINT_ARITY = "E_CONSTRAINT_ARITY"
E_CONSTRAINT_FIELD = "E_CONSTRAINT_FIELD"
E_CONSTRAINT_FAMILY = "E_CONSTRAINT_FAMILY"
E_BAD_DEFAULT_LANG = "E_BAD_DEFAULT_LANG"


def _bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(E_BAD_BOOL, "'true' or 'false'")


def _positive_int(raw: str) -> int:
    if raw.isascii() and raw.isdigit() and (value := int(raw)) > 0:
        return value
    raise ValueError(E_BAD_INT, "a positive integer")


def _member(enum: type[Enum], token: str) -> Optional[Enum]:
    try:
        return enum(token)
    except ValueError:
        return None


def _caching(raw: str) -> Caching:
    if (caching := _member(Caching, raw)) is None:
        raise ValueError(E_BAD_ENUM, "'enabled' or 'disabled'")
    return caching


# One table per element. A row names an XML attribute, its reader and, when it
# differs from the attribute, the model keyword it binds. Rows are read in
# order; a reader raises ValueError(code, expected) for a value it cannot read.
_Table = tuple[tuple[tuple[str, str, Callable[[str], Any]], ...], frozenset[str]]


def _table(*rows: tuple) -> _Table:
    bound = tuple((attr, keyword[0] if keyword else attr, read) for attr, read, *keyword in rows)
    return bound, frozenset(attr for attr, _, _ in bound)


_SETTINGS = _table(("appName", str), ("defaultLanguage", str), ("connectionStringName", str))
_ENTITY = _table(
    ("name", str), ("tableName", str), ("caching", _caching),
    ("isAudited", _bool), ("isLogged", _bool), ("isActive", _bool),
)
_FIELD = _table(
    ("name", str), ("type", str, "type_token"), ("type", partial(_member, FieldType)),
    ("length", _positive_int), ("nullable", _bool), ("isPK", _bool), ("isIdentity", _bool),
    ("isFK", _bool), ("fkEntityName", str),
    # 'nameName' is an alias of 'fkName', read first so that 'fkName' wins
    ("nameName", str, "fkName"), ("fkName", str),
    ("isLookup", _bool), ("createLookup", _bool), ("isOVN", _bool), ("isAudited", _bool),
    ("isShownInList", _bool), ("isShownInEdit", _bool), ("isShownInHistory", _bool),
    ("description", str), ("defaultValue", str), ("displayFormat", str),
    ("numberOfRows", _positive_int), ("numberOfCols", _positive_int),
    ("displayName", str, "displayNameAttr"),
)
_CONSTRAINT = _table(
    ("type", str, "kind_token"), ("type", partial(_member, ConstraintKind), "kind"),
    ("relationship", str, "rel_token"), ("relationship", partial(_member, RelationshipOp)),
)
_NAME = _table(("name", str))  # Language and CField


class _Binder:
    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []
        self.languages: list[str] = []

    def diag(self, code: str, severity: Severity, message: str,
             node: XmlNode, subject: str, attr: Optional[str] = None) -> None:
        location = node.attribute_locations.get(attr, node.location) if attr else node.location
        self.diagnostics.append(Diagnostic(code, severity, message, location, subject))

    def warn_element(self, node: XmlNode, subject: str, message: str = "") -> None:
        self.diag(W_UNKNOWN_ELEM, Severity.WARNING,
                  message or f"unknown element '{node.tag}' ignored", node, subject)

    def attributes(self, node: XmlNode, table: _Table, subject: str) -> dict[str, Any]:
        """Model keyword arguments read from `node`'s attributes through `table`.

        An attribute that is absent or cannot be read is left out, so the
        model type's default applies.
        """
        rows, known = table
        attrs = node.attributes
        if not known.issuperset(attrs):
            for attr in attrs:
                if attr not in known:
                    self.diag(W_UNKNOWN_ATTR, Severity.WARNING,
                              f"unknown attribute '{attr}' ignored", node, subject, attr)
        kwargs: dict[str, Any] = {}
        for attr, keyword, read in rows:
            raw = attrs.get(attr)
            if raw is None:
                continue
            try:
                kwargs[keyword] = read(raw)
            except ValueError as exc:
                code, expected = exc.args
                self.diag(code, Severity.ERROR,
                          f"attribute '{attr}' must be {expected}, got '{raw}'",
                          node, subject, attr)
        return kwargs

    def children(self, node: XmlNode, allowed: tuple[str, ...], text_tags: tuple[str, ...],
                 subject: str) -> tuple[dict[str, list[XmlNode]], list[LocalizedText]]:
        """`node`'s children with an allowed tag, by tag, and one LocalizedText
        per tag in `text_tags`, read from its `Language` blocks.

        Other children, and other children of a `Language` block, are warned
        about. Within one block the first text of a tag counts; a later block
        of the same language replaces it.
        """
        found: dict[str, list[XmlNode]] = {tag: [] for tag in allowed}
        texts: dict[str, dict[str, str]] = {tag: {} for tag in text_tags}
        for child in node.children:
            if child.tag in found:
                found[child.tag].append(child)
            elif child.tag == "Language" and text_tags:
                self.language(child, texts, subject)
            else:
                self.warn_element(child, subject)
        return found, [build(LocalizedText, entries=tuple(texts[tag].items()))
                       for tag in text_tags]

    def language(self, block: XmlNode, texts: dict[str, dict[str, str]], subject: str) -> None:
        name = self.attributes(block, _NAME, subject).get("name", "")
        if name and name not in self.languages:
            self.languages.append(name)
        taken: set[str] = set()
        for child in block.children:
            entries = texts.get(child.tag)
            if entries is None:
                self.warn_element(child, subject)
            elif child.tag not in taken:
                taken.add(child.tag)
                if name in entries:
                    self.diag(W_DUP_LANG, Severity.WARNING,
                              f"duplicate {child.tag} for language '{name}'; last one wins",
                              block, subject)
                    del entries[name]
                entries[name] = child.text.strip()

    def bind_field(self, node: XmlNode, entity_subject: str) -> Field:
        subject = f"{entity_subject}/Field[{node.attributes.get('name', '')}]"
        kwargs = self.attributes(node, _FIELD, subject)
        _, (display_names,) = self.children(node, (), ("DisplayName",), subject)
        return build(Field, **kwargs, displayNames=display_names, location=node.location)

    def bind_constraint(self, node: XmlNode, index: int, entity_subject: str) -> Constraint:
        subject = f"{entity_subject}/Constraint[{index}]"
        kwargs = self.attributes(node, _CONSTRAINT, subject)
        found, (error_messages,) = self.children(node, ("CField",), ("ErrorMessage",), subject)
        return build(Constraint, **kwargs, errorMessages=error_messages, location=node.location,
                     cfields=tuple(self.attributes(c, _NAME, subject).get("name", "")
                                   for c in found["CField"]))

    def bind_entity(self, node: XmlNode) -> Entity:
        subject = f"Entity[{node.attributes.get('name', '')}]"
        kwargs = self.attributes(node, _ENTITY, subject)
        found, (display_names, plural_names) = self.children(
            node, ("Field", "Constraint"), ("DisplayName", "PluralName"), subject)
        return build(
            Entity, **kwargs, displayNames=display_names, pluralNames=plural_names,
            fields=tuple(self.bind_field(f, subject) for f in found["Field"]),
            constraints=tuple(self.bind_constraint(c, i, subject)
                              for i, c in enumerate(found["Constraint"], start=1)),
            location=node.location,
        )


def bind_model(root: XmlNode) -> tuple[ApplicationModel, list[Diagnostic]]:
    """Map a parsed document to an ApplicationModel, best-effort.

    Returns the model together with every lexical diagnostic; the model is
    usable (for further validation and reporting) even when errors are present.
    """
    binder = _Binder()
    settings = Settings()
    entities: list[Entity] = []

    if root.tag != "xsource":
        binder.diag(E_DOC_SHAPE, Severity.ERROR,
                    f"root element must be 'xsource', got '{root.tag}'", root, "")
    else:
        first: dict[str, XmlNode] = {}
        for child in root.children:
            if child.tag not in ("Settings", "EntityConfig"):
                binder.warn_element(child, "")
            elif child.tag in first:
                binder.warn_element(child, "", f"extra {child.tag} element ignored")
            else:
                first[child.tag] = child
                if child.tag == "Settings":
                    settings = Settings(**binder.attributes(child, _SETTINGS, "Settings"))
                    binder.children(child, (), (), "Settings")
        entity_config = first.get("EntityConfig")
        if entity_config is None:
            binder.diag(E_DOC_SHAPE, Severity.ERROR,
                        "document has no EntityConfig element", root, "")
        else:
            for child in entity_config.children:
                if child.tag == "Entity":
                    entities.append(binder.bind_entity(child))
                else:
                    binder.warn_element(child, "EntityConfig")

    model = ApplicationModel(
        settings=settings,
        entities=tuple(entities),
        languages=tuple(binder.languages),
    )
    return model, binder.diagnostics


def _err(code: str, message: str, location, subject: str) -> Diagnostic:
    return Diagnostic(code, Severity.ERROR, message, location, subject)


def _validate_field(field: Field, model: ApplicationModel, subject: str) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    loc = field.location
    if not field.name:
        out.append(_err(E_MISSING_ATTR, "Field requires a 'name' attribute", loc, subject))
    if field.type_token is None:
        out.append(_err(E_MISSING_ATTR, "Field requires a 'type' attribute", loc, subject))
    elif field.type is None:
        out.append(_err(E_BAD_TYPE, f"unknown field type '{field.type_token}'", loc, subject))

    if field.type is not None:
        sized = field.type in SIZED_STRING_TYPES
        if sized and field.length is None:
            out.append(_err(E_LENGTH, f"type '{field.type.value}' requires a length", loc, subject))
        if not sized and field.length is not None:
            out.append(_err(E_LENGTH, f"type '{field.type.value}' does not take a length", loc, subject))
        if field.isIdentity and field.type is not FieldType.INT:
            out.append(_err(E_IDENTITY_TYPE, "identity fields must have type 'int'", loc, subject))
        if (field.numberOfRows is not None or field.numberOfCols is not None) \
                and field.type not in MULTILINE_TYPES:
            out.append(_err(E_ROWS_COLS,
                            "numberOfRows/numberOfCols apply to textual types only", loc, subject))
    if field.isFK:
        if field.fkEntityName is None:
            out.append(_err(E_FK_TARGET, "isFK requires a 'fkEntityName' attribute", loc, subject))
        elif find_entity(model, field.fkEntityName) is None:
            out.append(_err(E_FK_TARGET,
                            f"fkEntityName '{field.fkEntityName}' does not name an entity",
                            loc, subject))
    return out


def _validate_constraint(constraint: Constraint, entity: Entity, subject: str) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    loc = constraint.location
    if constraint.kind is None:
        token = constraint.kind_token
        msg = f"unknown constraint type '{token}'" if token else "Constraint requires a 'type' attribute"
        out.append(_err(E_BAD_CONSTRAINT_KIND, msg, loc, subject))
        return out

    fields_by_name = {f.name: f for f in entity.fields}
    resolved: list[Field] = []
    for cfield in constraint.cfields:
        field = fields_by_name.get(cfield)
        if field is None:
            out.append(_err(E_CONSTRAINT_FIELD,
                            f"CField '{cfield}' does not name a field of this entity",
                            loc, subject))
        else:
            resolved.append(field)

    if constraint.kind is ConstraintKind.UNIQUE:
        if len(constraint.cfields) < 1:
            out.append(_err(E_CONSTRAINT_ARITY, "Unique constraint needs at least one CField",
                            loc, subject))
    else:  # TwoFields
        if constraint.rel_token is None:
            out.append(_err(E_MISSING_ATTR,
                            "TwoFields constraint requires a 'relationship' attribute", loc, subject))
        elif constraint.relationship is None:
            out.append(_err(E_BAD_REL, f"unknown relationship '{constraint.rel_token}'", loc, subject))
        if len(constraint.cfields) != 2:
            out.append(_err(E_CONSTRAINT_ARITY,
                            f"TwoFields constraint needs exactly 2 CFields, got {len(constraint.cfields)}",
                            loc, subject))
        elif len(resolved) == 2 and resolved[0].type is not None and resolved[1].type is not None:
            families = {comparison_family(f.type) for f in resolved}
            if len(families) > 1:
                out.append(_err(E_CONSTRAINT_FAMILY,
                                "TwoFields constraint mixes date and non-date fields", loc, subject))
    return out


def validate_model(model: ApplicationModel) -> list[Diagnostic]:
    """Check every semantic rule; an empty result means the model is valid."""
    out: list[Diagnostic] = []

    default_lang = model.settings.defaultLanguage
    if default_lang is not None and default_lang not in model.languages:
        out.append(_err(E_BAD_DEFAULT_LANG,
                        f"defaultLanguage '{default_lang}' is not declared by any Language element",
                        None, "Settings"))

    seen_names: dict[str, Entity] = {}
    seen_tables: dict[str, Entity] = {}
    for entity in model.entities:
        subject = f"Entity[{entity.name}]"
        if not entity.name:
            out.append(_err(E_MISSING_ATTR, "Entity requires a 'name' attribute",
                            entity.location, subject))
        elif entity.name in seen_names:
            out.append(_err(E_DUP_ENTITY, f"duplicate entity name '{entity.name}'",
                            entity.location, subject))
        else:
            seen_names[entity.name] = entity
        if not entity.tableName:
            out.append(_err(E_MISSING_ATTR, "Entity requires a 'tableName' attribute",
                            entity.location, subject))
        elif entity.tableName in seen_tables:
            out.append(_err(E_DUP_TABLE, f"duplicate tableName '{entity.tableName}'",
                            entity.location, subject))
        else:
            seen_tables[entity.tableName] = entity

        if not entity.fields:
            out.append(_err(E_NO_FIELDS, "Entity must declare at least one Field",
                            entity.location, subject))
        pk_fields = [f for f in entity.fields if f.isPK]
        if entity.fields and not pk_fields:
            out.append(_err(E_NO_PK, "Entity must declare exactly one primary-key field",
                            entity.location, subject))
        elif len(pk_fields) > 1:
            out.append(_err(E_MULTI_PK,
                            f"Entity declares {len(pk_fields)} primary-key fields; exactly one is allowed",
                            entity.location, subject))
        identity_fields = [f for f in entity.fields if f.isIdentity]
        if len(identity_fields) > 1:
            out.append(_err(E_MULTI_IDENTITY, "at most one field may be an identity",
                            entity.location, subject))
        for field in identity_fields:
            if not field.isPK:
                out.append(_err(E_IDENTITY_NOT_PK, "identity field must be the primary key",
                                field.location, f"{subject}/Field[{field.name}]"))

        for field in entity.fields:
            out.extend(_validate_field(field, model, f"{subject}/Field[{field.name}]"))
        for i, constraint in enumerate(entity.constraints, start=1):
            out.extend(_validate_constraint(constraint, entity, f"{subject}/Constraint[{i}]"))
    return out


@contextmanager
def paused_gc() -> Iterator[None]:
    """Pause the cyclic garbage collector for a block that builds only acyclic
    objects, and restore the caller's setting after it. Passes over such
    objects free nothing; reference counting frees them."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if gc_was_enabled:
            gc.enable()


def load_model(data: bytes) -> tuple[ApplicationModel, list[Diagnostic]]:
    """Parse, bind and validate in one step. Raises ParseError on malformed XML.

    The XML tree and the model are acyclic, so the collector is paused: on large
    models its passes over the growing trees took close to half the time.
    """
    with paused_gc():
        model, diagnostics = bind_model(parse_document(data))
        diagnostics.extend(validate_model(model))
    return model, diagnostics
