"""Binding of model documents to ApplicationModel, and model validation.

`bind_model` binds each element while `Document.parse` reads it, so no
document tree is built; it is the only way a model is bound. Only malformed
XML raises (ParseError). Binding is otherwise best-effort: it always returns a
model plus the diagnostics collected on the way, so a single run can report
every problem. Lexical issues (bad booleans, unknown attributes) are caught
while binding; semantic rules (key multiplicity, reference resolution,
constraint shape) live in `validate_model`, which works on the bound model
using the source locations captured on each element.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional

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
)
from .xmlsubset import Document


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"
    ADVICE = "advice"


@dataclass(frozen=True, slots=True)
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


def _members(enum: type[Enum]) -> Callable[[str], Optional[Enum]]:
    """A reader of `enum`'s member with a token as its value, None for any
    other token; a dict lookup, ten times as fast as calling `enum`."""
    return {member.value: member for member in enum}.get


_caching_member = _members(Caching)


def _caching(raw: str) -> Caching:
    if (caching := _caching_member(raw)) is None:
        raise ValueError(E_BAD_ENUM, "'enabled' or 'disabled'")
    return caching


# One table per element: each XML attribute it binds, with the attribute's rank
# in the table and its rows. A row names a reader and, when it differs from the
# attribute, the model keyword it binds. An element's attributes are read in
# table order, each through its rows in order; a reader raises
# ValueError(code, expected) for a value it cannot read.
_Reads = tuple[tuple[str, Callable[[str], Any]], ...]
_Table = dict[str, tuple[int, str, _Reads]]


def _table(*rows: tuple) -> _Table:
    reads: dict[str, list[tuple[str, Callable[[str], Any]]]] = {}
    for attr, read, *keyword in rows:
        reads.setdefault(attr, []).append((keyword[0] if keyword else attr, read))
    return {attr: (rank, attr, tuple(attr_reads))
            for rank, (attr, attr_reads) in enumerate(reads.items())}


_SETTINGS = _table(("appName", str), ("defaultLanguage", str), ("connectionStringName", str))
_ENTITY = _table(
    ("name", str), ("tableName", str), ("caching", _caching),
    ("isAudited", _bool), ("isLogged", _bool), ("isActive", _bool),
)
_FIELD = _table(
    ("name", str), ("type", str, "type_token"), ("type", _members(FieldType)),
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
    ("type", str, "kind_token"), ("type", _members(ConstraintKind), "kind"),
    ("relationship", str, "rel_token"), ("relationship", _members(RelationshipOp)),
)
_NAME = _table(("name", str))  # Language and CField


class _Binder:
    """What binding a document produces, and the reading and reporting that
    the frames of its elements share; the consumer of the document itself.

    Each open element has a frame that consumes its content: it decides what
    each child binds to, holds only what binding its element still needs, and
    is dropped when the element closes. Frames refer to the binder and it to
    none of them, so they form no cycle: reference counting frees them with
    the collector paused.
    """

    def __init__(self, document: Document) -> None:
        self.document = document  # for locations
        # the first string read for each attribute value, which every later
        # read of that value is replaced by: each name, type token and
        # language name exists once per load, however many elements carry it
        self.strings: dict[str, str] = {}
        self.diagnostics: list[Diagnostic] = []
        self.languages: list[str] = []
        self.settings = Settings()
        self.entities: list[Entity] = []

    def model(self) -> tuple[ApplicationModel, list[Diagnostic]]:
        model = ApplicationModel(settings=self.settings, entities=tuple(self.entities),
                                 languages=tuple(self.languages))
        return model, self.diagnostics

    def child(self, tag: str, attributes: dict[str, str], offset: int) -> _Frame:
        """The document's one child: the root element."""
        if tag == "xsource":
            return _Root(self, offset)
        self.diag(self.diagnostics, E_DOC_SHAPE, Severity.ERROR,
                  f"root element must be 'xsource', got '{tag}'", offset, "")
        return _IGNORED

    def locate(self, offset: int, attr: Optional[str] = None) -> tuple[int, int]:
        """The location of the element at offset, or of its attribute `attr`."""
        if attr is not None:
            location = self.document.attribute_locations(offset).get(attr)
            if location is not None:
                return location
        return self.document.location(offset)

    def diag(self, out: list[Diagnostic], code: str, severity: Severity, message: str,
             offset: int, subject: str, attr: Optional[str] = None) -> None:
        out.append(Diagnostic(code, severity, message, self.locate(offset, attr), subject))

    def ignore(self, out: list[Diagnostic], tag: str, offset: int, subject: str,
               message: str = "") -> _Frame:
        """Warn about an element that binds nothing; returns the frame that ignores it."""
        self.diag(out, W_UNKNOWN_ELEM, Severity.WARNING,
                  message or f"unknown element '{tag}' ignored", offset, subject)
        return _IGNORED

    def attributes(self, out: list[Diagnostic], attributes: dict[str, str], offset: int,
                   table: _Table, subject: str) -> dict[str, Any]:
        """Model keyword arguments read from an element's attributes through `table`.

        Unknown attributes are warned about first, in document order; the
        others are read in table order. An attribute that is absent or cannot
        be read is left out, so the model type's default applies.
        """
        rows = []
        for attr in attributes:
            row = table.get(attr)
            if row is None:
                self.diag(out, W_UNKNOWN_ATTR, Severity.WARNING,
                          f"unknown attribute '{attr}' ignored", offset, subject, attr)
            else:
                rows.append(row)
        rows.sort()  # by rank, which no two rows share
        kwargs: dict[str, Any] = {}
        strings = self.strings
        for _, attr, reads in rows:
            raw = attributes[attr]
            raw = strings.setdefault(raw, raw)
            for keyword, read in reads:
                try:
                    kwargs[keyword] = read(raw)
                except ValueError as exc:
                    code, expected = exc.args
                    self.diag(out, code, Severity.ERROR,
                              f"attribute '{attr}' must be {expected}, got '{raw}'",
                              offset, subject, attr)
        return kwargs


class _Frame:
    """An open element: what its children bind to, and what its end binds.

    This base frame ignores the element and everything in it.
    """

    __slots__ = ()

    def child(self, tag: str, attributes: dict[str, str], offset: int) -> _Frame:
        return _IGNORED

    def close(self, text: str, end: int) -> None:
        pass


_IGNORED = _Frame()


class _Root(_Frame):
    """The xsource element. The first Settings and EntityConfig bind; the
    diagnostics of the EntityConfig's content come after all of the root's."""

    __slots__ = ("binder", "offset", "seen", "entity_diagnostics")

    def __init__(self, binder: _Binder, offset: int):
        self.binder = binder
        self.offset = offset
        self.seen: set[str] = set()
        self.entity_diagnostics: list[Diagnostic] = []

    def child(self, tag: str, attributes: dict[str, str], offset: int) -> _Frame:
        binder = self.binder
        if tag not in ("Settings", "EntityConfig"):
            return binder.ignore(binder.diagnostics, tag, offset, "")
        if tag in self.seen:
            return binder.ignore(binder.diagnostics, tag, offset, "",
                                 f"extra {tag} element ignored")
        self.seen.add(tag)
        if tag == "EntityConfig":
            return _EntityConfig(binder, self.entity_diagnostics)
        binder.settings = Settings(**binder.attributes(
            binder.diagnostics, attributes, offset, _SETTINGS, "Settings"))
        return _Settings(binder)

    def close(self, text: str, end: int) -> None:
        binder = self.binder
        if "EntityConfig" not in self.seen:
            binder.diag(binder.diagnostics, E_DOC_SHAPE, Severity.ERROR,
                        "document has no EntityConfig element", self.offset, "")
        binder.diagnostics += self.entity_diagnostics


class _Settings(_Frame):
    """Settings binds its attributes only; any child is warned about."""

    __slots__ = ("binder",)

    def __init__(self, binder: _Binder):
        self.binder = binder

    def child(self, tag: str, attributes: dict[str, str], offset: int) -> _Frame:
        return self.binder.ignore(self.binder.diagnostics, tag, offset, "Settings")


class _EntityConfig(_Frame):
    __slots__ = ("binder", "out")

    def __init__(self, binder: _Binder, out: list[Diagnostic]):
        self.binder = binder
        self.out = out

    def child(self, tag: str, attributes: dict[str, str], offset: int) -> _Frame:
        if tag == "Entity":
            return _Entity(self.binder, self.out, attributes, offset)
        return self.binder.ignore(self.out, tag, offset, "EntityConfig")


class _Pending:
    """Diagnostics and language names from binding part of an entity, held
    until the entity closes, so that they are reported in binding order."""

    __slots__ = ("diagnostics", "languages")

    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []
        self.languages: list[str] = []


class _Element(_Frame):
    """An Entity, Field or Constraint. Its attributes are read when it opens,
    its texts come from its Language blocks, and it is built when it closes."""

    __slots__ = ("binder", "pending", "subject", "kwargs", "texts")
    table: _Table
    text_tags: tuple[str, ...]

    def __init__(self, binder: _Binder, pending: _Pending, subject: str,
                 attributes: dict[str, str], offset: int):
        self.binder = binder
        self.pending = pending
        self.subject = subject
        self.kwargs = binder.attributes(pending.diagnostics, attributes, offset,
                                        self.table, subject)
        self.kwargs["location"] = binder.locate(offset)
        # per text tag, language -> text; within one block the first text of a
        # tag counts, and a later block of the same language replaces it
        self.texts: dict[str, dict[str, str]] = {tag: {} for tag in self.text_tags}

    def child(self, tag: str, attributes: dict[str, str], offset: int) -> _Frame:
        if tag == "Language":
            return _Language(self, attributes, offset)
        return self.binder.ignore(self.pending.diagnostics, tag, offset, self.subject)

    def localized(self, tag: str) -> LocalizedText:
        return build(LocalizedText, entries=tuple(self.texts[tag].items()))


class _Language(_Frame):
    """A Language block of an Entity, Field or Constraint: the texts of its
    owner's text tags in the block's language."""

    __slots__ = ("owner", "name", "offset", "taken")

    def __init__(self, owner: _Element, attributes: dict[str, str], offset: int):
        self.owner = owner
        self.name = owner.binder.attributes(owner.pending.diagnostics, attributes, offset,
                                            _NAME, owner.subject).get("name", "")
        if self.name:
            owner.pending.languages.append(self.name)
        self.offset = offset
        self.taken: set[str] = set()

    def child(self, tag: str, attributes: dict[str, str], offset: int) -> _Frame:
        owner = self.owner
        if tag not in owner.texts:
            return owner.binder.ignore(owner.pending.diagnostics, tag, offset, owner.subject)
        if tag in self.taken:
            return _IGNORED
        self.taken.add(tag)
        return _Text(self, tag)


class _Text(_Frame):
    """A DisplayName, PluralName or ErrorMessage in a Language block."""

    __slots__ = ("block", "tag")

    def __init__(self, block: _Language, tag: str):
        self.block = block
        self.tag = tag

    def close(self, text: str, end: int) -> None:
        block, owner = self.block, self.block.owner
        entries = owner.texts[self.tag]
        if block.name in entries:
            owner.binder.diag(owner.pending.diagnostics, W_DUP_LANG, Severity.WARNING,
                              f"duplicate {self.tag} for language '{block.name}'; last one wins",
                              block.offset, owner.subject)
            del entries[block.name]
        entries[block.name] = text.strip()


class _Entity(_Element):
    """An entity's diagnostics and languages come in this order: its own (its
    attributes, Language blocks and unknown children), its fields', then its
    constraints'."""

    __slots__ = ("out", "offset", "for_fields", "for_constraints", "fields", "constraints")
    table = _ENTITY
    text_tags = ("DisplayName", "PluralName")

    def __init__(self, binder: _Binder, out: list[Diagnostic], attributes: dict[str, str],
                 offset: int):
        super().__init__(binder, _Pending(), f"Entity[{attributes.get('name', '')}]",
                         attributes, offset)
        self.out = out
        self.offset = offset
        self.for_fields = _Pending()
        self.for_constraints = _Pending()
        self.fields: list[Field] = []
        self.constraints: list[Constraint] = []

    def child(self, tag: str, attributes: dict[str, str], offset: int) -> _Frame:
        if tag == "Field":
            return _Field(self, attributes, offset)
        if tag == "Constraint":
            return _Constraint(self, attributes, offset)
        return super().child(tag, attributes, offset)

    def close(self, text: str, end: int) -> None:
        binder = self.binder
        source = binder.document.text[self.offset:end]
        binder.entities.append(build(
            Entity, **self.kwargs, displayNames=self.localized("DisplayName"),
            pluralNames=self.localized("PluralName"), fields=tuple(self.fields),
            constraints=tuple(self.constraints),
            digest=hashlib.sha256(source.encode("utf-8")).hexdigest()))
        for pending in (self.pending, self.for_fields, self.for_constraints):
            self.out += pending.diagnostics
            for name in pending.languages:
                if name not in binder.languages:
                    binder.languages.append(name)


class _Field(_Element):
    __slots__ = ("entity",)
    table = _FIELD
    text_tags = ("DisplayName",)

    def __init__(self, entity: _Entity, attributes: dict[str, str], offset: int):
        super().__init__(entity.binder, entity.for_fields,
                         f"{entity.subject}/Field[{attributes.get('name', '')}]",
                         attributes, offset)
        self.entity = entity

    def close(self, text: str, end: int) -> None:
        self.entity.fields.append(build(Field, **self.kwargs,
                                        displayNames=self.localized("DisplayName")))


class _Constraint(_Element):
    """A constraint's CFields are read after its other children."""

    __slots__ = ("entity", "cfields")
    table = _CONSTRAINT
    text_tags = ("ErrorMessage",)

    def __init__(self, entity: _Entity, attributes: dict[str, str], offset: int):
        index = len(entity.constraints) + 1  # the constraints before it have closed
        super().__init__(entity.binder, entity.for_constraints,
                         f"{entity.subject}/Constraint[{index}]", attributes, offset)
        self.entity = entity
        self.cfields: list[tuple[dict[str, str], int]] = []

    def child(self, tag: str, attributes: dict[str, str], offset: int) -> _Frame:
        if tag == "CField":
            self.cfields.append((attributes, offset))
            return _IGNORED
        return super().child(tag, attributes, offset)

    def close(self, text: str, end: int) -> None:
        cfields = tuple(self.binder.attributes(self.pending.diagnostics, attributes, offset,
                                               _NAME, self.subject).get("name", "")
                        for attributes, offset in self.cfields)
        self.entity.constraints.append(build(
            Constraint, **self.kwargs, errorMessages=self.localized("ErrorMessage"),
            cfields=cfields))


def bind_model(document: Document) -> tuple[ApplicationModel, list[Diagnostic]]:
    """Map a decoded document to an ApplicationModel, best-effort, binding
    each element while the document is parsed. Raises ParseError on malformed
    XML. Returns the model together with every lexical diagnostic; the model
    is usable (for further validation and reporting) even when errors are
    present.
    """
    binder = _Binder(document)
    document.parse(binder)
    return binder.model()


def _err(code: str, message: str, location, subject: str) -> Diagnostic:
    return Diagnostic(code, Severity.ERROR, message, location, subject)


def _validate_field(field: Field, entity_names: set[str], subject: str) -> list[Diagnostic]:
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
        elif field.fkEntityName not in entity_names:
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

    entity_names = {entity.name for entity in model.entities}  # what an FK may target
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
            out.extend(_validate_field(field, entity_names, f"{subject}/Field[{field.name}]"))
        for i, constraint in enumerate(entity.constraints, start=1):
            out.extend(_validate_constraint(constraint, entity, f"{subject}/Constraint[{i}]"))
    return out


class paused_gc:
    """Pause the cyclic garbage collector for a block that builds mostly
    acyclic objects, and restore the caller's setting after it. Passes over
    such objects free nothing; reference counting frees them. Cyclic garbage
    made in the block waits for the first collection after it, which the
    block's own exit does not start: re-enabling is the last thing it does."""

    def __enter__(self) -> None:
        self.gc_was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self.gc_was_enabled:
            gc.enable()


def load_model(data: bytes) -> tuple[ApplicationModel, list[Diagnostic]]:
    """Decode, parse, bind and validate in one step. Raises ParseError on
    malformed XML. The caller's reference keeps the bytes alive until this
    returns; a caller that should not hold them decodes a Document itself and
    calls load_document."""
    return load_document(Document(data))


def load_document(document: Document) -> tuple[ApplicationModel, list[Diagnostic]]:
    """Parse, bind and validate a decoded document. Raises ParseError on
    malformed XML.

    The model is bound while the document is parsed, so no element outlives
    its closing tag: memory is the model plus the document text. The model is
    acyclic, so the collector is paused: on large models its passes over the
    growing model took close to half the time.
    """
    with paused_gc():
        model, diagnostics = bind_model(document)
        diagnostics.extend(validate_model(model))
    return model, diagnostics
