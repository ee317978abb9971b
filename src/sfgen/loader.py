"""Binding of model documents to ApplicationModel, and model validation.

`bind_model` binds each element while `Document.parse` reads it, so no
document tree is built; it is the only way a model is bound. Each element's
attributes are read by a function generated from its table, and a Language
block's frame takes its texts with no frame of their own. Only malformed
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
from typing import Any, Callable, Iterable, Mapping, Optional

from .model import (
    AUDIT_COLUMNS,
    KEY_LENGTH,
    SPAN_CONTENT,
    ApplicationModel,
    Caching,
    Constraint,
    ConstraintKind,
    EMPTY_TEXT,
    Entity,
    Field,
    FieldType,
    LocalizedText,
    MULTILINE_TYPES,
    RelationshipOp,
    SIZED_STRING_TYPES,
    Settings,
    _builder,
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
E_DUP_FIELD = "E_DUP_FIELD"
E_DUP_CONSTRAINT = "E_DUP_CONSTRAINT"
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
E_BAD_IDENT = "E_BAD_IDENT"


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


# One table per element: each XML attribute it binds, with its rows. A row
# names a reader and, when it differs from the attribute, the model keyword it
# binds. A reader raises ValueError(code, expected) for a value it cannot read.
# Each table is generated into one function, as `model._builder` generates
# builders: reader(binder, out, attributes, offset, subject) returns the model
# keyword arguments read from an element's attributes. Unknown attributes,
# found by one set test, are warned about first, in document order; the others
# are read in table order, each through its rows in order, inline: a `str`
# interned, a `_bool` as two compares. An attribute that is absent or cannot
# be read is left out, so the model type's default applies.
_Reader = Callable[["_Binder", list[Diagnostic], dict[str, str], int, str], dict[str, Any]]


def _table(*rows: tuple) -> _Reader:
    reads: dict[str, list[tuple[str, Callable[[str], Any]]]] = {}
    for attr, read, *keyword in rows:
        reads.setdefault(attr, []).append((keyword[0] if keyword else attr, read))
    namespace = {"known": frozenset(reads), "W_UNKNOWN_ATTR": W_UNKNOWN_ATTR,
                 "WARNING": Severity.WARNING, "ERROR": Severity.ERROR}
    lines = ["def reader(binder, out, attributes, offset, subject):",
             "    if not attributes.keys() <= known:",
             "        for attr in attributes:",
             "            if attr not in known:",
             "                binder.diag(out, W_UNKNOWN_ATTR, WARNING,"
             " f\"unknown attribute '{attr}' ignored\", offset, subject, attr)",
             "    kwargs, strings = {}, binder.strings"]
    for attr, attr_reads in reads.items():
        lines += [f"    if {attr!r} in attributes:", f"        raw = attributes[{attr!r}]"]
        if str in (read for _, read in attr_reads):
            lines.append("        raw = strings.setdefault(raw, raw)")
        for keyword, read in attr_reads:
            store = f"kwargs[{keyword!r}] = "
            if read is str:
                lines.append(f"        {store}raw")
                continue
            namespace[name := f"read{len(namespace)}"] = read
            indent = "        "
            if read is _bool:
                lines += [f"        if raw == 'true': {store}True",
                          f"        elif raw == 'false': {store}False", "        else:"]
                indent += "    "
            lines += [f"{indent}try: {store}{name}(raw)", f"{indent}except ValueError as exc:",
                      f"{indent}    binder.diag(out, exc.args[0], ERROR, f\"attribute '{attr}'"
                      f" must be {{exc.args[1]}}, got '{{raw}}'\", offset, subject, {attr!r})"]
    exec("\n".join([*lines, "    return kwargs"]), namespace)
    return namespace["reader"]


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

_build_entity, _build_field, _build_constraint, _build_text = map(
    _builder, (Entity, Field, Constraint, LocalizedText))

# What a load records of an entity, by its key, so that a later load can take
# the same source as a stub: the length of its source, the languages it
# declares in binding order, and the entities its FK fields name.
Summary = tuple[int, tuple[str, ...], tuple[str, ...]]


class _Binder:
    """What binding a document produces, and the reporting that the frames of
    its elements share; the consumer of the document itself.

    Each open element but a text has a frame that consumes its content (a
    Language block's frame its texts' too): it decides what each child binds
    to, holds only what binding its element still needs, and is dropped when
    the element closes. Frames refer to the binder and it to none of them, so
    they form no cycle: reference counting frees them with the collector paused.
    """

    def __init__(self, document: Document, recorded: Optional[Mapping[str, Summary]] = None,
                 summaries: Optional[dict[str, Summary]] = None) -> None:
        self.document = document  # for locations
        # each string attribute value as first read, to replace later reads of
        # it: a name, type token or language name exists once per load
        self.strings: dict[str, str] = {}
        self.diagnostics: list[Diagnostic] = []
        self.languages: list[str] = []
        self.settings = Settings()
        self.entities: list[Entity] = []
        self.recorded = recorded  # the summaries of sources a clean load bound
        self.summaries = summaries  # to fill with each entity's

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

    def declare(self, languages: Iterable[str]) -> None:
        for name in languages:
            if name not in self.languages:
                self.languages.append(name)

    def stub(self, attributes: dict[str, str], offset: int, out: list[Diagnostic]) -> int:
        """Where the Entity element at offset has a recorded source, add its
        stub and return the element's end; else 0.

        Its source is taken to end at the first Entity end tag; a recorded one
        is an element a clean load bound, and it is read the same wherever it
        starts, so the element ends there too. Where a comment in the element
        holds an Entity end tag, it has no recorded source, and is bound in full.
        """
        text = self.document.text
        close = text.find("</Entity", offset)
        end = text.find(">", close) + 1 if close >= 0 else 0
        digest = hashlib.sha256(text[offset:end].encode("utf-8")).hexdigest()
        key = digest[:KEY_LENGTH]
        summary = self.recorded.get(key)
        if summary is None or summary[0] != end - offset:
            return 0
        entity = _build_entity(**_ENTITY(self, out, attributes, offset,
                                         f"Entity[{attributes.get('name', '')}]"),
                               location=self.document.location(offset), digest=digest,
                               span=_Span(self.document, offset, summary[2]))
        for slot in SPAN_CONTENT:
            object.__delattr__(entity, slot)
        self.entities.append(entity)
        self.declare(summary[1])
        if self.summaries is not None:
            self.summaries[key] = summary
        return end

    def ignore(self, out: list[Diagnostic], tag: str, offset: int, subject: str,
               message: str = "") -> _Frame:
        """Warn about an element that binds nothing; returns the frame that ignores it."""
        self.diag(out, W_UNKNOWN_ELEM, Severity.WARNING,
                  message or f"unknown element '{tag}' ignored", offset, subject)
        return _IGNORED


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
        binder.settings = Settings(**_SETTINGS(binder, binder.diagnostics, attributes, offset,
                                               "Settings"))
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

    def child(self, tag: str, attributes: dict[str, str], offset: int) -> _Frame | int:
        if tag == "Entity":
            if self.binder.recorded and (end := self.binder.stub(attributes, offset, self.out)):
                return end
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
    read: _Reader  # of its table
    text_tags: tuple[str, ...]

    def __init__(self, binder: _Binder, pending: _Pending, subject: str,
                 attributes: dict[str, str], offset: int):
        self.binder = binder
        self.pending = pending
        self.subject = subject
        self.kwargs = self.read(binder, pending.diagnostics, attributes, offset, subject)
        self.kwargs["location"] = binder.document.location(offset)
        # per text tag with a text, language -> text; in one block the first text
        # of a tag counts, and a later block of the same language replaces it
        self.texts: dict[str, dict[str, str]] = {}

    def child(self, tag: str, attributes: dict[str, str], offset: int) -> _Frame:
        if tag == "Language":
            return _Language(self, attributes, offset)
        return self.binder.ignore(self.pending.diagnostics, tag, offset, self.subject)

    def localized(self, tag: str) -> LocalizedText:
        entries = self.texts.get(tag)
        return _build_text(entries=tuple(entries.items())) if entries else EMPTY_TEXT


class _Language(_Frame):
    """A Language block of an Entity, Field or Constraint: the texts of its
    owner's text tags in the block's language. It consumes its texts' content
    too, `tag` naming the open one, whose children are ignored."""

    __slots__ = ("owner", "name", "offset", "taken", "tag")

    def __init__(self, owner: _Element, attributes: dict[str, str], offset: int):
        self.owner = owner
        self.name = _NAME(owner.binder, owner.pending.diagnostics, attributes, offset,
                          owner.subject).get("name", "")
        if self.name:
            owner.pending.languages.append(self.name)
        self.offset = offset
        self.taken: tuple[str, ...] = ()  # the text tags read in this block
        self.tag: Optional[str] = None

    def child(self, tag: str, attributes: dict[str, str], offset: int) -> _Frame:
        owner = self.owner
        if self.tag is not None:
            return _IGNORED
        if tag not in owner.text_tags:
            return owner.binder.ignore(owner.pending.diagnostics, tag, offset, owner.subject)
        if tag in self.taken:
            return _IGNORED
        self.taken += (tag,)
        self.tag = tag
        return self

    def close(self, text: str, end: int) -> None:
        tag, self.tag = self.tag, None
        if tag is None:  # the block closes
            return
        owner = self.owner
        entries = owner.texts.setdefault(tag, {})
        if self.name in entries:
            owner.binder.diag(owner.pending.diagnostics, W_DUP_LANG, Severity.WARNING,
                              f"duplicate {tag} for language '{self.name}'; last one wins",
                              self.offset, owner.subject)
            del entries[self.name]
        entries[self.name] = text.strip()


class _Entity(_Element):
    """An entity's diagnostics and languages come in this order: its own (its
    attributes, Language blocks and unknown children), its fields', then its
    constraints'."""

    __slots__ = ("out", "offset", "for_fields", "for_constraints", "fields", "constraints")
    read = staticmethod(_ENTITY)
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
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        fields = tuple(self.fields)
        binder.entities.append(_build_entity(
            **self.kwargs, displayNames=self.localized("DisplayName"),
            pluralNames=self.localized("PluralName"), fields=fields,
            constraints=tuple(self.constraints), digest=digest))
        for pending in (self.pending, self.for_fields, self.for_constraints):
            self.out += pending.diagnostics
            binder.declare(pending.languages)
        if binder.summaries is not None:
            languages = self.pending.languages + self.for_fields.languages \
                + self.for_constraints.languages
            binder.summaries[digest[:KEY_LENGTH]] = (
                len(source), tuple(dict.fromkeys(languages)),
                tuple(field.fkEntityName for field in fields if field.isFK))


class _Field(_Element):
    __slots__ = ("entity",)
    read = staticmethod(_FIELD)
    text_tags = ("DisplayName",)

    def __init__(self, entity: _Entity, attributes: dict[str, str], offset: int):
        super().__init__(entity.binder, entity.for_fields,
                         f"{entity.subject}/Field[{attributes.get('name', '')}]",
                         attributes, offset)
        self.entity = entity

    def close(self, text: str, end: int) -> None:
        self.entity.fields.append(_build_field(**self.kwargs,
                                               displayNames=self.localized("DisplayName")))


class _Constraint(_Element):
    """A constraint's CFields are read after its other children."""

    __slots__ = ("entity", "cfields")
    read = staticmethod(_CONSTRAINT)
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
        cfields = tuple(_NAME(self.binder, self.pending.diagnostics, attributes, offset,
                              self.subject).get("name", "") for attributes, offset in self.cfields)
        self.entity.constraints.append(_build_constraint(
            **self.kwargs, errorMessages=self.localized("ErrorMessage"), cfields=cfields))


class _Span:
    """A stub's binder: it binds the Entity element at `offset` of `document`
    in full. `targets` are the entities its FK fields name, from its summary."""

    __slots__ = ("document", "offset", "targets")

    def __init__(self, document: Document, offset: int, targets: tuple[str, ...]):
        self.document = document
        self.offset = offset
        self.targets = targets

    def __call__(self) -> Entity:
        return bind_entity(self.document, self.offset)


def bind_entity(document: Document, offset: int) -> Entity:
    """The Entity element at `offset` of a document that was loaded, bound."""
    binder = _Binder(document)
    document.parse_element(offset, _EntityConfig(binder, binder.diagnostics))
    return binder.entities[0]


def bind_model(document: Document, recorded: Optional[Mapping[str, Summary]] = None,
               summaries: Optional[dict[str, Summary]] = None,
               ) -> tuple[ApplicationModel, list[Diagnostic]]:
    """Map a decoded document to an ApplicationModel, best-effort, binding
    each element while the document is parsed. Raises ParseError on malformed
    XML. Returns the model together with every lexical diagnostic; the model
    is usable (for further validation and reporting) even when errors are
    present.

    An Entity element whose source has a summary in `recorded`, by its key, is
    not read: it is a stub (see `Entity.span`), and its summary is taken as it
    is. `summaries`, where given, gets the summary of each entity, by its key.
    """
    binder = _Binder(document, recorded, summaries)
    document.parse(binder)
    return binder.model()


def _err(code: str, message: str, location, subject: str) -> Diagnostic:
    return Diagnostic(code, Severity.ERROR, message, location, subject)


# Reserved in JavaScript, strict code included, since a generated class body
# is strict: an entity or field name that is one would name a class or member.
_JS_RESERVED = frozenset("""await break case catch class const continue debugger default delete do
    else enum export extends false finally for function if implements import in instanceof
    interface let new null package private protected public return static super switch this
    throw true try typeof var void while with yield eval arguments""".split())


def _bad_ident(what: str, name: str, location, subject: str, js=True) -> Optional[Diagnostic]:
    """E_BAD_IDENT unless `name` is an ASCII identifier, so one whole path step
    and a legal name in each generated language, and, if `js`, not reserved in JS."""
    if not (name.isascii() and name.isidentifier()):
        reason = "is not an identifier ([A-Za-z_][A-Za-z0-9_]*)"
    elif js and name in _JS_RESERVED:
        reason = "is a reserved word in JavaScript"
    else:
        return None
    return _err(E_BAD_IDENT, f"{what} '{name}' {reason}", location, subject)


def _validate_field(field: Field, entity_names: set[str], subject: str) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    loc = field.location
    if not field.name:
        out.append(_err(E_MISSING_ATTR, "Field requires a 'name' attribute", loc, subject))
    elif bad := _bad_ident("field name", field.name, loc, subject):
        out.append(bad)
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


def _duplicate(what: str, name: str, first: str) -> str:
    if name == first:
        return f"duplicate {what} '{name}'"
    return f"duplicate {what} '{name}': it differs from '{first}' only in case"


def validate_model(model: ApplicationModel) -> list[Diagnostic]:
    """Check every semantic rule; an empty result means the model is valid.
    Names are compared case-folded, as SQL Server's default collation and the
    macOS and Windows file systems compare them."""
    out: list[Diagnostic] = []

    default_lang = model.settings.defaultLanguage
    if default_lang is not None and default_lang not in model.languages:
        out.append(_err(E_BAD_DEFAULT_LANG,
                        f"defaultLanguage '{default_lang}' is not declared by any Language element",
                        None, "Settings"))

    entity_names = {entity.name for entity in model.entities}  # what an FK may target
    seen_names: dict[str, str] = {}  # each name case-folded -> the first such name
    seen_tables: dict[str, str] = {}
    for entity in model.entities:
        subject = f"Entity[{entity.name}]"
        if not entity.name:
            out.append(_err(E_MISSING_ATTR, "Entity requires a 'name' attribute",
                            entity.location, subject))
        elif bad := _bad_ident("entity name", entity.name, entity.location, subject):
            out.append(bad)
        elif (folded := entity.name.casefold()) in seen_names:
            out.append(_err(E_DUP_ENTITY, _duplicate("entity name", entity.name,
                                                     seen_names[folded]), entity.location, subject))
        else:
            seen_names[folded] = entity.name
        if not entity.tableName:
            out.append(_err(E_MISSING_ATTR, "Entity requires a 'tableName' attribute",
                            entity.location, subject))
        elif bad := _bad_ident("tableName", entity.tableName, entity.location, subject, js=False):
            out.append(bad)
        elif (folded := entity.tableName.casefold()) in seen_tables:
            out.append(_err(E_DUP_TABLE, _duplicate("tableName", entity.tableName,
                                                    seen_tables[folded]), entity.location, subject))
        else:
            seen_tables[folded] = entity.tableName
        if entity.span is not None and entity_names.issuperset(entity.span.targets):
            continue  # a stub whose source loaded clean, and every entity it names exists

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

        # each field is a column of its name, and a logged entity's table has the audit columns
        audit = {c.name.casefold(): c.name for c in AUDIT_COLUMNS} if entity.isLogged else {}
        seen_fields: dict[str, str] = {}
        for field in entity.fields:
            field_subject = f"{subject}/Field[{field.name}]"
            out.extend(_validate_field(field, entity_names, field_subject))
            folded = field.name.casefold()
            if not folded:
                continue  # a missing name
            if folded in audit:
                message = (f"field name '{field.name}' is the name of the audit column "
                           f"'{audit[folded]}' of a logged entity")
            elif folded in seen_fields:
                message = _duplicate("field name", field.name, seen_fields[folded])
            else:
                seen_fields[folded] = field.name
                continue
            out.append(_err(E_DUP_FIELD, message, field.location, field_subject))
        seen_constraints: dict[str, str] = {}
        for i, constraint in enumerate(entity.constraints, start=1):
            constraint_subject = f"{subject}/Constraint[{i}]"
            out.extend(_validate_constraint(constraint, entity, constraint_subject))
            name = _constraint_name(constraint, entity)
            folded = name.casefold()
            if name and folded in seen_constraints:
                out.append(_err(E_DUP_CONSTRAINT, _duplicate("constraint name", name,
                                                              seen_constraints[folded]),
                                constraint.location, constraint_subject))
            elif name:
                seen_constraints[folded] = name
    return out


def _constraint_name(constraint: Constraint, entity: Entity) -> str:
    """The name constraints.sql gives the constraint; "" where it has none."""
    if constraint.kind is ConstraintKind.UNIQUE and constraint.cfields:
        return f"UQ_tbl_{entity.tableName}_{'_'.join(constraint.cfields)}"
    if constraint.kind is ConstraintKind.TWO_FIELDS and len(constraint.cfields) == 2:
        return f"CK_tbl_{entity.tableName}_{'_'.join(constraint.cfields)}"
    return ""


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


def load_document(document: Document, recorded: Optional[Mapping[str, Summary]] = None,
                  summaries: Optional[dict[str, Summary]] = None,
                  ) -> tuple[ApplicationModel, list[Diagnostic]]:
    """Parse, bind and validate a decoded document. Raises ParseError on
    malformed XML.

    The model is bound while the document is parsed, so no element outlives
    its closing tag: memory is the model plus the document text. The model is
    acyclic, so the collector is paused: on large models its passes over the
    growing model took close to half the time.

    `recorded` and `summaries` are as for bind_model; the summaries of a load
    are to be recorded only where it gave no diagnostics. A stub's source
    bound clean before, so only an FK to an entity the model lacks can make it
    wrong: validation binds such a stub in place and checks it in full, and
    the load gives the diagnostics of a full load.
    """
    with paused_gc():
        model, diagnostics = bind_model(document, recorded, summaries)
        diagnostics.extend(validate_model(model))
    return model, diagnostics
