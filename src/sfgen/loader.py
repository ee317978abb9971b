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
from typing import Iterator, Optional

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

_ENTITY_ATTRS = {"name", "tableName", "caching", "isAudited", "isLogged", "isActive"}
_FIELD_ATTRS = {
    "name", "type", "length", "nullable", "isPK", "isIdentity", "isFK",
    "fkEntityName", "fkName", "nameName", "isLookup", "createLookup", "isOVN",
    "isAudited", "isShownInList", "isShownInEdit", "isShownInHistory",
    "description", "defaultValue", "displayFormat", "numberOfRows",
    "numberOfCols", "displayName",
}
_CONSTRAINT_ATTRS = {"type", "relationship"}
_SETTINGS_ATTRS = {"appName", "defaultLanguage", "connectionStringName"}

_FIELD_BOOL_DEFAULTS = {
    "nullable": False, "isPK": False, "isIdentity": False, "isFK": False,
    "isLookup": False, "createLookup": False, "isOVN": False, "isAudited": False,
    "isShownInList": True, "isShownInEdit": True, "isShownInHistory": True,
}


class _Binder:
    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []
        self.languages: list[str] = []

    def diag(self, code: str, severity: Severity, message: str,
             node: XmlNode, subject: str, attr: Optional[str] = None) -> None:
        location = node.attribute_locations.get(attr, node.location) if attr else node.location
        self.diagnostics.append(Diagnostic(code, severity, message, location, subject))

    def note_language(self, name: str) -> None:
        if name and name not in self.languages:
            self.languages.append(name)

    def read_bool(self, node: XmlNode, attr: str, default: bool, subject: str) -> bool:
        raw = node.attributes.get(attr)
        if raw is None:
            return default
        if raw == "true":
            return True
        if raw == "false":
            return False
        self.diag(E_BAD_BOOL, Severity.ERROR,
                  f"attribute '{attr}' must be 'true' or 'false', got '{raw}'",
                  node, subject, attr)
        return default

    def read_int(self, node: XmlNode, attr: str, subject: str) -> Optional[int]:
        raw = node.attributes.get(attr)
        if raw is None:
            return None
        if raw.isdigit() and (parsed := int(raw)) > 0:
            return parsed
        self.diag(E_BAD_INT, Severity.ERROR,
                  f"attribute '{attr}' must be a positive integer, got '{raw}'",
                  node, subject, attr)
        return None

    def warn_unknown(self, node: XmlNode, known: set[str], subject: str) -> None:
        for attr in node.attributes:
            if attr not in known:
                self.diag(W_UNKNOWN_ATTR, Severity.WARNING,
                          f"unknown attribute '{attr}' ignored", node, subject, attr)

    def localized(self, owner: XmlNode, child_tag: str, subject: str) -> LocalizedText:
        entries: list[tuple[str, str]] = []
        seen: set[str] = set()
        for lang in owner.find_all("Language"):
            name = lang.attributes.get("name", "")
            self.note_language(name)
            text_node = lang.find(child_tag)
            if text_node is None:
                continue
            if name in seen:
                self.diag(W_DUP_LANG, Severity.WARNING,
                          f"duplicate {child_tag} for language '{name}'; last one wins",
                          lang, subject)
                entries = [(n, t) for n, t in entries if n != name]
            seen.add(name)
            entries.append((name, text_node.text.strip()))
        return LocalizedText(tuple(entries))

    def note_language_children(self, owner: XmlNode, known_tags: set[str], subject: str) -> None:
        for lang in owner.find_all("Language"):
            for child in lang.children:
                if child.tag not in known_tags:
                    self.diag(W_UNKNOWN_ELEM, Severity.WARNING,
                              f"unknown element '{child.tag}' ignored", child, subject)

    def bind_field(self, node: XmlNode, entity_subject: str) -> Field:
        name = node.attributes.get("name", "")
        subject = f"{entity_subject}/Field[{name}]"
        self.warn_unknown(node, _FIELD_ATTRS, subject)
        for child in node.children:
            if child.tag != "Language":
                self.diag(W_UNKNOWN_ELEM, Severity.WARNING,
                          f"unknown element '{child.tag}' ignored", child, subject)
        self.note_language_children(node, {"DisplayName"}, subject)

        type_token = node.attributes.get("type")
        try:
            field_type = FieldType(type_token) if type_token is not None else None
        except ValueError:
            field_type = None

        bools = {
            attr: self.read_bool(node, attr, default, subject)
            for attr, default in _FIELD_BOOL_DEFAULTS.items()
        }
        return Field(
            name=name,
            type=field_type,
            type_token=type_token,
            length=self.read_int(node, "length", subject),
            numberOfRows=self.read_int(node, "numberOfRows", subject),
            numberOfCols=self.read_int(node, "numberOfCols", subject),
            fkEntityName=node.attributes.get("fkEntityName"),
            # 'nameName' is accepted as an alias of 'fkName'
            fkName=node.attributes.get("fkName", node.attributes.get("nameName")),
            description=node.attributes.get("description"),
            defaultValue=node.attributes.get("defaultValue"),
            displayFormat=node.attributes.get("displayFormat"),
            displayNameAttr=node.attributes.get("displayName"),
            displayNames=self.localized(node, "DisplayName", subject),
            location=node.location,
            **bools,
        )

    def bind_constraint(self, node: XmlNode, index: int, entity_subject: str) -> Constraint:
        subject = f"{entity_subject}/Constraint[{index}]"
        self.warn_unknown(node, _CONSTRAINT_ATTRS, subject)
        for child in node.children:
            if child.tag not in ("Language", "CField"):
                self.diag(W_UNKNOWN_ELEM, Severity.WARNING,
                          f"unknown element '{child.tag}' ignored", child, subject)
        self.note_language_children(node, {"ErrorMessage"}, subject)

        kind_token = node.attributes.get("type")
        try:
            kind = ConstraintKind(kind_token) if kind_token is not None else None
        except ValueError:
            kind = None
        rel_token = node.attributes.get("relationship")
        try:
            relationship = RelationshipOp(rel_token) if rel_token is not None else None
        except ValueError:
            relationship = None

        return Constraint(
            kind=kind,
            kind_token=kind_token,
            relationship=relationship,
            rel_token=rel_token,
            cfields=tuple(c.attributes.get("name", "") for c in node.find_all("CField")),
            errorMessages=self.localized(node, "ErrorMessage", subject),
            location=node.location,
        )

    def bind_entity(self, node: XmlNode) -> Entity:
        name = node.attributes.get("name", "")
        subject = f"Entity[{name}]"
        self.warn_unknown(node, _ENTITY_ATTRS, subject)
        for child in node.children:
            if child.tag not in ("Language", "Field", "Constraint"):
                self.diag(W_UNKNOWN_ELEM, Severity.WARNING,
                          f"unknown element '{child.tag}' ignored", child, subject)
        self.note_language_children(node, {"DisplayName", "PluralName"}, subject)

        caching_token = node.attributes.get("caching")
        caching = Caching.DISABLED
        if caching_token is not None:
            try:
                caching = Caching(caching_token)
            except ValueError:
                self.diag(E_BAD_ENUM, Severity.ERROR,
                          f"attribute 'caching' must be 'enabled' or 'disabled', got '{caching_token}'",
                          node, subject, "caching")

        return Entity(
            name=name,
            tableName=node.attributes.get("tableName", ""),
            caching=caching,
            isAudited=self.read_bool(node, "isAudited", False, subject),
            isLogged=self.read_bool(node, "isLogged", False, subject),
            isActive=self.read_bool(node, "isActive", True, subject),
            displayNames=self.localized(node, "DisplayName", subject),
            pluralNames=self.localized(node, "PluralName", subject),
            fields=tuple(self.bind_field(f, subject) for f in node.find_all("Field")),
            constraints=tuple(
                self.bind_constraint(c, i, subject)
                for i, c in enumerate(node.find_all("Constraint"), start=1)
            ),
            location=node.location,
        )

    def bind_settings(self, node: XmlNode) -> Settings:
        self.warn_unknown(node, _SETTINGS_ATTRS, "Settings")
        return Settings(
            appName=node.attributes.get("appName", ""),
            defaultLanguage=node.attributes.get("defaultLanguage"),
            connectionStringName=node.attributes.get("connectionStringName"),
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
        entity_config = None
        for child in root.children:
            if child.tag == "Settings":
                settings = binder.bind_settings(child)
            elif child.tag == "EntityConfig":
                if entity_config is None:
                    entity_config = child
                else:
                    binder.diag(W_UNKNOWN_ELEM, Severity.WARNING,
                                "extra EntityConfig element ignored", child, "")
            else:
                binder.diag(W_UNKNOWN_ELEM, Severity.WARNING,
                            f"unknown element '{child.tag}' ignored", child, "")
        if entity_config is None:
            binder.diag(E_DOC_SHAPE, Severity.ERROR,
                        "document has no EntityConfig element", root, "")
        else:
            for child in entity_config.children:
                if child.tag == "Entity":
                    entities.append(binder.bind_entity(child))
                else:
                    binder.diag(W_UNKNOWN_ELEM, Severity.WARNING,
                                f"unknown element '{child.tag}' ignored", child, "EntityConfig")

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
