"""Immutable domain types for the entity modeling language, plus pure queries over them.

Everything here is a frozen dataclass or an enum; instances are safe to share
across threads and compare structurally.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from functools import cache
from typing import Any, Optional, TypeVar

T = TypeVar("T")


class FieldType(Enum):
    INT = "int"
    BIGINT = "bigint"
    DECIMAL = "decimal"
    BIT = "bit"
    FLOAT = "float"
    DATETIME = "datetime"
    DATE = "date"
    NVARCHAR = "nvarchar"
    VARCHAR = "varchar"
    TEXT = "text"


#: types that require an explicit length
SIZED_STRING_TYPES = frozenset({FieldType.NVARCHAR, FieldType.VARCHAR})

#: types on which numberOfRows/numberOfCols make sense
MULTILINE_TYPES = frozenset({FieldType.NVARCHAR, FieldType.VARCHAR, FieldType.TEXT})

#: comparison family used when lowering two-field constraints
DATE_TYPES = frozenset({FieldType.DATETIME, FieldType.DATE})


def comparison_family(field_type: Optional[FieldType]) -> str:
    """How two-field constraints compare a field: "dates" for date/datetime, else "strings"."""
    return "dates" if field_type in DATE_TYPES else "strings"


class RelationshipOp(Enum):
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"
    NEQ = "neq"


class ConstraintKind(Enum):
    UNIQUE = "Unique"
    TWO_FIELDS = "TwoFields"


class Caching(Enum):
    ENABLED = "enabled"
    DISABLED = "disabled"


Location = tuple[int, int]  # 1-based (line, column)


@cache
def _defaults(cls: type) -> dict[str, Any]:
    defaults = {f.name: f.default for f in fields(cls)}
    if MISSING in defaults.values():
        raise TypeError(f"{cls.__name__} has a field without a plain default")
    return defaults


def build(cls: type[T], /, **values: Any) -> T:
    """An instance of the frozen dataclass `cls` equal to `cls(**values)`.

    It fills the instance's `__dict__` in one step, where the constructor of a
    frozen dataclass calls `object.__setattr__` once per field: four times as
    fast for a `Field` on Python 3.11. Every field of `cls` needs a plain default.
    """
    defaults = _defaults(cls)
    if not defaults.keys() >= values.keys():
        unknown = next(k for k in values if k not in defaults)
        raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {unknown!r}")
    instance = object.__new__(cls)
    # The instance's dict gets its own copy of the key table, where constructed
    # instances share their class's: a Field takes 896 bytes, not 304, on
    # Python 3.11, and its attributes still read about as fast.
    attributes = instance.__dict__
    attributes.update(defaults)
    attributes.update(values)
    return instance


@dataclass(frozen=True)
class LocalizedText:
    """Ordered language -> text map with at most one entry per language."""

    entries: tuple[tuple[str, str], ...] = ()

    def get(self, lang: str) -> Optional[str]:
        for name, text in self.entries:
            if name == lang:
                return text
        return None

    def first(self) -> Optional[str]:
        return self.entries[0][1] if self.entries else None

    def languages(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


EMPTY_TEXT = LocalizedText()


@dataclass(frozen=True)
class Settings:
    appName: str = ""
    defaultLanguage: Optional[str] = None
    connectionStringName: Optional[str] = None


@dataclass(frozen=True)
class Field:
    name: str = ""
    type: Optional[FieldType] = None
    type_token: Optional[str] = None  # raw attribute text; None when absent
    length: Optional[int] = None
    nullable: bool = False
    isPK: bool = False
    isIdentity: bool = False
    isFK: bool = False
    fkEntityName: Optional[str] = None
    fkName: Optional[str] = None
    isLookup: bool = False
    createLookup: bool = False
    isOVN: bool = False
    isAudited: bool = False
    isShownInList: bool = True
    isShownInEdit: bool = True
    isShownInHistory: bool = True
    description: Optional[str] = None
    defaultValue: Optional[str] = None
    displayFormat: Optional[str] = None
    numberOfRows: Optional[int] = None
    numberOfCols: Optional[int] = None
    displayNameAttr: Optional[str] = None
    displayNames: LocalizedText = EMPTY_TEXT
    location: Optional[Location] = None


@dataclass(frozen=True)
class Constraint:
    kind: Optional[ConstraintKind] = None
    kind_token: Optional[str] = None
    relationship: Optional[RelationshipOp] = None
    rel_token: Optional[str] = None
    cfields: tuple[str, ...] = ()
    errorMessages: LocalizedText = EMPTY_TEXT
    location: Optional[Location] = None


@dataclass(frozen=True)
class Entity:
    name: str = ""
    tableName: str = ""
    caching: Caching = Caching.DISABLED
    isAudited: bool = False
    isLogged: bool = False
    isActive: bool = True
    displayNames: LocalizedText = EMPTY_TEXT
    pluralNames: LocalizedText = EMPTY_TEXT
    fields: tuple[Field, ...] = ()
    constraints: tuple[Constraint, ...] = ()
    location: Optional[Location] = None


@dataclass(frozen=True)
class ApplicationModel:
    settings: Settings = field(default_factory=Settings)
    entities: tuple[Entity, ...] = ()
    languages: tuple[str, ...] = ()


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    type: FieldType
    length: Optional[int] = None
    nullable: bool = False
    identity: bool = False


def effective_columns(entity: Entity) -> tuple[ColumnSpec, ...]:
    """Declared fields as table columns, plus the audit pair when the entity is logged."""
    columns = [
        ColumnSpec(
            name=f.name,
            # validation guarantees a type on valid entities
            type=f.type if f.type is not None else FieldType.INT,
            length=f.length,
            nullable=f.nullable,
            identity=f.isIdentity,
        )
        for f in entity.fields
    ]
    if entity.isLogged:
        columns.append(ColumnSpec(name="changedAt", type=FieldType.DATETIME, nullable=False))
        columns.append(
            ColumnSpec(name="changedBy", type=FieldType.VARCHAR, length=50, nullable=False)
        )
    return tuple(columns)


def _structural_name(owner: Entity | Field | Constraint) -> str:
    if isinstance(owner, Constraint):
        return owner.kind.value if owner.kind is not None else (owner.kind_token or "Constraint")
    return owner.name


def localized_text(
    owner: Entity | Field | Constraint,
    key: str,
    lang: str,
    default_lang: Optional[str] = None,
) -> str:
    """Localized text for `owner` under fallback: requested language, default
    language, first declared entry, then the structural name.

    `key` selects the map: "display" / "plural" (entities) / "error" (constraints).
    """
    if isinstance(owner, Constraint):
        table = owner.errorMessages
    elif key == "plural" and isinstance(owner, Entity):
        table = owner.pluralNames
    else:
        table = owner.displayNames

    text = table.get(lang)
    if text is None and default_lang is not None:
        text = table.get(default_lang)
    if text is None:
        text = table.first()
    if text is None and isinstance(owner, Field):
        text = owner.displayNameAttr
    if text is None:
        text = _structural_name(owner)
    return text


def display_name(
    owner: Entity | Field | Constraint, lang: str, default_lang: Optional[str] = None
) -> str:
    """Display text for `owner` in `lang`; total, never empty for named owners."""
    return localized_text(owner, "display", lang, default_lang)


def find_entity(model: ApplicationModel, name: str) -> Optional[Entity]:
    for entity in model.entities:
        if entity.name == name:
            return entity
    return None
