"""The artifact template language (ATL): a small text-generation language with
output expressions, loops and conditionals evaluated over a bound model.

Syntax: literal text, `{{ expr }}` output, `{% for x in expr %}...{% endfor %}`,
`{% if %}/{% elif %}/{% else %}/{% endif %}`, `{# comment #}`, and trim markers
`{{-`/`-}}`/`{%-`/`-%}` which strip adjacent horizontal whitespace plus at most
one newline. Rendering is pure: the same AST and context always produce the
same text, and the context is never mutated.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass, field as dc_field, fields, is_dataclass
from enum import EnumMeta
from html import escape
from typing import (Any, Callable, Mapping, NamedTuple, Optional, Sequence, Union, get_args,
                    get_origin, get_type_hints)

from . import model as m

Pos = tuple[int, int]


class TemplateError(Exception):
    def __init__(self, name: str, line: int, column: int, reason: str):
        super().__init__(f"{name}:{line}:{column}: {reason}")
        self.name = name
        self.line = line
        self.column = column
        self.reason = reason


class TemplateSyntaxError(TemplateError):
    pass


class TemplateRuntimeError(TemplateError):
    pass


# ---------------------------------------------------------------------------
# expression AST

@dataclass(frozen=True)
class Lit:
    value: Any
    pos: Pos


@dataclass(frozen=True)
class Path:
    names: tuple[str, ...]
    pos: Pos


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]
    pos: Pos


@dataclass(frozen=True)
class Unary:
    op: str  # 'not'
    operand: "Expr"
    pos: Pos


@dataclass(frozen=True)
class Binary:
    op: str  # and or == != < <= > >=
    left: "Expr"
    right: "Expr"
    pos: Pos


Expr = Union[Lit, Path, Call, Unary, Binary]


# ---------------------------------------------------------------------------
# template AST

@dataclass(frozen=True)
class TextNode:
    text: str
    pos: Pos


@dataclass(frozen=True)
class OutputNode:
    expr: Expr
    pos: Pos


@dataclass(frozen=True)
class ForNode:
    var: str
    expr: Expr
    body: tuple["TplNode", ...]
    pos: Pos


@dataclass(frozen=True)
class IfNode:
    branches: tuple[tuple[Expr, tuple["TplNode", ...]], ...]
    else_body: Optional[tuple["TplNode", ...]]
    pos: Pos


TplNode = Union[TextNode, OutputNode, ForNode, IfNode]


@dataclass(frozen=True)
class TemplateAst:
    name: str
    nodes: tuple[TplNode, ...]
    # the nodes compiled to one Python function of (context, append, mark), once,
    # by parse_template, and the template positions its runtime errors refer to.
    # Where mark is given, a fragment loop calls mark(item, loop) before each
    # iteration, skipping it where that returns true, and mark(None, '') after it.
    compiled: Callable[..., None] = dc_field(repr=False, compare=False)
    sites: tuple[Pos, ...] = dc_field(repr=False, compare=False)
    # what rendering can read: the source, the context names read, and every
    # attribute named by a path step
    source: str = dc_field(default="", repr=False, compare=False)
    names: frozenset[str] = dc_field(default=frozenset(), repr=False, compare=False)
    steps: frozenset[str] = dc_field(default=frozenset(), repr=False, compare=False)
    fragment: Optional["FragmentLoop"] = dc_field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class FragmentLoop:
    """The first top-level `for` over `model.entities` or `model.active_entities`
    of a template, where its body reads no context name but `lang` and `flags`,
    and no `location`. An iteration's text then depends only on its item, the
    values of the loop attributes in `reads`, `lang`, `flags` and the settings
    (through `localized`), so it can be rendered, or kept, on its own: the
    template's function marks where each iteration starts (TemplateAst.compiled)."""
    reads: tuple[str, ...]  # the loop attributes its body reads, in _LOOP_ATTRS order
    names: frozenset[str]  # the context names its body reads


# ---------------------------------------------------------------------------
# parsing: one recursive-descent parser over the whole template source; every
# node and every error is located by its offset in that source

# A block or expression nested deeper than MAX_DEPTH is a syntax error: parsing,
# compiling and rendering recurse once per level.
MAX_DEPTH = 100

_TAG_OPEN_RE = re.compile(r"\{\{-?|\{%-?|\{#")
_TAG_CLOSE_RE = {"{{": re.compile(r"-?\}\}"), "{%": re.compile(r"-?%\}")}
_DIRECTIVE_RE = re.compile(r"\s*(\S*)\s*")  # the directive word
_FOR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s+in\s+(.+)", re.DOTALL)
_RTRIM_RE = re.compile(r"[ \t]*(?:\n[ \t]*)?")
_TOKEN_RE = re.compile(
    r"""\s+
      | ==|!=|<=|>=|<|>
      | \(|\)|,|\.
      | \d+
      | '[^']*'|"[^"]*"
      | [A-Za-z_][A-Za-z0-9_]*
    """,
    re.VERBOSE,
)

_COMPARE_OPS = {"==", "!=", "<", "<=", ">", ">="}
_BLOCK_ENDS = {"endfor", "elif", "else", "endif"}


def _line_col(source: str, offset: int) -> Pos:
    line = source.count("\n", 0, offset) + 1
    start = source.rfind("\n", 0, offset) + 1
    return line, offset - start + 1


class _Parser:
    def __init__(self, source: str, name: str):
        self.source = source
        self.name = name
        self.pos = 0  # where the text after the last tag starts
        self.rtrim = False  # whether that tag ended with a trim marker
        self.tokens: list[tuple[str, int]] = []  # the expression being parsed
        self.index = 0
        self.end = 0  # where that expression ends
        self.height = 0  # levels of nesting in the operand parsed last

    def error(self, reason: str, offset: int) -> TemplateSyntaxError:
        return TemplateSyntaxError(self.name, *_line_col(self.source, offset), reason)

    def block(self, depth: int, ends: tuple[str, ...] = (),
              opened: int = 0) -> tuple[tuple[TplNode, ...], Optional[tuple[str, int, int]]]:
        """The nodes of the block opened at offset `opened`, and the directive in
        `ends` that closes it as (word, start, end), where source[start:end] is
        the rest of that directive. The template itself is the block with no `ends`."""
        source, body = self.source, []
        while True:
            match = _TAG_OPEN_RE.search(source, self.pos)
            self.text(body, match.start() if match else len(source))
            if match is None:
                if ends:
                    raise self.error(f"unclosed '{'for' if 'endfor' in ends else 'if'}' block",
                                     opened)
                return tuple(body), None
            start, tag = match.start(), match.group()
            if tag == "{#":
                end = source.find("#}", match.end())
                if end < 0:
                    raise self.error("unterminated comment", start)
                self.pos = end + 2
                continue
            close = _TAG_CLOSE_RE[tag[:2]].search(source, match.end())
            if close is None:
                raise self.error("unterminated output expression" if tag[1] == "{"
                                 else "unterminated directive", start)
            if tag.endswith("-") and body and type(body[-1]) is TextNode:
                last = body.pop()
                text = last.text.rstrip(" \t")
                if text.endswith("\n"):
                    text = text[:-1].rstrip(" \t")
                if text:
                    body.append(TextNode(text, last.pos))
            self.pos, self.rtrim = close.end(), close.group().startswith("-")
            if tag[1] == "{":
                expr = self.expr(match.end(), close.start())
                body.append(OutputNode(expr, _line_col(source, start)))
                continue
            head = _DIRECTIVE_RE.match(source, match.end(), close.start())
            word, rest = head.group(1), head.end()
            end = rest + len(source[rest:close.start()].rstrip())  # the rest of the directive
            if word in _BLOCK_ENDS:
                if word not in ends or word == "else" and rest < end:
                    raise self.error(
                        f"'{word}' without matching '{'for' if word == 'endfor' else 'if'}'", start)
                return tuple(body), (word, rest, end)
            if word not in ("for", "if"):
                raise self.error(f"unknown directive '{word}'", start)
            if depth == MAX_DEPTH:
                raise self.error("blocks nested too deeply", start)
            parse_block = self.for_block if word == "for" else self.if_block
            body.append(parse_block(start, rest, end, depth + 1))

    def text(self, body: list[TplNode], end: int) -> None:
        start = self.pos
        first = _RTRIM_RE.match(self.source, start, end).end() if self.rtrim else start
        self.rtrim = False
        if first < end:
            body.append(TextNode(self.source[first:end], _line_col(self.source, start)))

    def for_block(self, start: int, rest: int, end: int, depth: int) -> ForNode:
        header = _FOR_RE.fullmatch(self.source, rest, end)
        if header is None:
            raise self.error("malformed for directive; expected 'for NAME in EXPR'", start)
        if header.group(1) == "loop":  # its body would read the loop's own `loop`
            raise self.error("a for variable named 'loop' hides the loop's own 'loop'",
                             header.start(1))
        expr = self.expr(*header.span(2))
        body, _ = self.block(depth, ("endfor",), start)
        return ForNode(header.group(1), expr, body, _line_col(self.source, start))

    def if_block(self, start: int, rest: int, end: int, depth: int) -> IfNode:
        branches = []
        cond = self.expr(rest, end)
        while True:
            body, (word, rest, end) = self.block(depth, ("elif", "else", "endif"), start)
            branches.append((cond, body))
            if word != "elif":
                break
            cond = self.expr(rest, end)
        else_body = self.block(depth, ("endif",), start)[0] if word == "else" else None
        return IfNode(tuple(branches), else_body, _line_col(self.source, start))

    # -- expressions: tokenized first, then parsed by precedence --------------

    def expr(self, start: int, end: int) -> Expr:
        """The expression in source[start:end]."""
        source, tokens, pos = self.source, [], start
        while pos < end:
            match = _TOKEN_RE.match(source, pos, end)
            if match is None:
                raise self.error(f"unexpected character {source[pos]!r}", pos)
            if not source[pos].isspace():
                tokens.append((match.group(), pos))
            pos = match.end()
        self.tokens, self.index, self.end = tokens, 0, end
        expr = self.parse_or(0)
        if self.index < len(tokens):
            token, offset = tokens[self.index]
            raise self.error(f"unexpected {token!r}", offset)
        return expr

    def peek(self) -> Optional[str]:
        return self.tokens[self.index][0] if self.index < len(self.tokens) else None

    def next(self) -> tuple[str, int]:
        if self.index >= len(self.tokens):
            raise self.error("unexpected end of expression", self.end)
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, token: str) -> None:
        got, offset = self.next()
        if got != token:
            raise self.error(f"expected {token!r}, got {got!r}", offset)

    def nest(self, offset: int, levels: int) -> int:
        """`levels` of expression nesting at `offset`, if within MAX_DEPTH. Each parse_*
        method reads an expression `depth` levels deep and its operands one level deeper."""
        if levels > MAX_DEPTH:
            raise self.error("expression nested too deeply", offset)
        return levels

    def binary(self, left: Expr, parse_right: Callable[[int], Expr], depth: int) -> Binary:
        """`left`, the operator next and the operand parse_right() reads."""
        height, (op, offset) = self.height, self.next()
        right = parse_right(self.nest(offset, depth + 1))
        self.height = self.nest(offset, max(height, self.height) + 1)
        return Binary(op, left, right, _line_col(self.source, offset))

    def parse_or(self, depth: int) -> Expr:
        left = self.parse_and(depth)
        while self.peek() == "or":
            left = self.binary(left, self.parse_and, depth)
        return left

    def parse_and(self, depth: int) -> Expr:
        left = self.parse_not(depth)
        while self.peek() == "and":
            left = self.binary(left, self.parse_not, depth)
        return left

    def parse_not(self, depth: int) -> Expr:
        if self.peek() != "not":
            return self.parse_comparison(depth)
        _, offset = self.next()
        operand = self.parse_not(self.nest(offset, depth + 1))
        self.height = self.nest(offset, self.height + 1)
        return Unary("not", operand, _line_col(self.source, offset))

    def parse_comparison(self, depth: int) -> Expr:
        left = self.parse_primary(depth)
        return self.binary(left, self.parse_primary, depth) if self.peek() in _COMPARE_OPS else left

    def parse_primary(self, depth: int) -> Expr:
        token, offset = self.next()
        pos = _line_col(self.source, offset)
        self.height = 0
        if token == "(":
            inner = self.parse_or(self.nest(offset, depth + 1))
            self.expect(")")
            self.height = self.nest(offset, self.height + 1)
            return inner
        if token.isdigit():
            try:
                return Lit(int(token), pos)
            except ValueError:  # more digits than the interpreter converts
                raise self.error("integer literal too long", offset) from None
        if token[0] in "'\"":
            return Lit(token[1:-1], pos)
        if token in ("true", "false"):
            return Lit(token == "true", pos)
        if not _is_name(token):
            raise self.error(f"unexpected {token!r}", offset)
        if self.peek() == "(":
            self.next()
            args, height = [], 0
            if self.peek() != ")":
                args.append(self.parse_or(self.nest(offset, depth + 1)))
                height = self.height
                while self.peek() == ",":
                    self.next()
                    args.append(self.parse_or(self.nest(offset, depth + 1)))
                    height = max(height, self.height)
            self.expect(")")
            self.height = self.nest(offset, height + 1)
            return Call(token, tuple(args), pos)
        names = [token]
        while self.peek() == ".":
            self.next()
            part, part_offset = self.next()
            if not _is_name(part):
                raise self.error(f"expected attribute name after '.', got {part!r}", part_offset)
            names.append(part)
        return Path(tuple(names), pos)


def _is_name(token: str) -> bool:
    return token[0].isalpha() or token[0] == "_"  # names are the only such tokens


def parse_template(source: str, name: str) -> TemplateAst:
    """Parse ATL source into an immutable AST; literal text is preserved
    byte-exactly except where trim markers apply."""
    nodes, _ = _Parser(source, name).block(0)
    gen = _Codegen()
    fragment = gen.template(nodes)
    compiled = gen.finish()
    return TemplateAst(name, nodes, compiled, tuple(gen.sites), source,
                       frozenset(gen.context_names), frozenset(gen.steps), fragment)


# ---------------------------------------------------------------------------
# values: templates read the bound model. NAMES gives each model class the names
# a step reads of its elements, and any other name reads as Null. The compiler
# types steps from it, and _step reads it for a value of a type not known then.

class Name(NamedTuple):
    cls: Optional[type] = None  # the model class of the value, or of its items
    read: Optional[Callable[[Any, dict, Any], Any]] = None  # (element, ctx, owner); None: getattr


_NULL = Name(read=lambda *_: None)
# context keys that no template name can spell: the default language `localized`
# falls back to, and the memo of computed names that the renders given it share
DEFAULT_LANGUAGE, MEMO = "@defaultLanguage", "@memo"


def _fields_of(cls: type) -> dict[str, Name]:
    """The compared fields of a model class (not an entity's digest), an enum as its token."""
    names, hints = {}, get_type_hints(cls)
    for name in (f.name for f in fields(cls) if f.compare):
        hint = get_args(hints[name])[0] if get_origin(hints[name]) is Union else hints[name]
        item = get_args(hint)[0] if get_origin(hint) is tuple else hint
        names[name] = Name(read=lambda e, _, __, a=name: getattr(getattr(e, a), "value", None)) \
            if type(item) is EnumMeta else Name(item if is_dataclass(item) else None)
    return names


def _computed(cls: Optional[type], compute: Callable, owned: bool = False) -> Name:
    """The name compute(element, owner, ctx) gives, once per element (and owner) per memo."""
    def read(element: Any, ctx: dict, owner: Any) -> Any:
        memo, key = ctx[MEMO], (id(element), compute, id(owner) if owned else 0)
        if key not in memo:  # which holds the element and owner, so no id is reused
            memo[key] = element, owner, compute(element, owner if owned else None, ctx)
        return memo[key][2]
    return Name(cls, read)


def _where(seq: str, cls: type, test: Callable[[Any], bool]) -> Name:
    return _computed(cls, lambda e, _, ctx: tuple(filter(test, _step(e, seq, 0, ctx))))


def _update_columns(entity: m.Entity, _: Any, ctx: dict) -> tuple:
    pk_names = {f.name for f in entity.fields if f.isPK}
    return tuple(c for c in _step(entity, "insert_columns", 0, ctx) if c.name not in pk_names)


_COMPUTED = {
    m.ApplicationModel: {"active_entities": _where("entities", m.Entity, lambda e: e.isActive)},
    m.Entity: {
        "columns": _computed(m.ColumnSpec, lambda e, _, ctx: m.effective_columns(e)),
        "pk": _computed(m.Field, lambda e, _, ctx: next((f for f in e.fields if f.isPK), None)),
        "insert_columns": _where("columns", m.ColumnSpec, lambda c: not c.identity),
        "update_columns": _computed(m.ColumnSpec, _update_columns),
        "edit_fields": _where("fields", m.Field, lambda f: f.isShownInEdit),
        "list_fields": _where("fields", m.Field, lambda f: f.isShownInList),
        "required_fields": _where("fields", m.Field, lambda f: f.isShownInEdit
                                  and not f.nullable and not f.isIdentity),
        "unique_constraints": _where("constraints", m.Constraint,
                                     lambda c: c.kind is m.ConstraintKind.UNIQUE),
        "twofields_constraints": _where("constraints", m.Constraint,
                                        lambda c: c.kind is m.ConstraintKind.TWO_FIELDS),
    },
    m.Constraint: {  # each field a constraint names, found among its owner's; else None
        "fields": _computed(m.Field, lambda c, o, ctx: tuple(map(({f.name: f for f in o.fields}
                            if type(o) is m.Entity else {}).get, c.cfields)), owned=True),
        "first_field": _computed(m.Field, lambda c, o, ctx: next(
            iter(_step(c, "fields", 0, ctx, o)), None), owned=True),
        "second_field": _computed(m.Field, lambda c, o, ctx: next(
            iter(_step(c, "fields", 0, ctx, o)[1:]), None), owned=True),
        "nullable": _computed(None, lambda c, o, ctx: any(
            f.nullable for f in _step(c, "fields", 0, ctx, o) if f is not None), owned=True),
    },
}
NAMES = {cls: {**_fields_of(cls), **_COMPUTED.get(cls, {})} for cls in (  # class -> name -> Name
    m.ApplicationModel, m.Settings, m.Entity, m.Field, m.Constraint, m.ColumnSpec, m.LocalizedText)}

Value = Any  # Null (None), a bool, int, str, list, tuple or dict, or a model element


def truthy(value: Value) -> bool:
    if value is None or value is True or value is False:
        return value is True
    return bool(value) if isinstance(value, (int, str, list, tuple, dict)) else True


# ---------------------------------------------------------------------------
# built-in functions

def sql_operator(rel: Union[str, m.RelationshipOp]) -> str:
    """Relationship token to SQL comparison operator."""
    token = rel.value if isinstance(rel, m.RelationshipOp) else rel
    return {
        "lt": "<", "le": "<=", "gt": ">", "ge": ">=", "neq": "<>", "eq": "=",
    }[token]


def compare_kind(field: m.Field) -> str:
    """Comparison family of a field: "dates" for date/datetime, else "strings"."""
    return m.comparison_family(field.type)


def sql_type(column: Union[m.ColumnSpec, m.Field]) -> str:
    """DDL type of a column: bare token, with parenthesized length for sized strings."""
    if column.length is not None:
        return f"{column.type.value}({column.length})"
    return column.type.value


def _builtin_count(seq: Value) -> int:
    if not isinstance(seq, (list, tuple, str, dict)):
        raise TypeError("count() expects a sequence")
    return len(seq)


def _builtin_coalesce(value: Value, fallback: Value) -> Value:
    return fallback if value is None else value


def _builtin_json_str(text: Value) -> str:
    """Text as the inside of a JSON string literal."""
    return json.dumps(_as_text(text), ensure_ascii=False)[1:-1]


# what js_str escapes: the quote and the backslash; the line terminators, which
# a string literal cannot hold; and every other control character, as \uXXXX
_JS_ESCAPES = {ord("'"): "\\'", ord("\\"): "\\\\",
               **{c: f"\\u{c:04x}" for c in [*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029]}}


def _builtin_js_str(text: Value) -> str:
    """Text as the inside of a single-quoted JavaScript string literal."""
    return _as_text(text).translate(_JS_ESCAPES)


def _builtin_localized(default_lang: Optional[str], node: Value, lang: Value, key: Value) -> str:
    if not isinstance(node, (m.Entity, m.Field, m.Constraint)):
        raise TypeError("localized() expects an entity, field or constraint")
    return m.localized_text(node, str(key), str(lang), default_lang)


BUILTINS: dict[str, Callable[..., Value]] = {
    "sql_operator": sql_operator,
    "compare_kind": compare_kind,
    "sql_type": sql_type,
    "count": _builtin_count,
    "lower": lambda t: _as_text(t).lower(),
    "upper": lambda t: _as_text(t).upper(),
    "coalesce": _builtin_coalesce,
    "localized": _builtin_localized,
    "json_str": _builtin_json_str,
    "js_str": _builtin_js_str,
    "html": lambda t: escape(_as_text(t)),
}


# ---------------------------------------------------------------------------
# code generation: a template becomes the Python source of one function, built
# with compile() once. No template text is ever executed: identifiers reach the
# source only as numbered locals or repr()'d keys, and every literal and text
# chunk through repr(). A runtime error names an index into the template's
# table of call-site positions.

# Blocks, or expression levels, nested in one generated function before the
# next level goes into a function of its own; within CPython's limits on
# nested loops (20), indentation (100) and parentheses (200).
_SPLIT = 12
_INLINE_STEPS = 4  # path steps inlined; a longer path runs _steps, then its last step
_LOOP_ATTRS = {"index": ("i{}", int), "first": ("(i{} == 1)", bool),
               "last": ("(i{0} == n{0})", bool), "length": ("n{}", int)}
_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_UNKNOWN = object()  # the value of a context name the context lacks
# what a fragment loop iterates, and the context names its body may read
_FRAGMENT_SEQUENCES = {("model", "entities"), ("model", "active_entities")}
_FRAGMENT_NAMES = frozenset({"lang", "flags"})


class _Failure(Exception):
    """(site, reason): a runtime error at call site `site`, located by the caller."""


def _fail(site: int, reason: str) -> Value:
    raise _Failure(site, reason)


def _step(value: Value, attr: str, site: int, ctx: dict, owner: Value = None) -> Value:
    """A path step on a value of a type not known when compiling; `owner` as for path."""
    names = NAMES.get(type(value))
    if names is not None:  # a dunder, a method or a misspelling reads as Null
        name = names.get(attr, _NULL)
        return getattr(value, attr) if name.read is None else name.read(value, ctx, owner)
    if value is None:
        return None  # Null propagates through the rest of the path
    if isinstance(value, dict):
        return value.get(attr)
    raise _Failure(site, f"cannot access '.{attr}' on {type(value).__name__} value")


def _steps(value: Value, attrs: tuple[str, ...], site: int, ctx: dict, owner: Value) -> Value:
    for attr in attrs:
        value, owner = _step(value, attr, site, ctx, owner), None
    return value


def _values_equal(left: Value, right: Value) -> bool:
    if left is None or right is None:
        return left is None and right is None
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    return left == right


def _order(site: int, op: str, a: Value, b: Value) -> bool:
    # ints with ints, text with text; Null never orders
    if a is None or b is None:
        return False
    if isinstance(a, bool) or isinstance(b, bool) \
            or not isinstance(a, (int, str)) or not isinstance(b, (int, str)) \
            or isinstance(a, int) != isinstance(b, int):
        raise _Failure(site, f"cannot compare {type(a).__name__} with {type(b).__name__}")
    return _ORDERINGS[op](a, b)


def _call(site: int, name: str, func: Callable[..., Value], *args: Value) -> Value:
    try:
        return func(*args)
    except (TypeError, KeyError, AttributeError) as exc:
        raise _Failure(site, f"{name}(): {exc}") from None


def _as_text(value: Value) -> str:
    """A value as output renders it; TypeError for an element, list, tuple or dict."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    raise TypeError(f"cannot render a {type(value).__name__} value as text")


def _to_text(value: Value, site: int) -> str:
    try:
        return _as_text(value)
    except TypeError as exc:
        raise _Failure(site, str(exc)) from None


_RUNTIME = {"_U": _UNKNOWN, "_SEQ": (list, tuple), "_fail": _fail, "_step": _step,
            "_steps": _steps, "_eq": _values_equal, "_order": _order, "_call": _call,
            "_to_text": _to_text, "_truthy": truthy,
            **{cls.__name__: cls for cls in NAMES}}


@dataclass
class _Loop:
    """An enclosing for: its variable, its number k in the locals it binds (v<k>,
    i<k>, n<k>, l<k> where its body reads `loop` as a value, o<k>: see path), the
    attributes its body reads of `loop`, and the model class of its items if known."""
    var: str
    k: int
    meta: bool = False
    owner: bool = False
    reads: set[str] = dc_field(default_factory=set)
    cls: Optional[type] = None


class _Codegen:
    """The Python source of a template's function, r0, and of one more function
    for each block or expression nested _SPLIT levels inside another function."""

    def __init__(self) -> None:
        self.sites: list[Pos] = []
        self.defs: list[str] = []
        self.namespace = dict(_RUNTIME)
        self.loops = 0
        self.scope: tuple[_Loop, ...] = ()
        self.lines: list[str] = []  # the body of the function being generated
        self.names: dict[str, str] = {}  # its context names -> the locals c<n> holding them
        self.context_names: set[str] = set()  # of every function
        self.steps: set[str] = set()  # the attribute of every path step
        self.candidate: Optional[ForNode] = None  # the loop that may be a fragment loop
        self.fragment: Optional[FragmentLoop] = None

    def site(self, pos: Pos) -> int:
        self.sites.append(pos)
        return len(self.sites) - 1

    def define(self, params: str, build: Callable[[], Any]) -> tuple[str, Any]:
        """Generate a function of `params` and the locals of the scope whose body
        build() writes; returns the call of it and what build() returned."""
        outer, slot = (self.lines, self.names), len(self.defs)
        self.lines, self.names = [], {}
        self.defs.append("")
        built = build()
        args = ", ".join([params, *(f"{kind}{loop.k}" for loop in self.scope
                                    for kind in "vin" + "l" * loop.meta + "o" * loop.owner)])
        prologue = [f" {local} = ctx.get({name!r}, _U)" for name, local in self.names.items()]
        self.defs[slot] = "\n".join([f"def r{slot}({args}):", *prologue, *self.lines])
        self.lines, self.names = outer
        return f"r{slot}({args})", built

    def finish(self) -> Callable:
        exec(compile("\n".join(self.defs), "<atl>", "exec"), self.namespace)
        return self.namespace["r0"]

    def template(self, nodes: Sequence[TplNode]) -> Optional[FragmentLoop]:
        """Generate r0, the template's function. Where its first top-level `for`
        over the model's entities is a fragment loop, each iteration of that
        loop starts with a call of mark, and the loop ends with one; returns
        that loop, else None."""
        self.candidate = next((node for node in nodes if type(node) is ForNode and type(
            node.expr) is Path and node.expr.names in _FRAGMENT_SEQUENCES), None)
        self.define("ctx, append, mark=None", lambda: self.block(nodes, 1))
        return self.fragment

    def block(self, nodes: Sequence[TplNode], indent: int) -> None:
        pad, text, first = " " * indent, [], len(self.lines)
        for node in (*nodes, None):
            # adjacent text, and the text of literal outputs, become one constant
            if type(node) is TextNode or type(node) is OutputNode and type(node.expr) is Lit:
                text.append(node.text if type(node) is TextNode else _to_text(node.expr.value, 0))
                continue
            if text:
                self.lines.append(f"{pad}append({''.join(text)!r})")
                text = []
            if type(node) is OutputNode:
                value, kind = self.expr(node.expr, 0)
                self.lines.append(pad + (
                    f"append('true' if {value} else 'false')" if kind is bool else
                    f"append(str({value}))" if kind is int else f"append(t if type(t := {value}) "
                    f"is str else _to_text(t, {self.site(node.pos)}))"))
            elif node is not None and indent > _SPLIT:
                call, _ = self.define("ctx, append", lambda: self.block((node,), 1))
                self.lines.append(pad + call)
            elif type(node) is ForNode:
                self.loops += 1
                k, loop, outer = self.loops, _Loop(node.var, self.loops), self.scope
                site = self.site(node.pos)  # t is the sequence, which must be a list or tuple
                self.lines += [f"{pad}t = {self.expr(node.expr, 0, loop)[0]}",
                               f"{pad}if not isinstance(t, _SEQ): "
                               f"_fail({site}, 'for-loop expression is not a sequence')",
                               f"{pad}n{k} = len(t)", f"{pad}for i{k}, v{k} in enumerate(t, 1):"]
                start, self.scope = len(self.lines), (*outer, loop)
                names, steps = self.context_names, self.steps
                if node is self.candidate:  # what its body reads is gathered apart
                    self.context_names, self.steps = set(), set()
                self.block(node.body, indent + 1)
                self.scope = outer
                if loop.meta:
                    self.lines.insert(start, f"{pad} l{k} = {{'index': i{k}, 'first': i{k} == 1, "
                                             f"'last': i{k} == n{k}, 'length': n{k}}}")
                if node is self.candidate:
                    if self.context_names <= _FRAGMENT_NAMES and "location" not in self.steps:
                        self.mark(loop, start, pad)
                    self.context_names, self.steps = names | self.context_names, steps | self.steps
            elif type(node) is IfNode:
                for i, (cond, branch) in enumerate(node.branches):
                    self.lines.append(f"{pad}{'elif' if i else 'if'} {self.truth(cond, 0)}:")
                    self.block(branch, indent + 1)
                if node.else_body is not None:
                    self.lines.append(f"{pad}else:")
                    self.block(node.else_body, indent + 1)
        if len(self.lines) == first:
            self.lines.append(f"{pad}pass")

    def mark(self, loop: _Loop, start: int, pad: str) -> None:
        """Make fragment loop `loop`, whose body starts at line `start`, call
        mark with each item and the text of the loop attributes its body
        reads, as output renders them, comma-separated; and once after it."""
        reads = tuple(attr for attr in _LOOP_ATTRS if loop.meta or attr in loop.reads)
        self.fragment = FragmentLoop(reads, frozenset(self.context_names))
        key = " + ',' + ".join(f"str({value.format(loop.k)})" if kind is int else
                               f"('true' if {value.format(loop.k)} else 'false')"
                               for value, kind in map(_LOOP_ATTRS.get, reads)) or "''"
        self.lines.insert(start, f"{pad} if mark is not None and mark(v{loop.k}, {key}): continue")
        self.lines.append(f"{pad}if mark is not None: mark(None, '')")

    def truth(self, node: Expr, depth: int) -> str:
        value, kind = self.expr(node, depth)
        if kind is bool:
            return value
        if kind is int:
            return f"bool({value})"
        return f"(t if type(t := {value}) is bool else _truthy(t))"

    def expr(self, node: Expr, depth: int,
             seq: Optional[_Loop] = None) -> tuple[str, Optional[type]]:
        """The source of an expression, and the type of its value where known."""
        if depth == _SPLIT:
            return self.define("ctx", lambda: self.returns(node))
        if type(node) is Lit:
            return repr(node.value), type(node.value)
        if type(node) is Path:
            return self.path(node, seq)
        if type(node) is Call:
            func, site = BUILTINS.get(node.func), self.site(node.pos)
            if func is None:
                return f"_fail({site}, {f'unknown function {node.func!r}'!r})", None
            self.namespace[f"f_{node.func}"] = func
            args = "".join(", " + self.expr(arg, depth + 1)[0] for arg in node.args)
            if node.func == "localized":  # which reads no name of the template's
                args = f", ctx.get({DEFAULT_LANGUAGE!r})" + args
            return f"_call({site}, {node.func!r}, f_{node.func}{args})", None
        if type(node) is Unary:
            return f"(not {self.truth(node.operand, depth + 1)})", bool
        if node.op in ("and", "or"):
            left, right = self.truth(node.left, depth + 1), self.truth(node.right, depth + 1)
            return f"({left} {node.op} {right})", bool
        left, right = self.expr(node.left, depth + 1)[0], self.expr(node.right, depth + 1)[0]
        if node.op in ("==", "!="):
            return f"({'' if node.op == '==' else 'not '}_eq({left}, {right}))", bool
        return f"_order({self.site(node.pos)}, {node.op!r}, {left}, {right})", bool

    def returns(self, node: Expr) -> Optional[type]:
        value, kind = self.expr(node, 0)
        self.lines.append(f" return {value}")
        return kind

    def path(self, node: Path, seq: Optional[_Loop] = None) -> tuple[str, Optional[type]]:
        """The source of a path, and the type of its value where known. A step on
        a value of a known model class reads it directly, behind a test of its type.
        Where it is the sequence of loop `seq`, o<k> holds what its last step reads."""
        head, attrs, site = node.names[0], node.names[1:], self.site(node.pos)
        kind, cls, owner = None, None, "None"  # owner: o<k> of the head's loop, if any
        self.steps.update(attrs)
        # a name is the innermost for's variable, `loop` its loop, else a context name
        loop = self.scope[-1] if head == "loop" and self.scope else \
            next((loop for loop in reversed(self.scope) if loop.var == head), None)
        if loop is None:
            self.context_names.add(head)
            local = self.names.setdefault(head, f"c{len(self.names)}")
            reason = f"unknown name {head!r}"
            value = f"({local} if {local} is not _U else _fail({site}, {reason!r}))"
            cls = {"model": m.ApplicationModel, "entity": m.Entity}.get(head)  # the typed roots
        elif head != "loop":
            value, cls, owner = f"v{loop.k}", loop.cls, f"o{loop.k}" if loop.owner else owner
        elif attrs and attrs[0] in _LOOP_ATTRS:
            loop.reads.add(attrs[0])
            (value, kind), attrs = _LOOP_ATTRS[attrs[0]], attrs[1:]
            value = value.format(loop.k)
        else:
            loop.meta, value = True, f"l{loop.k}"
        if len(attrs) > _INLINE_STEPS:
            value = f"_steps({value}, {attrs[:-1]!r}, {site}, ctx, {owner})"
            attrs, cls, owner = attrs[-1:], None, "None"
        for i, attr in enumerate(attrs, 1):
            if seq is not None and i == len(attrs):
                seq.owner, value = True, f"(o{seq.k} := {value})"
            name = NAMES[cls].get(attr, _NULL) if cls else None
            if name is None:
                value = f"_step({value}, {attr!r}, {site}, ctx, {owner})"
            else:  # as _step reads it, behind a test of the class
                self.namespace[f"{cls.__name__}_{attr}"] = name.read
                read = "None" if name is _NULL else f"t.{attr}" if name.read is None \
                    else f"{cls.__name__}_{attr}(t, ctx, {owner})"
                value = (f"({read} if type(t := {value}) is {cls.__name__} "
                         f"else _step(t, {attr!r}, {site}, ctx, {owner}))")
            kind, cls, owner = None, name and name.cls, "None"
        if seq is not None:
            seq.cls = cls
        return value, kind


def _run(ast: TemplateAst, context: Mapping[str, Value], append: Optional[Callable[[str], None]],
         mark: Optional[Callable[[Any, str], bool]] = None) -> Value:
    try:
        return ast.compiled({MEMO: {}, **context}, append, mark)  # a memo, unless it shares one
    except _Failure as exc:
        site, reason = exc.args
        raise TemplateRuntimeError(ast.name, *ast.sites[site], reason) from None


def render(ast: TemplateAst, context: Mapping[str, Value]) -> str:
    """Evaluate a template over a context; deterministic and side-effect free."""
    out: list[str] = []
    _run(ast, context, out.append)
    return "".join(out)


def render_fragments(ast: TemplateAst, context: Mapping[str, Value],
                     kept: Callable[[Any, str], Any]) -> list[Any]:
    """The output of a template with a fragment loop as pieces: the text before
    the loop, one piece per iteration, then the text after it. Joined, the
    pieces are what render() returns. An iteration is rendered only where
    kept(item, loop) is None; anything else stands as its piece. `loop` is the
    text of the loop attributes its body reads, comma-separated. The pieces are
    cut from one render where the template's function marks an iteration."""
    out: list[str] = []
    pieces: list[Any] = []
    rendered = True  # whether the text since the last mark is a piece: not a kept one

    def mark(item: Any, loop: str) -> bool:
        nonlocal rendered
        if rendered:
            pieces.append("".join(out))
            out.clear()
        piece = None if item is None else kept(item, loop)
        rendered = piece is None
        if not rendered:
            pieces.append(piece)
        return not rendered

    _run(ast, context, out.append, mark)
    pieces.append("".join(out))
    return pieces


def eval_expr(expr: Union[Expr, str], env: Mapping[str, Value], name: str = "<expr>") -> Value:
    """Evaluate a single expression (parsed on the fly when given as text)."""
    if isinstance(expr, str):
        expr = _Parser(expr, name).expr(0, len(expr))
    gen = _Codegen()
    gen.define("ctx, append, mark", lambda: gen.returns(expr))  # r0 returns the value
    return _run(TemplateAst(name, (), gen.finish(), tuple(gen.sites)), env, None)
