"""The artifact template language (ATL): a small text-generation language with
output expressions, loops and conditionals evaluated over a bound model.

Syntax: literal text, `{{ expr }}` output, `{% for x in expr %}...{% endfor %}`,
`{% if %}/{% elif %}/{% else %}/{% endif %}`, `{# comment #}`, and trim markers
`{{-`/`-}}`/`{%-`/`-%}` which strip adjacent horizontal whitespace plus at most
one newline. Rendering is pure: the same AST and context always produce the
same text, and the context is never mutated.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Mapping, Optional, Sequence, Union

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
# expression AST; compile(name) turns a node into a closure from the
# environment to a value, raising errors located in template `name`

@dataclass(frozen=True)
class Lit:
    value: Any
    pos: Pos

    def compile(self, name: str) -> _Eval:
        value = self.value
        return lambda env: value


@dataclass(frozen=True)
class Path:
    names: tuple[str, ...]
    pos: Pos

    def compile(self, name: str) -> _Eval:
        head, attrs, pos = self.names[0], self.names[1:], self.pos

        def path(env: dict) -> Value:
            try:
                value = env[head]
            except KeyError:
                raise TemplateRuntimeError(name, *pos, f"unknown name '{head}'") from None
            for attr in attrs:
                if type(value) is ModelView:
                    value = value[attr]
                elif value is None:
                    return None  # Null propagates through the rest of the path
                elif isinstance(value, dict):
                    value = value.get(attr)
                else:
                    raise TemplateRuntimeError(name, *pos,
                                 f"cannot access '.{attr}' on {type(value).__name__} value")
            return value

        return path


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]
    pos: Pos

    def compile(self, name: str) -> _Eval:
        func_name, pos = self.func, self.pos
        func = BUILTINS.get(func_name)
        if func is None:
            def unknown(env: dict) -> Value:
                raise TemplateRuntimeError(name, *pos, f"unknown function '{func_name}'")
            return unknown
        args = tuple(arg.compile(name) for arg in self.args)

        def call(env: dict) -> Value:
            values = [arg(env) for arg in args]
            try:
                return func(*values)
            except (TypeError, KeyError, AttributeError) as exc:
                raise TemplateRuntimeError(name, *pos, f"{func_name}(): {exc}") from None

        return call


@dataclass(frozen=True)
class Unary:
    op: str  # 'not'
    operand: "Expr"
    pos: Pos

    def compile(self, name: str) -> _Eval:
        operand = self.operand.compile(name)
        return lambda env: not truthy(operand(env))


@dataclass(frozen=True)
class Binary:
    op: str  # and or == != < <= > >=
    left: "Expr"
    right: "Expr"
    pos: Pos

    def compile(self, name: str) -> _Eval:
        left, right, op, pos = self.left.compile(name), self.right.compile(name), self.op, self.pos
        if op == "and":
            return lambda env: truthy(left(env)) and truthy(right(env))
        if op == "or":
            return lambda env: truthy(left(env)) or truthy(right(env))
        if op == "==":
            return lambda env: _values_equal(left(env), right(env))
        if op == "!=":
            return lambda env: not _values_equal(left(env), right(env))
        compare = _ORDERINGS[op]

        def ordering(env: dict) -> bool:
            # ints with ints, text with text; Null never orders
            a, b = left(env), right(env)
            if a is None or b is None:
                return False
            if isinstance(a, bool) or isinstance(b, bool) \
                    or not isinstance(a, (int, str)) or not isinstance(b, (int, str)) \
                    or isinstance(a, int) != isinstance(b, int):
                raise TemplateRuntimeError(name, *pos,
                             f"cannot compare {type(a).__name__} with {type(b).__name__}")
            return compare(a, b)

        return ordering


Expr = Union[Lit, Path, Call, Unary, Binary]


# ---------------------------------------------------------------------------
# template AST; compile(name) turns a node into a closure that appends the
# node's text for an environment

@dataclass(frozen=True)
class TextNode:
    text: str
    pos: Pos


@dataclass(frozen=True)
class OutputNode:
    expr: Expr
    pos: Pos

    def compile(self, name: str) -> _Body:
        value_of, pos = self.expr.compile(name), self.pos

        def output(env: dict, append: Callable[[str], None]) -> None:
            value = value_of(env)
            append(value if type(value) is str else _to_text(value, name, pos))

        return output


@dataclass(frozen=True)
class ForNode:
    var: str
    expr: Expr
    body: tuple["TplNode", ...]
    pos: Pos

    def compile(self, name: str) -> _Body:
        sequence_of, body = self.expr.compile(name), _compile_body(self.body, name)
        var, pos = self.var, self.pos

        def for_(env: dict, append: Callable[[str], None]) -> None:
            seq = sequence_of(env)
            if not isinstance(seq, list):
                raise TemplateRuntimeError(name, *pos, "for-loop expression is not a sequence")
            length = len(seq)
            inner = dict(env)  # the loop's own bindings; the enclosing ones hold after it
            for index, item in enumerate(seq, start=1):
                inner[var] = item
                inner["loop"] = {"index": index, "first": index == 1,
                                 "last": index == length, "length": length}
                body(inner, append)

        return for_


@dataclass(frozen=True)
class IfNode:
    branches: tuple[tuple[Expr, tuple["TplNode", ...]], ...]
    else_body: Optional[tuple["TplNode", ...]]
    pos: Pos

    def compile(self, name: str) -> _Body:
        branches = tuple((cond.compile(name), _compile_body(body, name))
                         for cond, body in self.branches)
        else_body = _compile_body(self.else_body, name) if self.else_body is not None else None

        def if_(env: dict, append: Callable[[str], None]) -> None:
            for test, body in branches:
                if truthy(test(env)):
                    body(env, append)
                    return
            if else_body is not None:
                else_body(env, append)

        return if_


TplNode = Union[TextNode, OutputNode, ForNode, IfNode]


@dataclass(frozen=True)
class TemplateAst:
    name: str
    nodes: tuple[TplNode, ...]
    # the nodes compiled to nested closures, once, by parse_template
    compiled: _Body = dc_field(repr=False, compare=False)


# ---------------------------------------------------------------------------
# expression parsing

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


class _ExprParser:
    def __init__(self, source: str, name: str, base: Pos):
        self.name = name
        self.base = base  # template position of source[0]
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(source):
            match = _TOKEN_RE.match(source, pos)
            if match is None:
                raise self.error(f"unexpected character {source[pos]!r}", pos)
            if not match.group().isspace():
                self.tokens.append((match.group(), pos))
            pos = match.end()
        self.source = source
        self.index = 0

    def pos_of(self, offset: int) -> Pos:
        line, col = _line_col(self.source, offset)
        return self.base[0] + line - 1, (self.base[1] + col - 1 if line == 1 else col)

    def error(self, reason: str, offset: int) -> TemplateSyntaxError:
        line, col = self.pos_of(offset)
        return TemplateSyntaxError(self.name, line, col, reason)

    def peek(self) -> Optional[str]:
        return self.tokens[self.index][0] if self.index < len(self.tokens) else None

    def next(self) -> tuple[str, int]:
        if self.index >= len(self.tokens):
            raise self.error("unexpected end of expression", len(self.source))
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, token: str) -> int:
        got, offset = self.next()
        if got != token:
            raise self.error(f"expected {token!r}, got {got!r}", offset)
        return offset

    def parse(self) -> Expr:
        expr = self.parse_or()
        if self.index < len(self.tokens):
            token, offset = self.tokens[self.index]
            raise self.error(f"unexpected {token!r}", offset)
        return expr

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.peek() == "or":
            _, offset = self.next()
            left = Binary("or", left, self.parse_and(), self.pos_of(offset))
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.peek() == "and":
            _, offset = self.next()
            left = Binary("and", left, self.parse_not(), self.pos_of(offset))
        return left

    def parse_not(self) -> Expr:
        if self.peek() == "not":
            _, offset = self.next()
            return Unary("not", self.parse_not(), self.pos_of(offset))
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_primary()
        if self.peek() in _COMPARE_OPS:
            op, offset = self.next()
            return Binary(op, left, self.parse_primary(), self.pos_of(offset))
        return left

    def parse_primary(self) -> Expr:
        token, offset = self.next()
        pos = self.pos_of(offset)
        if token == "(":
            inner = self.parse_or()
            self.expect(")")
            return inner
        if token.isdigit():
            return Lit(int(token), pos)
        if token[0] in "'\"":
            return Lit(token[1:-1], pos)
        if token == "true":
            return Lit(True, pos)
        if token == "false":
            return Lit(False, pos)
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token):
            if self.peek() == "(":
                self.next()
                args: list[Expr] = []
                if self.peek() != ")":
                    args.append(self.parse_or())
                    while self.peek() == ",":
                        self.next()
                        args.append(self.parse_or())
                self.expect(")")
                return Call(token, tuple(args), pos)
            names = [token]
            while self.peek() == ".":
                self.next()
                part, part_offset = self.next()
                if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", part):
                    raise self.error(f"expected attribute name after '.', got {part!r}", part_offset)
                names.append(part)
            return Path(tuple(names), pos)
        raise self.error(f"unexpected {token!r}", offset)


def parse_expr(source: str, name: str = "<expr>", base: Pos = (1, 1)) -> Expr:
    return _ExprParser(source, name, base).parse()


# ---------------------------------------------------------------------------
# template parsing

_TAG_OPEN_RE = re.compile(r"\{\{-?|\{%-?|\{#")
_LTRIM_RE = re.compile(r"(?:[ \t]*\n)?[ \t]*\Z")
_RTRIM_RE = re.compile(r"\A[ \t]*(?:\n[ \t]*)?")
_DIRECTIVE_RE = re.compile(r"\s*(\S*)\s*")


def _line_col(source: str, offset: int) -> Pos:
    line = source.count("\n", 0, offset) + 1
    start = source.rfind("\n", 0, offset) + 1
    return line, offset - start + 1


def parse_template(source: str, name: str) -> TemplateAst:
    """Parse ATL source into an immutable AST; literal text is preserved
    byte-exactly except where trim markers apply."""
    # frames: (kind, pos, extra) where extra holds partial if/for state
    root: list[TplNode] = []
    stack: list[dict[str, Any]] = [{"kind": "root", "body": root}]
    pos = 0
    pending_rtrim = False

    def err(reason: str, offset: int) -> TemplateSyntaxError:
        line, col = _line_col(source, offset)
        return TemplateSyntaxError(name, line, col, reason)

    def emit_text(text: str, offset: int) -> None:
        nonlocal pending_rtrim
        if pending_rtrim:
            text = _RTRIM_RE.sub("", text, count=1)
            pending_rtrim = False
        if text:
            stack[-1]["body"].append(TextNode(text, _line_col(source, offset)))

    def apply_ltrim() -> None:
        body = stack[-1]["body"]
        if body and isinstance(body[-1], TextNode):
            trimmed = _LTRIM_RE.sub("", body[-1].text, count=1)
            if trimmed:
                body[-1] = TextNode(trimmed, body[-1].pos)
            else:
                body.pop()

    while pos < len(source):
        match = _TAG_OPEN_RE.search(source, pos)
        if match is None:
            emit_text(source[pos:], pos)
            break
        emit_text(source[pos:match.start()], pos)
        tag = match.group()
        tag_pos = _line_col(source, match.start())

        if tag == "{#":
            end = source.find("#}", match.end())
            if end < 0:
                raise err("unterminated comment", match.start())
            pos = end + 2
            continue

        if tag.startswith("{{"):
            close = re.compile(r"-?\}\}").search(source, match.end())
            if close is None:
                raise err("unterminated output expression", match.start())
            if tag.endswith("-"):
                apply_ltrim()
            inner = source[match.end():close.start()]
            expr = parse_expr(inner, name, _line_col(source, match.end()))
            stack[-1]["body"].append(OutputNode(expr, tag_pos))
            pending_rtrim = close.group().startswith("-")
            pos = close.end()
            continue

        # {% directive %}
        close = re.compile(r"-?%\}").search(source, match.end())
        if close is None:
            raise err("unterminated directive", match.start())
        if tag.endswith("-"):
            apply_ltrim()
        # the directive word, then `rest` from its first non-space character on
        head = _DIRECTIVE_RE.match(source, match.end(), close.start())
        word = head.group(1)
        rest = source[head.end():close.start()].rstrip()
        rest_pos = _line_col(source, head.end())
        pending_rtrim = close.group().startswith("-")
        pos = close.end()

        if word == "for":
            m_for = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s+in\s+(.+)", rest, re.DOTALL)
            if m_for is None:
                raise err("malformed for directive; expected 'for NAME in EXPR'", match.start())
            expr = parse_expr(m_for.group(2), name,
                              _line_col(source, head.end() + m_for.start(2)))
            stack.append({"kind": "for", "var": m_for.group(1), "expr": expr,
                          "pos": tag_pos, "body": []})
        elif word == "endfor":
            if stack[-1]["kind"] != "for":
                raise err("'endfor' without matching 'for'", match.start())
            frame = stack.pop()
            stack[-1]["body"].append(
                ForNode(frame["var"], frame["expr"], tuple(frame["body"]), frame["pos"]))
        elif word == "if":
            expr = parse_expr(rest, name, rest_pos)
            stack.append({"kind": "if", "pos": tag_pos, "branches": [],
                          "current_expr": expr, "body": [], "in_else": False})
        elif word == "elif":
            frame = stack[-1]
            if frame["kind"] != "if" or frame["in_else"]:
                raise err("'elif' without matching 'if'", match.start())
            frame["branches"].append((frame["current_expr"], tuple(frame["body"])))
            frame["current_expr"] = parse_expr(rest, name, rest_pos)
            frame["body"] = []
        elif word == "else":
            frame = stack[-1]
            if frame["kind"] != "if" or frame["in_else"] or rest:
                raise err("'else' without matching 'if'", match.start())
            frame["branches"].append((frame["current_expr"], tuple(frame["body"])))
            frame["body"] = []
            frame["in_else"] = True
        elif word == "endif":
            frame = stack[-1]
            if frame["kind"] != "if":
                raise err("'endif' without matching 'if'", match.start())
            stack.pop()
            if frame["in_else"]:
                else_body: Optional[tuple[TplNode, ...]] = tuple(frame["body"])
                branches = tuple(frame["branches"])
            else:
                else_body = None
                branches = tuple(frame["branches"]) + ((frame["current_expr"], tuple(frame["body"])),)
            stack[-1]["body"].append(IfNode(branches, else_body, frame["pos"]))
        else:
            raise err(f"unknown directive '{word}'", match.start())

    if len(stack) > 1:
        frame = stack[-1]
        line, col = frame["pos"]
        raise TemplateSyntaxError(name, line, col, f"unclosed '{frame['kind']}' block")
    return TemplateAst(name, tuple(root), _compile_body(root, name))


# ---------------------------------------------------------------------------
# values

class ModelView(dict):
    """Read-only template view of one model element; path steps read it as a dict.

    Each attribute is computed on first access and stored: a derived sequence
    from _COMPUTED, or the element's attribute with enums as tokens, tuples as
    lists, model elements as views and absent names as Null. A view never refers
    to the view that made it, so reference counting frees a tree of views."""

    __slots__ = ("element", "model", "owner")

    def __init__(self, element: Any, model: Optional[m.ApplicationModel] = None,
                 owner: Optional[m.Entity] = None):
        self.element = element
        self.model = model  # for localized()'s default language
        self.owner = owner  # the entity that declares a field or constraint

    def __missing__(self, name: str) -> Any:
        compute = _COMPUTED.get((type(self.element), name))
        if compute is not None:
            value = compute(self)
        else:
            value = self._convert(getattr(self.element, name, None))
        self[name] = value
        return value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ModelView) and self.element == other.element

    __ne__ = object.__ne__  # the inverse of __eq__, not dict's comparison

    def _convert(self, value: Any) -> Any:
        if value is None or type(value) in (str, int, bool):
            return value
        if isinstance(value, (m.FieldType, m.RelationshipOp, m.ConstraintKind, m.Caching)):
            return value.value
        if isinstance(value, tuple):
            return [self._convert(v) for v in value]
        if isinstance(value, (m.Entity, m.Field, m.Constraint, m.ColumnSpec,
                              m.Settings, m.LocalizedText, m.ApplicationModel)):
            owner = self.element if isinstance(self.element, m.Entity) else self.owner
            return ModelView(value, self.model, owner)
        return value


def _constraint_fields(view: ModelView) -> list[Optional[ModelView]]:
    by_name = {f.name: f for f in view.owner.fields} if view.owner else {}
    return [view._convert(by_name.get(name)) for name in view.element.cfields]


def _update_columns(view: ModelView) -> list[ModelView]:
    pk_names = {f.name for f in view.element.fields if f.isPK}
    return [c for c in view["insert_columns"] if c.element.name not in pk_names]


_COMPUTED: dict[tuple[type, str], Callable[[ModelView], Any]] = {
    (m.ApplicationModel, "active_entities"):
        lambda v: [e for e in v["entities"] if e.element.isActive],
    (m.Entity, "columns"): lambda v: v._convert(m.effective_columns(v.element)),
    (m.Entity, "pk"): lambda v: next((f for f in v["fields"] if f.element.isPK), None),
    (m.Entity, "insert_columns"):
        lambda v: [c for c in v["columns"] if not c.element.identity],
    (m.Entity, "update_columns"): _update_columns,
    (m.Entity, "edit_fields"): lambda v: [f for f in v["fields"] if f.element.isShownInEdit],
    (m.Entity, "list_fields"): lambda v: [f for f in v["fields"] if f.element.isShownInList],
    (m.Entity, "required_fields"):
        lambda v: [f for f in v["fields"] if f.element.isShownInEdit
                   and not f.element.nullable and not f.element.isIdentity],
    (m.Entity, "unique_constraints"):
        lambda v: [c for c in v["constraints"] if c.element.kind is m.ConstraintKind.UNIQUE],
    (m.Entity, "twofields_constraints"):
        lambda v: [c for c in v["constraints"] if c.element.kind is m.ConstraintKind.TWO_FIELDS],
    (m.Constraint, "fields"): _constraint_fields,
    (m.Constraint, "first_field"): lambda v: v["fields"][0] if v["fields"] else None,
    (m.Constraint, "second_field"):
        lambda v: v["fields"][1] if len(v["fields"]) > 1 else None,
    (m.Constraint, "nullable"):
        lambda v: any(f.element.nullable for f in v["fields"] if f is not None),
}

Value = Union[None, bool, int, str, list, dict]


def truthy(value: Value) -> bool:
    if value is None or value is True or value is False:
        return value is True
    if isinstance(value, ModelView):
        return True
    return bool(value) if isinstance(value, (int, str, list, dict)) else True


# ---------------------------------------------------------------------------
# built-in functions

def sql_operator(rel: Union[str, m.RelationshipOp]) -> str:
    """Relationship token to SQL comparison operator."""
    token = rel.value if isinstance(rel, m.RelationshipOp) else rel
    return {
        "lt": "<", "le": "<=", "gt": ">", "ge": ">=", "neq": "<>", "eq": "=",
    }[token]


def compare_kind(field: Union[m.Field, ModelView]) -> str:
    """Comparison family of a field: "dates" for date/datetime, else "strings"."""
    obj = field.element if isinstance(field, ModelView) else field
    return m.comparison_family(obj.type)


def sql_type(column: Union[m.ColumnSpec, ModelView]) -> str:
    """DDL type of a column: bare token, with parenthesized length for sized strings."""
    obj = column.element if isinstance(column, ModelView) else column
    if obj.length is not None:
        return f"{obj.type.value}({obj.length})"
    return obj.type.value


def _builtin_count(seq: Value) -> int:
    if isinstance(seq, ModelView) or not isinstance(seq, (list, str, dict)):
        raise TypeError("count() expects a sequence")
    return len(seq)


def _builtin_coalesce(value: Value, fallback: Value) -> Value:
    return fallback if value is None else value


def _builtin_localized(node: Value, lang: Value, key: Value) -> str:
    if not isinstance(node, ModelView) \
            or not isinstance(node.element, (m.Entity, m.Field, m.Constraint)):
        raise TypeError("localized() expects an entity, field or constraint")
    default_lang = node.model.settings.defaultLanguage if node.model else None
    return m.localized_text(node.element, str(key), str(lang), default_lang)


BUILTINS: dict[str, Callable[..., Value]] = {
    "sql_operator": sql_operator,
    "compare_kind": compare_kind,
    "sql_type": sql_type,
    "count": _builtin_count,
    "lower": lambda t: str(t).lower(),
    "upper": lambda t: str(t).upper(),
    "coalesce": _builtin_coalesce,
    "localized": _builtin_localized,
}


# ---------------------------------------------------------------------------
# compilation helpers

_Eval = Callable[[dict], Value]
_Body = Callable[[dict, Callable[[str], None]], None]

_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _values_equal(left: Value, right: Value) -> bool:
    if left is None or right is None:
        return left is None and right is None
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    return left == right


def _to_text(value: Value, name: str, pos: Pos) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    raise TemplateRuntimeError(name, *pos, f"cannot render a {type(value).__name__} value as text")


def _compile_body(nodes: Sequence[TplNode], name: str) -> _Body:
    # literal text stays a str; every other node becomes a closure
    steps = tuple(node.text if isinstance(node, TextNode) else node.compile(name)
                  for node in nodes)

    def body(env: dict, append: Callable[[str], None]) -> None:
        for step in steps:
            if type(step) is str:
                append(step)
            else:
                step(env, append)

    return body


def render(ast: TemplateAst, context: Mapping[str, Value]) -> str:
    """Evaluate a template over a context; deterministic and side-effect free."""
    out: list[str] = []
    ast.compiled(dict(context), out.append)
    return "".join(out)


def eval_expr(expr: Union[Expr, str], env: Mapping[str, Value], name: str = "<expr>") -> Value:
    """Evaluate a single expression (parsed on the fly when given as text)."""
    if isinstance(expr, str):
        expr = parse_expr(expr, name)
    return expr.compile(name)(dict(env))
