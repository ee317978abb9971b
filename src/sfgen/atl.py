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


def parse_expr(source: str, name: str = "<expr>") -> Expr:
    return _Parser(source, name).expr(0, len(source))


def parse_template(source: str, name: str) -> TemplateAst:
    """Parse ATL source into an immutable AST; literal text is preserved
    byte-exactly except where trim markers apply."""
    nodes, _ = _Parser(source, name).block(0)
    return TemplateAst(name, nodes, _compile_body(nodes, name))


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
