import pytest
from hypothesis import given, strategies as st

from sfgen import atl
from sfgen.atl import (
    TemplateRuntimeError,
    TemplateSyntaxError,
    compare_kind,
    eval_expr,
    parse_template,
    render,
    sql_operator,
    sql_type,
)
from sfgen.model import (
    ApplicationModel,
    ColumnSpec,
    Entity,
    Field,
    FieldType,
    LocalizedText,
    RelationshipOp,
    Settings,
)


def R(source, **context):
    return render(parse_template(source, "<test>"), context)


@pytest.fixture
def fakultet_ctx(newsboard_model):
    entity = newsboard_model.entities[0]
    return {
        "model": atl.ModelView(newsboard_model, newsboard_model),
        "entity": atl.ModelView(entity, newsboard_model),
        "lang": "English",
    }


# -- parsing ----------------------------------------------------------------

def test_parse_plain_text():
    ast = parse_template("hello", "t")
    assert len(ast.nodes) == 1
    assert ast.nodes[0].text == "hello"


def test_parse_single_output():
    ast = parse_template("{{ entity.name }}", "t")
    assert isinstance(ast.nodes[0], atl.OutputNode)
    assert ast.nodes[0].expr.names == ("entity", "name")


def test_mismatched_block_close():
    with pytest.raises(TemplateSyntaxError):
        parse_template("{% for f in entity.fields %}x{% endif %}", "t")


def test_unclosed_block():
    with pytest.raises(TemplateSyntaxError, match="unclosed"):
        parse_template("{% if x %}y", "t")


@pytest.mark.parametrize("bad", ["{{ }}", "{% frob %}", "{{ a..b }}", "{% for in x %}{% endfor %}",
                                 "{{ a", "{# never closed"])
def test_syntax_errors(bad):
    with pytest.raises(TemplateSyntaxError):
        parse_template(bad, "t")


def test_syntax_error_carries_position():
    with pytest.raises(TemplateSyntaxError) as exc:
        parse_template("line one\n{% bogus %}", "mytpl")
    assert exc.value.name == "mytpl"
    assert exc.value.line == 2


# (source, line, column, reason); a block error is located at its tag, an
# expression error at the token, or where the expression ends
SYNTAX_ERRORS = [
    ("{# never closed", 1, 1, "unterminated comment"),
    ("ab\n  {{ a", 2, 3, "unterminated output expression"),
    ("{% if x %}\n{% endif", 2, 1, "unterminated directive"),
    ("x {% frob %}", 1, 3, "unknown directive 'frob'"),
    ("{% for in x %}{% endfor %}", 1, 1, "malformed for directive; expected 'for NAME in EXPR'"),
    ("{% for x in %}{% endfor %}", 1, 1, "malformed for directive; expected 'for NAME in EXPR'"),
    ("{% endfor %}", 1, 1, "'endfor' without matching 'for'"),
    ("{% if a %}\n{% endfor %}", 2, 1, "'endfor' without matching 'for'"),
    ("{% for x in a %}{% endif %}{% endfor %}", 1, 17, "'endif' without matching 'if'"),
    ("{% endif %}", 1, 1, "'endif' without matching 'if'"),
    ("{% elif x %}", 1, 1, "'elif' without matching 'if'"),
    ("{% if a %}{% else %}{% elif b %}{% endif %}", 1, 21, "'elif' without matching 'if'"),
    ("{% if a %}{% else %}{% else %}{% endif %}", 1, 21, "'else' without matching 'if'"),
    ("{% if a %}{% else x %}{% endif %}", 1, 11, "'else' without matching 'if'"),
    ("{% if a %}\n  {% for x in b %}", 2, 3, "unclosed 'for' block"),
    ("{% for x in b %}{% if a %}{% else %}", 1, 17, "unclosed 'if' block"),
    ("{{ }}", 1, 4, "unexpected end of expression"),
    ("{% if a ==  %}{% endif %}", 1, 11, "unexpected end of expression"),
    ("{{ a. }}", 1, 7, "unexpected end of expression"),
    ("{{ (a }}", 1, 7, "unexpected end of expression"),
    ("{{ a b }}", 1, 6, "unexpected 'b'"),
    ("{{ == }}", 1, 4, "unexpected '=='"),
    ("{% if a\n  b %}{% endif %}", 2, 3, "unexpected 'b'"),
    ("{{ f(a b) }}", 1, 8, "expected ')', got 'b'"),
    ("{{ a..b }}", 1, 6, "expected attribute name after '.', got '.'"),
    ("{% for x in a.1 %}{% endfor %}", 1, 15, "expected attribute name after '.', got '1'"),
    ("{{ a + b }}", 1, 6, "unexpected character '+'"),
    ("{{ x | upper }}", 1, 6, "unexpected character '|'"),
    ("{{ '}}' }}", 1, 4, "unexpected character \"'\""),
    ("x\n{% if a |b %}{% endif %}", 2, 9, "unexpected character '|'"),
    pytest.param("{{ " + " and ".join(["a"] * 1000) + " }}", 1, 606,
                 "expression nested too deeply", id="1000-term and"),
    pytest.param("{{ " + "(" * 200 + "a" + ")" * 200 + " }}", 1, 104,
                 "expression nested too deeply", id="200 parentheses"),
    pytest.param("{{ " + "not " * 1000 + "a }}", 1, 404,
                 "expression nested too deeply", id="1000 nots"),
    pytest.param("{{ " + "lower(" * 200 + "a" + ")" * 200 + " }}", 1, 604,
                 "expression nested too deeply", id="200 calls"),
    pytest.param("{{ " + ("not " * 100 + "(") * 10 + "a" + ")" * 10 + " }}", 1, 404,
                 "expression nested too deeply", id="nots in parentheses"),
    pytest.param("{{ " + ("not " * 100 + "lower(") * 10 + "a" + ")" * 10 + " }}", 1, 404,
                 "expression nested too deeply", id="nots in calls"),
    pytest.param("{{ " + "(a or a and a == " * 100 + "a" + ")" * 100 + " }}", 1, 429,
                 "expression nested too deeply", id="right operands"),
    pytest.param("{{ " + "1" * 5000 + " }}", 1, 4, "integer literal too long",
                 id="5000-digit literal"),
]


@pytest.mark.parametrize("source, line, column, reason", SYNTAX_ERRORS)
def test_syntax_errors_are_located(source, line, column, reason):
    with pytest.raises(TemplateSyntaxError) as exc:
        parse_template(source, "t.atl")
    assert (exc.value.name, exc.value.line, exc.value.column, exc.value.reason) \
        == ("t.atl", line, column, reason)
    assert str(exc.value) == f"t.atl:{line}:{column}: {reason}"


_SOUP = st.lists(st.sampled_from([
    "{{", "}}", "{{-", "-}}", "{%", "%}", "{%-", "-%}", "{#", "#}", "'", '"', "+", "|",
    "for", "in", "if", "elif", "else", "endif", "endfor", "x", "a.b", " ", "\n",
])).map("".join)


@given(_SOUP)
def test_parse_template_is_total(source):
    try:
        parse_template(source, "t.atl")
    except TemplateSyntaxError:
        pass


@pytest.mark.parametrize("tag, end", [("{% if true %}", "{% endif %}"),
                                      ("{% for x in items %}", "{% endfor %}")],
                         ids=["if", "for"])
def test_nesting_is_bounded(tag, end):
    nested = tag * atl.MAX_DEPTH + "{{ 1 }}" + end * atl.MAX_DEPTH
    assert R(nested, items=[0]) == "1"
    with pytest.raises(TemplateSyntaxError) as exc:
        parse_template(tag * 1000 + end * 1000, "t.atl")
    assert (exc.value.line, exc.value.column, exc.value.reason) \
        == (1, atl.MAX_DEPTH * len(tag) + 1, "blocks nested too deeply")


@pytest.mark.parametrize("expr, value", [
    (" and ".join(["true"] * (atl.MAX_DEPTH + 1)), "true"),
    ("(" * atl.MAX_DEPTH + "1" + ")" * atl.MAX_DEPTH, "1"),
    ("not " * atl.MAX_DEPTH + "true", "true"),
    ("lower(" * atl.MAX_DEPTH + "'X'" + ")" * atl.MAX_DEPTH, "x"),
    ("(true or true and 1 == " * (atl.MAX_DEPTH // 4) + "1" + ")" * (atl.MAX_DEPTH // 4), "true"),
], ids=["and", "parens", "not", "calls", "right operands"])
def test_deepest_expression_in_deepest_blocks(expr, value):
    tag, end = "{% if true %}", "{% endif %}"
    assert R(tag * atl.MAX_DEPTH + "{{ " + expr + " }}" + end * atl.MAX_DEPTH) == value


# -- rendering --------------------------------------------------------------

def test_render_output(fakultet_ctx):
    assert R("Hello {{ entity.name }}", **fakultet_ctx) == "Hello Fakultet"


def test_empty_template():
    assert R("") == ""


def test_loop_separator_idiom(fakultet_ctx):
    src = "{% for f in entity.fields %}{{ f.name }}{% if not loop.last %}, {% endif %}{% endfor %}"
    assert R(src, **fakultet_ctx) == "ID, strName"


@given(st.integers(min_value=0, max_value=30))
def test_separator_count_property(n):
    src = "{% for x in items %}i{% if not loop.last %},{% endif %}{% endfor %}"
    out = R(src, items=list(range(n)))
    assert out.count(",") == max(0, n - 1)
    assert out.count("i") == n


def test_loop_meta():
    src = ("{% for x in items %}{{ loop.index }}/{{ loop.length }}"
           "{% if loop.first %}F{% endif %}{% if loop.last %}L{% endif %};{% endfor %}")
    assert R(src, items=["a", "b", "c"]) == "1/3F;2/3;3/3L;"


def test_nested_loops_restore_bindings():
    src = ("{% for x in outer %}{% for x in inner %}{{ x }}{% endfor %}{{ x }}{% endfor %}")
    assert R(src, outer=["A"], inner=["b"]) == "bA"


def test_if_elif_else():
    src = "{% if v == 1 %}one{% elif v == 2 %}two{% else %}many{% endif %}"
    assert R(src, v=1) == "one"
    assert R(src, v=2) == "two"
    assert R(src, v=9) == "many"


def test_truthiness():
    src = "{% if v %}T{% else %}F{% endif %}"
    for falsy in (None, False, 0, "", []):
        assert R(src, v=falsy) == "F"
    for truthy in (True, 1, "x", [0]):
        assert R(src, v=truthy) == "T"


def test_comments_removed():
    assert R("a{# comment #}b") == "ab"


def test_trim_markers():
    assert R("a  \n  {%- if true %}b{% endif %}") == "ab"
    assert R("{% if true -%}\n  b{% endif %}") == "b"
    assert R("x {{- 1 }}") == "x1"
    assert R("{{ 1 -}} \n x") == "1x"
    # at most one newline is stripped
    assert R("a\n\n{%- if true %}b{% endif %}") == "a\nb"


def test_null_propagation(fakultet_ctx):
    # ID has no length: optional absent attribute yields Null, rendered empty
    src = "{% for f in entity.fields %}[{{ f.length }}]{% endfor %}"
    assert R(src, **fakultet_ctx) == "[][30]"
    # if on Null takes the false branch
    src = "{% if entity.fields %}{% if entity.nosuchthing %}T{% else %}F{% endif %}{% endif %}"
    assert R(src, **fakultet_ctx) == "F"


def test_path_through_null_propagates():
    assert R("{{ a.b.c }}", a=None) == ""


def test_field_access_into_scalar_errors():
    with pytest.raises(TemplateRuntimeError, match="cannot access"):
        R("{{ a.b }}", a=42)


def test_unknown_name_errors():
    with pytest.raises(TemplateRuntimeError, match="unknown name"):
        R("{{ nope }}")


def test_unknown_function_errors():
    with pytest.raises(TemplateRuntimeError, match="unknown function"):
        R("{{ frob(1) }}")


def test_loop_over_non_sequence_errors():
    with pytest.raises(TemplateRuntimeError, match="not a sequence"):
        R("{% for x in v %}{% endfor %}", v=5)


def test_render_does_not_mutate_context(fakultet_ctx):
    context = dict(fakultet_ctx)
    before = dict(context)
    R("{% for f in entity.fields %}{{ f.name }}{% endfor %}", **context)
    assert context == before


def test_render_deterministic(fakultet_ctx):
    src = "{% for f in entity.fields %}{{ f.name }}:{{ f.type }};{% endfor %}"
    assert R(src, **fakultet_ctx) == R(src, **fakultet_ctx) == "ID:int;strName:nvarchar;"


# -- expressions ------------------------------------------------------------

def test_eval_paper_values(fakultet_ctx):
    assert eval_expr("entity.isLogged", fakultet_ctx) is True
    assert eval_expr("1 == 1", {}) is True


def test_comparisons():
    assert eval_expr("1 < 2", {}) is True
    assert eval_expr("'a' < 'b'", {}) is True
    assert eval_expr("2 >= 2", {}) is True
    assert eval_expr("1 != 2", {}) is True
    with pytest.raises(TemplateRuntimeError, match="cannot compare"):
        eval_expr("1 < 'a'", {})


def test_null_comparisons():
    assert eval_expr("v == w", {"v": None, "w": None}) is True
    assert eval_expr("v == 1", {"v": None}) is False
    assert eval_expr("v < 1", {"v": None}) is False
    assert eval_expr("v != 1", {"v": None}) is True


def test_boolean_operators_short_circuit():
    # 'or' must not evaluate the failing right side
    assert eval_expr("true or nosuch.x", {"nosuch": 3}) is True
    assert eval_expr("false and nosuch.x", {"nosuch": 3}) is False
    assert eval_expr("not false", {}) is True


def test_string_literals_both_quotes():
    assert eval_expr("'a' == \"a\"", {}) is True


# -- built-ins --------------------------------------------------------------

def test_sql_operator_table():
    # the full relationship -> operator lowering table
    expected = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "neq": "<>", "eq": "="}
    for token, op in expected.items():
        assert sql_operator(token) == op
        assert sql_operator(RelationshipOp(token)) == op
    assert set(expected.values()) == {"<", "<=", ">", ">=", "<>", "="}
    assert len(set(expected.values())) == 6  # bijection


def test_compare_kind():
    assert compare_kind(Field(name="a", type=FieldType.DATETIME)) == "dates"
    assert compare_kind(Field(name="a", type=FieldType.DATE)) == "dates"
    assert compare_kind(Field(name="a", type=FieldType.NVARCHAR, length=10)) == "strings"
    assert compare_kind(Field(name="a", type=FieldType.INT)) == "strings"


def test_sql_type():
    assert sql_type(ColumnSpec(name="x", type=FieldType.NVARCHAR, length=30)) == "nvarchar(30)"
    assert sql_type(ColumnSpec(name="x", type=FieldType.INT)) == "int"
    assert sql_type(ColumnSpec(name="x", type=FieldType.VARCHAR, length=50)) == "varchar(50)"


def test_text_builtins():
    assert R("{{ lower('ABC') }}{{ upper('x') }}{{ count(items) }}", items=[1, 2]) == "abcX2"
    assert R("{{ coalesce(v, 'fallback') }}", v=None) == "fallback"
    assert R("{{ coalesce(v, 'fallback') }}", v="real") == "real"


def test_localized_builtin():
    entity = Entity(
        name="Fakultet", tableName="Fakultet",
        displayNames=LocalizedText((("Macedonian", "Факултет"), ("English", "Faculty"))),
        pluralNames=LocalizedText((("English", "Faculties"),)),
    )
    model = ApplicationModel(settings=Settings(defaultLanguage="English"),
                             entities=(entity,), languages=("Macedonian", "English"))
    node = atl.ModelView(entity, model)
    assert R("{{ localized(e, 'English', 'display') }}", e=node) == "Faculty"
    assert R("{{ localized(e, 'Macedonian', 'display') }}", e=node) == "Факултет"
    # missing language falls back through the default
    assert R("{{ localized(e, 'German', 'display') }}", e=node) == "Faculty"
    assert R("{{ localized(e, 'English', 'plural') }}", e=node) == "Faculties"


# -- runtime error locations -----------------------------------------------

# (source, context, line, column, reason); an expression inside a directive is
# located from where it starts in the template, as one inside '{{ }}' is
RUNTIME_ERRORS = [
    ("{{ nope }}", {}, 1, 4, "unknown name 'nope'"),
    ("ab\n  {{ x.y }}{{ nope.z }}", {"x": None}, 2, 15, "unknown name 'nope'"),
    ("{{ frob(1) }}", {}, 1, 4, "unknown function 'frob'"),
    ("x\n{{ upper(frob(nope)) }}", {}, 2, 10, "unknown function 'frob'"),
    ("{{ a.b }}", {"a": 42}, 1, 4, "cannot access '.b' on int value"),
    ("{% if true %}\n {{ s.len }}{% endif %}", {"s": "text"}, 2, 5,
     "cannot access '.len' on str value"),
    ("{{ items.first }}", {"items": [1]}, 1, 4, "cannot access '.first' on list value"),
    ("{{ 1 < 'a' }}", {}, 1, 6, "cannot compare int with str"),
    ("{% if v >= true %}{% endif %}", {"v": 1}, 1, 9, "cannot compare int with bool"),
    ("{% if\n  a <= b %}{% endif %}", {"a": [1], "b": [2]}, 2, 5,
     "cannot compare list with list"),
    ("{% for x in v %}{% endfor %}", {"v": 5}, 1, 1, "for-loop expression is not a sequence"),
    ("line\n  {%- for x in d %}{% endfor %}", {"d": {"k": 1}}, 2, 3,
     "for-loop expression is not a sequence"),
    ("{{ items }}", {"items": [1]}, 1, 1, "cannot render a list value as text"),
    ("a {{ d }}", {"d": {}}, 1, 3, "cannot render a dict value as text"),
    ("{{ count(1) }}", {}, 1, 4, "count(): count() expects a sequence"),
    ("{{ sql_operator('zz') }}", {}, 1, 4, "sql_operator(): 'zz'"),
    ("{{ sql_type(1) }}", {}, 1, 4, "sql_type(): 'int' object has no attribute 'length'"),
    ("{{ compare_kind(1) }}", {}, 1, 4,
     "compare_kind(): 'int' object has no attribute 'type'"),
    ("{{ localized(1, 'English', 'display') }}", {}, 1, 4,
     "localized(): localized() expects an entity, field or constraint"),
    ("{{ lower() }}", {}, 1, 4,
     "lower(): <lambda>() missing 1 required positional argument: 't'"),
    ("{% for x in a.b %}{% endfor %}", {"a": 42}, 1, 13, "cannot access '.b' on int value"),
    ("{% if false %}{% elif v >= true %}{% endif %}", {"v": 1}, 1, 25,
     "cannot compare int with bool"),
]


@pytest.mark.parametrize("source, context, line, column, reason", RUNTIME_ERRORS)
def test_runtime_errors_are_located(source, context, line, column, reason):
    with pytest.raises(TemplateRuntimeError) as exc:
        render(parse_template(source, "t.atl"), context)
    assert (exc.value.name, exc.value.line, exc.value.column, exc.value.reason) \
        == ("t.atl", line, column, reason)
    assert str(exc.value) == f"t.atl:{line}:{column}: {reason}"


@pytest.mark.parametrize("source, expected", [
    ("{% if false %}{{ frob(1) }}{% endif %}", ""),
    ("{{ false and frob(1) }}", "false"),
])
def test_code_that_never_runs_raises_nothing(source, expected):
    assert render(parse_template(source, "t.atl"), {}) == expected
