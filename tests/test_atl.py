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
        "model": newsboard_model,
        "entity": entity,
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
    with pytest.raises(TemplateRuntimeError) as exc:  # a path longer than _INLINE_STEPS
        eval_expr("a.b.c.d.e.name", {"a": {"b": {"c": 3}}})
    assert str(exc.value) == "<expr>:1:1: cannot access '.d' on int value"


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


@pytest.mark.parametrize("expr, env, value", [
    # paths of more than _INLINE_STEPS steps, through dicts into an element, or into Null
    ("a.b.c.d.e.name", lambda e, f, g: {"a": {"b": {"c": {"d": {"e": e}}}}}, "Fakultet"),
    ("a.b.c.d.e.name", lambda e, f, g: {"a": {"b": {"c": None}}}, None),
    # elements are equal where their values are, and always true
    ("e.pk == f.pk", lambda e, f, g: {"e": e, "f": f}, True),
    ("e.pk == g.pk", lambda e, f, g: {"e": e, "g": g}, False),
    ("not e.pk", lambda e, f, g: {"e": e}, False),
])
def test_eval_elements_and_long_paths(newsboard_model, expr, env, value):
    """`env` is given Fakultet, an equal copy of it, and Vest."""
    fakultet, vest = newsboard_model.entities
    copy = Entity(name=fakultet.name, tableName=fakultet.tableName, fields=fakultet.fields)
    assert eval_expr(expr, env(fakultet, copy, vest)) == value


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


def test_json_str_builtin():
    assert R('"{{ json_str(s) }}"', s='a"b\\c\n\r\t\x01é') == '"a\\"b\\\\c\\n\\r\\t\\u0001é"'
    assert R("{{ json_str(n) }}|{{ json_str(t) }}|{{ json_str(x) }}", n=5, t=True, x=None) \
        == "5|true|"
    with pytest.raises(TemplateRuntimeError, match="cannot render a list value as text"):
        R("{{ json_str(items) }}", items=[1])


def test_js_str_builtin():
    assert R("'{{ js_str(s) }}'", s="It's \\ \n\r\x01\x7f\x85é\u2028\u2029") \
        == "'It\\'s \\\\ \\u000a\\u000d\\u0001\\u007f\\u0085é\\u2028\\u2029'"
    assert R("{{ js_str(n) }}|{{ js_str(t) }}|{{ js_str(x) }}", n=5, t=True, x=None) == "5|true|"


def test_html_builtin():
    assert R("<h1>{{ html(s) }}</h1>", s="&lt;b&gt; <i> \"it's\"") \
        == "<h1>&amp;lt;b&amp;gt; &lt;i&gt; &quot;it&#x27;s&quot;</h1>"
    with pytest.raises(TemplateRuntimeError, match="cannot render a list value as text"):
        R("{{ html(items) }}", items=[1])


def test_localized_builtin():
    entity = Entity(
        name="Fakultet", tableName="Fakultet",
        displayNames=LocalizedText((("Macedonian", "Факултет"), ("English", "Faculty"))),
        pluralNames=LocalizedText((("English", "Faculties"),)),
    )
    model = ApplicationModel(settings=Settings(defaultLanguage="English"),
                             entities=(entity,), languages=("Macedonian", "English"))
    context = {"e": entity, atl.DEFAULT_LANGUAGE: model.settings.defaultLanguage}
    assert R("{{ localized(e, 'English', 'display') }}", **context) == "Faculty"
    assert R("{{ localized(e, 'Macedonian', 'display') }}", **context) == "Факултет"
    # missing language falls back through the default
    assert R("{{ localized(e, 'German', 'display') }}", **context) == "Faculty"
    assert R("{{ localized(e, 'English', 'plural') }}", **context) == "Faculties"
    # with no default language, through the first language declared
    assert R("{{ localized(e, 'German', 'display') }}", e=entity) == "Факултет"


# -- runtime error locations -----------------------------------------------

# MAX_DEPTH blocks, alternately for and if; the loop variable v is each item
_DEEP_OPEN = "{% for v in items %}{% if true %}" * (atl.MAX_DEPTH // 2)
_DEEP_CLOSE = "{% endif %}{% endfor %}" * (atl.MAX_DEPTH // 2)

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
    pytest.param(_DEEP_OPEN + "\n  {{ nope }}" + _DEEP_CLOSE, {"items": [1]}, 2, 6,
                 "unknown name 'nope'", id="unknown name 100 levels deep"),
    pytest.param(_DEEP_OPEN + "\n{{ v < 'a' }}" + _DEEP_CLOSE, {"items": [1]}, 2, 6,
                 "cannot compare int with str", id="comparison 100 levels deep"),
    pytest.param(_DEEP_OPEN[:-len("{% if true %}")] + "\n{% for x in v.name %}{% endfor %}"
                 + _DEEP_CLOSE[len("{% endif %}"):], {"items": [{"name": "n"}]}, 2, 1,
                 "for-loop expression is not a sequence", id="for 100 levels deep"),
    pytest.param(_DEEP_OPEN + "\n {{ loop.index.value }}" + _DEEP_CLOSE, {"items": [1]}, 2, 5,
                 "cannot access '.value' on int value", id="loop.index 100 levels deep"),
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


# -- hostile names and literals ---------------------------------------------

# (source, context, expected): the exact output, or the (line, column, reason)
# of the error; names, attributes and literals that mean something to Python
HOSTILE = [
    ("{{ class }}{{ None }}{{ def }}", {"class": "c", "None": "n", "def": "d"}, "cnd"),
    ("{{ __import__ }}{{ env }}{{ append }}{{ t1 }}",
     {"__import__": "i", "env": "e", "append": "a", "t1": 1}, "iea1"),
    ("{{ class }}", {}, (1, 4, "unknown name 'class'")),
    ("{{ None }}", {"none": 1}, (1, 4, "unknown name 'None'")),
    ("{{ __builtins__ }}", {}, (1, 4, "unknown name '__builtins__'")),
    ("{{ env.x }}", {"x": 1}, (1, 4, "unknown name 'env'")),
    ("{{ d.class }}|{{ d.None }}|{{ d.__class__ }}|{{ d.keys }}",
     {"d": {"class": "k", "None": 0}}, "k|0||"),
    # an element reads its fields and computed names; anything else is Null
    ("{{ e.__class__ }}", {"e": "ENTITY"}, ""),
    ("{{ e.__class__.__name__ }}", {"e": "ENTITY"}, ""),
    ("{{ e.name }}{{ e.class }}{{ e.None }}", {"e": "ENTITY"}, "Fakultet"),
    ("{% for class in items %}{{ class }}{% endfor %}", {"items": [1, 2]}, "12"),
    ("{% for None in items %}{{ None }}{% endfor %}", {"items": ["a"]}, "a"),
    ("{% for env in items %}{{ env }}{{ append }}{% endfor %}",
     {"items": [1], "append": "A"}, "1A"),
    ("{% for t1 in items %}{% for t2 in t1 %}{{ t1.x }}{{ t2 }}{% endfor %}{% endfor %}",
     {"items": [[1, 2]]}, (1, 43, "cannot access '.x' on list value")),
    ("{% for __import__ in items %}{{ __import__ }}{% endfor %}", {"items": [3]}, "3"),
    ("{% for x in items %}{{ x }}{% endfor %}{{ x }}", {"x": "ctx", "items": [1, 2]}, "12ctx"),
    ("{% for x in x %}{{ x }}{% endfor %}{{ count(x) }}", {"x": ["a", "b"]}, "ab2"),
    ("{% for loop in items %}{{ loop.index }}{% endfor %}", {"items": ["a", "b"]},
     (1, 8, "a for variable named 'loop' hides the loop's own 'loop'")),
    ("{% for loop in items %}{{ loop }}{% endfor %}", {"items": ["a"]},
     (1, 8, "a for variable named 'loop' hides the loop's own 'loop'")),
    ("{% for x in items %}{{ loop.x }}{{ loop.length }}{% endfor %}{{ loop }}",
     {"items": [1], "loop": "outer"}, "1outer"),
    ("{{ loop.index }}", {}, (1, 4, "unknown name 'loop'")),
    ("{% for x in a %}{% for y in b %}{{ loop.index }}{% endfor %}{{ loop.index }}{% endfor %}",
     {"a": [1, 2], "b": [1, 2, 3]}, "12311232"),
    ("{{ '''' }}", {}, (1, 6, "unexpected \"''\"")),
    ("{{ \"'''\" }}{{ '\"\"\"' }}", {}, "'''\"\"\""),
    ("{{ '\\\\' }}{{ '\\n' }}{{ \"\\'\" }}", {}, "\\\\\\n\\'"),
    ("{{ '\r\x00' }}", {}, "\r\x00"),
    ("{{ '__import__(\"os\").system(\"x\")' }}", {}, "__import__(\"os\").system(\"x\")"),
    ("{% if x == '\\'' %}same{% endif %}", {"x": "\\'"}, (1, 15, "unexpected character \"'\"")),
    ("''' \"\"\" \\ \\n \r \x00 ');\nimport os; os._exit(1) #", {},
     "''' \"\"\" \\ \\n \r \x00 ');\nimport os; os._exit(1) #"),
    ("\\{{ x }}\\", {"x": "\\"}, "\\\\\\"),
    ("{{ __import__('os') }}", {}, (1, 4, "unknown function '__import__'")),
    ("{{ eval('1') }}{{ exec }}", {"exec": 1}, (1, 4, "unknown function 'eval'")),
    ("{{ lower(class) }}{{ upper(None) }}", {"class": "C", "None": "n"}, "cN"),
    ("{{ 007 }}{{ 10 == 010 }}", {}, "7true"),
    # an element reads nothing but its fields and computed names
    ("{{ e.__module__ }}|{{ e.__dict__ }}|{{ e.displayNames.first }}|{{ e.pk.name }}",
     {"e": "ENTITY"}, "|||ID"),
    ("{{ count(e.__dict__) }}", {"e": "ENTITY"}, (1, 4, "count(): count() expects a sequence")),
    # lower and upper convert as output does, and take no element, list or dict
    ("{{ lower(x) }}|{{ upper(t) }}|{{ lower(7) }}|{{ upper(f) }}",
     {"x": None, "t": True, "f": False}, "|TRUE|7|FALSE"),
    ("{{ e.name }}{{ lower(e) }}", {"e": "ENTITY"},
     (1, 16, "lower(): cannot render a Entity value as text")),
    ("{{ upper(items) }}", {"items": [1]}, (1, 4, "upper(): cannot render a list value as text")),
    ("{{ lower(d) }}", {"d": {}}, (1, 4, "lower(): cannot render a dict value as text")),
]


@pytest.mark.parametrize("source, context, expected", HOSTILE)
def test_hostile_names_and_literals(source, context, expected, newsboard_model):
    entity = newsboard_model.entities[0]
    context = {k: entity if v == "ENTITY" else v for k, v in context.items()}
    try:
        assert render(parse_template(source, "t.atl"), context) == expected
    except (TemplateSyntaxError, TemplateRuntimeError) as exc:
        assert (exc.line, exc.column, exc.reason) == expected


# -- render is total ----------------------------------------------------------

_NAMES = ["x", "a", "e", "items", "loop", "class", "None", "env", "t1", "append"]
_ATTRS = ["name", "fields", "length", "b", "index", "first", "last", "class", "__class__"]
_PATHS = st.builds(lambda head, attrs: ".".join([head, *attrs]),
                   st.sampled_from(_NAMES), st.lists(st.sampled_from(_ATTRS), max_size=2))
_LITERALS = st.sampled_from(["0", "7", "true", "false", "''", "'a'", '"B"', "'\\\\'"])
_EXPRS = st.recursive(st.one_of(_PATHS, _LITERALS), lambda inner: st.one_of(
    inner.map("not {}".format),
    st.builds("({} {} {})".format, inner,
              st.sampled_from(["and", "or", "==", "!=", "<", "<=", ">", ">="]), inner),
    st.builds(lambda func, args: f"{func}({', '.join(args)})",
              st.sampled_from([*atl.BUILTINS, "frob"]), st.lists(inner, max_size=3)),
), max_leaves=6)
_TEXTS = st.lists(st.sampled_from(["a", " ", "\n", "'''", '"', "\\", "}", "%"]),
                  max_size=4).map("".join)
_TEMPLATES = st.recursive(
    st.one_of(_TEXTS, st.builds(lambda trim, e, rtrim: f"{{{{{trim} {e} {rtrim}}}}}",
                                st.sampled_from(["", "-"]), _EXPRS, st.sampled_from(["", "-"]))),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=4).map("".join),
        st.builds("{{% for {} in {} %}}{}{{% endfor %}}".format,
                  st.sampled_from(_NAMES), _EXPRS, inner),
        st.builds(lambda cond, body, elifs, else_: f"{{% if {cond} %}}{body}"
                  + "".join(f"{{% elif {c} %}}{b}" for c, b in elifs)
                  + ("" if else_ is None else f"{{% else %}}{else_}") + "{% endif %}",
                  _EXPRS, inner, st.lists(st.tuples(_EXPRS, inner), max_size=2),
                  st.none() | inner),
    ), max_leaves=8)


def _values(elements):
    scalars = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                        st.sampled_from(["", "a", "B"]), st.sampled_from(elements))
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(_ATTRS), inner, max_size=3)), max_leaves=6)


@given(source=st.one_of(_SOUP, _TEMPLATES), data=st.data())
def test_render_is_total(newsboard_model, source, data):
    try:
        ast = parse_template(source, "t.atl")
    except TemplateSyntaxError:
        return
    model = newsboard_model
    entity = model.entities[0]
    elements = [model, *model.entities, entity.fields[1], entity.constraints[0]]
    context = data.draw(st.dictionaries(st.sampled_from(_NAMES), _values(elements), max_size=6))
    try:
        text = render(ast, context)
    except TemplateRuntimeError:
        return
    assert type(text) is str
