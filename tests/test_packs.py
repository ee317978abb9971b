import contextlib
import dataclasses
import gc
import html
import json
import posixpath
import re

import pytest
from hypothesis import assume, example, given, strategies as st

from sfgen import atl, packs
from sfgen.loader import load_model, validate_model
from sfgen.model import (ApplicationModel, Constraint, ConstraintKind, Entity, Field, FieldType,
                         LocalizedText, RelationshipOp, Settings)
from sfgen.ownership import Ownership, _unsafe
from sfgen.packs import (
    PackError,
    PathCollision,
    generate_all,
    load_pack,
)

from conftest import GOLDEN, render_pack


MINIMAL_PACK = {
    "pack.json": '{"name": "p", "version": "1", "outputs": ['
                 '{"template": "t.atl", "path": "docs/{entity.name}.md", '
                 '"per": "entity", "ownership": "always"}]}',
    "t.atl": "# {{ entity.name }}\n",
}


def test_load_webstack_pack(webstack):
    # the reference pack: 8 artifact kinds, two of which need a rule pair
    assert webstack.name == "webstack"
    assert len(webstack.outputs) == 10
    assert set(webstack.templates) == {r.template for r in webstack.outputs}


def test_missing_manifest():
    with pytest.raises(PackError, match="pack.json"):
        load_pack({"t.atl": "x"})


def test_rule_references_missing_template():
    listing = dict(MINIMAL_PACK)
    del listing["t.atl"]
    with pytest.raises(PackError, match="t.atl"):
        load_pack(listing)


def test_unparsable_template():
    listing = dict(MINIMAL_PACK)
    listing["t.atl"] = "{% if x %}"
    with pytest.raises(PackError):
        load_pack(listing)


@pytest.mark.parametrize("path", ["../escape.md", "/abs.md", "a/../../b",
                                  # any placeholder but name and tableName
                                  "x/{entity.__module__}.md", "x/{entity.__doc__}.md",
                                  "x/{entity.nmae}.md", "x/{entity.fields}.md",
                                  # braces that enclose no placeholder
                                  "docs/{ entity.name }.md", "docs/{model.name}.md",
                                  "docs/{entity.name.md", "docs/entity.name}.md",
                                  # a NUL, which no file name holds
                                  "docs/\\u0000{entity.name}.md"])
def test_bad_path_patterns(path):
    listing = dict(MINIMAL_PACK)
    listing["pack.json"] = MINIMAL_PACK["pack.json"].replace("docs/{entity.name}.md", path)
    with pytest.raises(PackError, match=r"^output rule #1 \("):
        load_pack(listing)


def test_per_model_pattern_rejects_placeholders():
    listing = dict(MINIMAL_PACK)
    listing["pack.json"] = MINIMAL_PACK["pack.json"].replace('"per": "entity"', '"per": "model"')
    with pytest.raises(PackError, match="placeholder"):
        load_pack(listing)


def _pack(*rules, template="x\n"):
    # one template, rendered by each (path, per) rule with ALWAYS ownership
    outputs = ", ".join(
        f'{{"template": "t.atl", "path": "{path}", "per": "{per}", "ownership": "always"}}'
        for path, per in rules)
    return load_pack({"pack.json": f'{{"name": "p", "version": "1", "outputs": [{outputs}]}}',
                      "t.atl": template})


def test_expand_per_entity(newsboard_model):
    pack = _pack(("docs/{entity.name}.md", "entity"),
                 template="# {{ entity.name }} of {{ count(model.entities) }}\n")
    artifacts = generate_all(newsboard_model, pack)
    assert [(a.path, a.content) for a in artifacts] == [
        ("docs/Fakultet.md", b"# Fakultet of 2\n"), ("docs/Vest.md", b"# Vest of 2\n")]


def test_expand_skips_inactive_entities():
    model, _ = load_model(
        b'<xsource><EntityConfig>'
        b'<Entity name="Ghost" tableName="Ghost" isActive="false">'
        b'<Field name="ID" type="int" isPK="true"/></Entity>'
        b"</EntityConfig></xsource>")
    assert generate_all(model, load_pack(MINIMAL_PACK)) == []


def test_expand_per_model_single_pair(newsboard_model):
    artifacts = generate_all(newsboard_model, _pack(("sql/./001_tables.sql", "model")))
    assert [a.path for a in artifacts] == ["sql/001_tables.sql"]


def test_path_collision_across_entities():
    model, _ = load_model(
        b'<xsource><EntityConfig>'
        b'<Entity name="A" tableName="T1"><Field name="ID" type="int" isPK="true"/></Entity>'
        b'<Entity name="B" tableName="T2"><Field name="ID" type="int" isPK="true"/></Entity>'
        b"</EntityConfig></xsource>")
    with pytest.raises(PathCollision) as caught:
        generate_all(model, _pack(("docs/all.md", "entity")))
    assert str(caught.value) == ("output rule #1 for entity 'A' and output rule #1 "
                                 "for entity 'B' both produce 'docs/all.md'")


def test_path_collision_across_rules(newsboard_model):
    pack = _pack(("docs/index.md", "model"), ("docs/{entity.name}.md", "entity"),
                 ("docs/./Vest.md", "model"))
    with pytest.raises(PathCollision) as caught:
        generate_all(newsboard_model, pack)
    assert str(caught.value) == \
        "output rule #2 for entity 'Vest' and output rule #3 both produce 'docs/Vest.md'"


def test_path_collision_of_one_entity_across_rules(newsboard_model):
    pack = _pack(("docs/{entity.name}.md", "entity"), ("docs/{entity.tableName}.md", "entity"))
    with pytest.raises(PathCollision) as caught:
        generate_all(newsboard_model, pack)
    assert str(caught.value) == ("output rule #1 for entity 'Fakultet' and output rule #2 "
                                 "for entity 'Fakultet' both produce 'docs/Fakultet.md'")


@pytest.mark.parametrize("rules, message", [
    # 'docs-x' sorts between 'docs' and 'docs/Fakultet.md', since '-' sorts before '/'
    ((("docs/{entity.name}.md", "entity"), ("docs-x", "model"), ("docs", "model")),
     "output rule #3 produces 'docs' and output rule #1 for entity 'Fakultet' produces "
     "'docs/Fakultet.md': 'docs' cannot be both a file and a directory"),
    ((("a", "model"), ("a/b/{entity.name}/c.txt", "entity")),
     "output rule #1 produces 'a' and output rule #2 for entity 'Fakultet' produces "
     "'a/b/Fakultet/c.txt': 'a' cannot be both a file and a directory"),
    ((("sql/{entity.name}", "entity"), ("sql/Vest/x.sql", "model")),
     "output rule #1 for entity 'Vest' produces 'sql/Vest' and output rule #2 produces "
     "'sql/Vest/x.sql': 'sql/Vest' cannot be both a file and a directory"),
])
def test_a_path_that_is_a_directory_of_another_collides_before_any_read(newsboard_model, rules,
                                                                       message):
    reads = []
    with pytest.raises(PathCollision) as caught:
        generate_all(newsboard_model, _pack(*rules), read=reads.append)
    assert (str(caught.value), reads) == (message, [])


def test_generate_all_deterministic(newsboard_model, webstack):
    first = generate_all(newsboard_model, webstack, lang="English")
    second = generate_all(newsboard_model, webstack, lang="English")
    assert first == second
    # order: manifest rule order, then entity document order
    paths = [a.path for a in first]
    assert paths[:2] == ["sql/001_tables.sql", "sql/002_constraints.sql"]
    assert paths.index("sql/procs/Fakultet.sql") < paths.index("sql/procs/Vest.sql")


def test_vest_constraints_golden(vest_model, webstack):
    artifacts = render_pack(vest_model, webstack)
    assert artifacts["sql/002_constraints.sql"] == \
        (GOLDEN / "vest_constraints.sql").read_text()


def test_fakultet_tables_golden(fakultet_model, webstack):
    artifacts = render_pack(fakultet_model, webstack)
    assert artifacts["sql/001_tables.sql"] == (GOLDEN / "fakultet_tables.sql").read_text()
    assert artifacts["sql/002_constraints.sql"] == \
        (GOLDEN / "fakultet_constraints.sql").read_text()


def test_vest_client_validation_call(vest_model, webstack):
    artifacts = render_pack(vest_model, webstack)
    assert ("validation.vs_compare_dates(aspnetForm.ctl00_MainContentplaceholder_ctrlDisplayFrom,"
            " aspnetForm.ctl00_MainContentplaceholder_ctrlDisplayTo, 'le')"
            ) in artifacts["web/validation.js"]


def test_nullable_constraint_field_gets_suffix(vest_model, webstack):
    entity = vest_model.entities[0]
    fields = tuple(dataclasses.replace(f, nullable=True) if f.name == "DisplayTo" else f
                   for f in entity.fields)
    model = dataclasses.replace(
        vest_model, entities=(dataclasses.replace(entity, fields=fields),))
    artifacts = render_pack(model, webstack)
    assert "validation.vs_compare_dates_nullable(" in artifacts["web/validation.js"]


def test_vertical_consistency(newsboard_model, webstack):
    artifacts = render_pack(newsboard_model, webstack)
    sql = artifacts["sql/002_constraints.sql"]
    js = artifacts["web/validation.js"]
    for entity in newsboard_model.entities:
        for constraint in entity.constraints:
            if constraint.kind is not ConstraintKind.TWO_FIELDS:
                continue
            f1, f2 = constraint.cfields
            assert sql.count(f"CONSTRAINT [CK_tbl_{entity.tableName}_{f1}_{f2}]") == 1
            assert js.count(f"'{constraint.rel_token}')") == 1


def test_horizontal_consistency(webstack):
    base = (GOLDEN.parent.parent / "fixtures" / "vest.xml").read_text()
    renamed = base.replace("DisplayFrom", "Zorblefield")
    model_old, _ = load_model(base.encode())
    model_new, diags = load_model(renamed.encode())
    assert not diags
    old_artifacts = render_pack(model_old, webstack)
    new_artifacts = render_pack(model_new, webstack)
    mentions_before = [p for p, text in old_artifacts.items() if "DisplayFrom" in text]
    assert mentions_before  # the field is visible in several tiers
    for path, text in new_artifacts.items():
        assert "DisplayFrom" not in text, f"stale field name in {path}"
    mentions_after = [p for p, text in new_artifacts.items() if "Zorblefield" in text]
    assert set(mentions_before) == set(mentions_after)


def test_inactive_entities_in_no_artifact(newsboard_model, webstack):
    source = (GOLDEN.parent.parent / "fixtures" / "newsboard.xml").read_text()
    source = source.replace('tableName="Vest" name="Vest" caching="disabled" isLogged="true" isActive="true"',
                            'tableName="Vest" name="Vest" caching="disabled" isLogged="true" isActive="false"')
    model, diags = load_model(source.encode())
    assert not diags
    artifacts = render_pack(model, webstack)
    for path, text in artifacts.items():
        assert "Vest" not in path
        assert "Vest" not in text


def test_once_artifacts_have_always_sibling(newsboard_model, webstack):
    artifacts = generate_all(newsboard_model, webstack, lang="English")
    always_paths = {a.path for a in artifacts if a.ownership is Ownership.ALWAYS}
    for artifact in artifacts:
        if artifact.ownership is Ownership.ONCE:
            base = artifact.path.replace(".js", "_Base.js")
            assert base in always_paths


def test_artifacts_are_lf_only(newsboard_model, webstack):
    for artifact in generate_all(newsboard_model, webstack, lang="English"):
        assert b"\r" not in artifact.content


def test_runtime_error_names_artifact(newsboard_model):
    listing = dict(MINIMAL_PACK)
    listing["t.atl"] = "{{ count(1) }}"
    pack = load_pack(listing)
    with pytest.raises(Exception, match="docs/Fakultet.md"):
        generate_all(newsboard_model, pack)


def test_required_checks_flag_off(newsboard_model):
    # same validation template without the flag: no vs_required calls
    listing = {
        "pack.json": '{"name": "p", "version": "1", "outputs": ['
                     '{"template": "validation.js.atl", "path": "web/validation.js", '
                     '"per": "model", "ownership": "always"}]}',
        "validation.js.atl": (packs.builtin_pack_dir() / "validation.js.atl").read_text(),
    }
    pack = load_pack(listing)
    artifacts = render_pack(newsboard_model, pack)
    assert "vs_required" not in artifacts["web/validation.js"]
    assert "vs_compare_dates" in artifacts["web/validation.js"]


def test_generation_leaves_no_cyclic_garbage(newsboard_model, webstack):
    # everything one generation builds is freed by reference counting alone
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        generate_all(newsboard_model, webstack, lang="English")
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("gc_enabled", [True, False])
@pytest.mark.parametrize("template, outcome", [
    ("# {{ entity.name }}\n", contextlib.nullcontext()),
    ("{{ count(1) }}", pytest.raises(atl.TemplateRuntimeError)),
])
def test_generate_all_restores_gc_state(newsboard_model, gc_enabled, template, outcome):
    pack = load_pack({**MINIMAL_PACK, "t.atl": template})
    was_enabled = gc.isenabled()
    (gc.enable if gc_enabled else gc.disable)()
    try:
        with outcome:
            generate_all(newsboard_model, pack)
        assert gc.isenabled() is gc_enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


# -- a generated path is the normalized pattern with the names substituted ---

_NAME = st.one_of(st.sampled_from(["", ".", "..", "..a", "/", "a//", "Ünï", "%s%", "a/b", ".a"]),
                  st.text(alphabet="./aé%", max_size=4),
                  st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True))
_PIECE = st.sampled_from(["", "docs/", "a", ".md", "/", "./", "x//", "../", ".", "_", "é/", "%s%"])
_PLACEHOLDER = st.sampled_from(["{entity.name}", "{entity.tableName}"])


@given(name=_NAME, table=_NAME,
       parts=st.tuples(_PIECE, _PLACEHOLDER, _PIECE)
       | st.tuples(_PIECE, _PLACEHOLDER, _PIECE, _PLACEHOLDER, _PIECE))
@example(name="..a", table="t", parts=("", "{entity.name}", "/x.md"))  # "..a/x.md"
@example(name=".", table="t", parts=("docs/", "{entity.name}", ""))  # "docs/." is not normalized
@example(name="a", table=".a", parts=(".", "{entity.tableName}", ""))  # "..a"
@example(name="E", table="T", parts=(".", "{entity.tableName}", ""))  # ".T"
@example(name="a", table="t", parts=("x//", "{entity.name}", "%s%"))  # "x/a%s%"
def test_a_generated_path_is_the_normalized_pattern_with_names(name, table, parts):
    """For names that validate, a path is the normalized pattern with the names
    substituted; for any names, every path is safe or generate_all raises."""
    pattern = "".join(parts)
    try:
        pack = load_pack({"pack.json": json.dumps({"name": "p", "version": "1", "outputs": [
            {"template": "t.atl", "path": pattern, "per": "entity", "ownership": "always"}]}),
            "t.atl": ""})
    except PackError:
        assume(False)
    entity = Entity(name=name, tableName=table,
                    fields=(Field(name="ID", type=FieldType.INT, type_token="int", isPK=True),))
    model = ApplicationModel(entities=(entity,))
    expected = posixpath.normpath(pattern).replace("{entity.name}", name) \
        .replace("{entity.tableName}", table)
    try:
        assert [a.path for a in generate_all(model, pack)] == [expected]
    except PackError:
        assert validate_model(model), "names that validate give a safe path"
    else:
        assert not _unsafe(expected)


def test_a_name_starting_with_two_dots_stays_under_the_root():
    entity = Entity(name="..a", tableName="t", fields=(Field(name="ID", type=FieldType.INT),))
    pack = _pack(("{entity.name}/x.md", "entity"))
    assert [a.path for a in generate_all(ApplicationModel(entities=(entity,)), pack)] \
        == ["..a/x.md"]


# -- api.json is valid JSON for every name ------------------------------------

def _api_pack():
    """webstack's api.json rule alone."""
    template = (packs.builtin_pack_dir() / "api.json.atl").read_text("utf-8")
    return load_pack({"pack.json": '{"name": "p", "version": "1", "outputs": [{"template": '
                                   '"api.json.atl", "path": "api/api.json", "per": "model", '
                                   '"ownership": "always"}]}',
                      "api.json.atl": template})


def test_api_json_escapes_a_quoted_app_name():
    text = (GOLDEN.parent.parent / "fixtures" / "newsboard.xml").read_text("utf-8")
    text = text.replace('appName="University News-Board"', 'appName="A&quot;pp\\x"')
    model, _ = load_model(text.encode("utf-8"))
    api = json.loads(generate_all(model, _api_pack())[0].content)
    assert api["application"] == 'A"pp\\x'


_HOSTILE = st.text(alphabet=st.characters(exclude_categories=("Cs",)), min_size=1, max_size=8)


@given(app=_HOSTILE, names=st.lists(st.tuples(_HOSTILE, _HOSTILE), min_size=1, max_size=3))
def test_api_json_parses_and_keeps_every_name(app, names):
    key = Field(name="ID", type=FieldType.INT, isPK=True)
    model = ApplicationModel(
        settings=Settings(appName=app),
        entities=tuple(Entity(name=name, tableName=table, fields=(key,)) for name, table in names))
    api = json.loads(generate_all(model, _api_pack())[0].content)
    assert api["application"] == app
    assert [(e["name"], e["table"]) for e in api["entities"]] == [
        (name, f"tbl_{table}") for name, table in names]
    for entity, (name, _) in zip(api["entities"], names):
        assert [e["path"] for e in entity["endpoints"]] == [
            f"/{name.lower()}", f"/{name.lower()}/{{id}}", f"/{name.lower()}",
            f"/{name.lower()}/{{id}}", f"/{name.lower()}/{{id}}"]


# -- validation.js and the HTML views keep every text -------------------------

def _webstack_rules(*templates):
    """webstack with only the rules of these templates."""
    spec = json.loads((packs.builtin_pack_dir() / "pack.json").read_text("utf-8"))
    spec["outputs"] = [rule for rule in spec["outputs"] if rule["template"] in templates]
    return load_pack({"pack.json": json.dumps(spec), **{
        name: (packs.builtin_pack_dir() / name).read_text("utf-8") for name in templates}})


def _texts_model(texts):
    """One entity per (display, plural, first, second, error) texts: a hidden
    key, required fields A and B showing the first two, and a TwoFields
    constraint on them with the error message."""
    def text(value):
        return LocalizedText((("English", value),))

    key = Field(name="ID", type=FieldType.INT, isPK=True, isIdentity=True,
                isShownInList=False, isShownInEdit=False)
    return ApplicationModel(languages=("English",), entities=tuple(
        Entity(name=f"E{i}", tableName=f"E{i}", displayNames=text(display),
               pluralNames=text(plural),
               fields=(key, Field(name="A", type=FieldType.INT, displayNames=text(first)),
                       Field(name="B", type=FieldType.INT, displayNames=text(second))),
               constraints=(Constraint(kind=ConstraintKind.TWO_FIELDS, kind_token="TwoFields",
                                       relationship=RelationshipOp.LT, rel_token="lt",
                                       cfields=("A", "B"), errorMessages=text(error)),))
        for i, (display, plural, first, second, error) in enumerate(texts)))


_TEXTS = st.lists(st.tuples(*[_HOSTILE] * 5), min_size=1, max_size=3)
# a single-quoted JS string literal as js_str writes it: no raw quote,
# backslash or line terminator, and only \', \\ and \uXXXX escapes
_JS_FAIL = re.compile(r"validation\.fail\('((?:[^'\\\n\r\u2028\u2029]|\\u[0-9a-f]{4}|\\['\\])*)'\);")


def _js_decode(body):
    return re.sub(r"\\(u[0-9a-f]{4}|.)",
                  lambda m: chr(int(m[1][1:], 16)) if len(m[1]) == 5 else m[1], body)


@given(texts=_TEXTS)
def test_validation_js_literals_decode_to_the_model_text(texts):
    (validation,) = generate_all(_texts_model(texts), _webstack_rules("validation.js.atl"))
    js = validation.content.decode("utf-8")
    literals = [_js_decode(body) for body in _JS_FAIL.findall(js)]
    assert js.count("validation.fail(") == len(literals)
    assert literals == [text for _, _, first, second, error in texts
                        for text in (error, first, second)]


def _html_text(text):
    """Text as an HTML parser reads it: CRLF and CR become LF, as the HTML
    input stream is preprocessed."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


@given(texts=_TEXTS)
def test_html_texts_unescape_to_the_model_text(texts):
    views = generate_all(_texts_model(texts), _webstack_rules("edit.html.atl", "list.html.atl"))
    found = [[html.unescape(_html_text(inner)) for inner in re.findall(
        r"<(?:h1|label[^>]*|th)>(.*?)</(?:h1|label|th)>", view.content.decode("utf-8"), re.S)]
        for view in views]
    expected = [[display, first, second] for display, _, first, second, _ in texts] + [
        [plural, first, second] for _, plural, first, second, _ in texts]
    assert found == [[_html_text(text) for text in view] for view in expected]
