import contextlib
import dataclasses
import gc

import pytest

from sfgen import atl, packs
from sfgen.loader import load_model
from sfgen.model import ConstraintKind
from sfgen.ownership import Ownership
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
                                  "x/{entity.nmae}.md", "x/{entity.fields}.md"])
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
