"""Incremental regeneration: an artifact whose recorded inputs are unchanged is
taken from disk instead of rendered, and the run's result is exactly that of
rendering every artifact."""

import contextlib
import copy
import io
import json
import random
import re
import shutil
from pathlib import Path

import pytest

from sfgen import atl, loader, ownership, packs
from sfgen.cli import main
from sfgen.model import Entity, Field, FieldType

import randmodels
from conftest import FIXTURES
from readsets import ReadChecker

NEWSBOARD = str(FIXTURES / "newsboard.xml")
PACK = packs.builtin_pack_dir()

# rules added to webstack: per-entity artifacts whose templates read each
# entity's `location`, or the `model` root, so their inputs are the whole model;
# and a line added to its scaffold template, so that the scaffold reads fields
EXTRA_RULES = [
    {"template": "location.txt.atl", "path": "loc/{entity.name}.txt", "per": "entity",
     "ownership": "always"},
    {"template": "siblings.txt.atl", "path": "siblings/{entity.name}.txt", "per": "entity",
     "ownership": "always"},
]
EXTRA_TEMPLATES = {
    "location.txt.atl": "{{ entity.name }} at {% for n in entity.location %}{{ n }} {% endfor %}\n",
    "siblings.txt.atl": "{{ entity.name }} of {{ count(model.active_entities) }}\n",
}
SCAFFOLD_LINE = "// {% for f in entity.fields %}{{ f.name }} {% endfor %}\n"


def run(argv):
    """(exit code, stdout, stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def read_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def counting_renders(monkeypatch):
    """The name of each template rendered, whole or in part, as it is rendered."""
    calls = []
    real, real_fragments = atl.render, atl.render_fragments
    monkeypatch.setattr(atl, "render", lambda ast, context: calls.append(ast.name)
                        or real(ast, context))
    monkeypatch.setattr(atl, "render_fragments", lambda ast, context, kept:
                        calls.append(ast.name) or real_fragments(ast, context, kept))
    return calls


def rendering_everything(monkeypatch):
    """Make every generate run render every artifact, as before reuse."""
    real = packs.generate_all
    monkeypatch.setattr(packs, "generate_all", lambda model, pack, lang="", manifest=None,
                        read=None: real(model, pack, lang, read=read))


# -- the document being edited --------------------------------------------------

class Workspace:
    """A seeded random model as a document, a copy of webstack with the extra
    rules, and two output trees: one regenerated incrementally, one by
    rendering everything. Each step edits the inputs, runs both, and requires
    equal results."""

    def __init__(self, tmp_path, seed):
        self.rng = random.Random(seed)
        model = randmodels.random_model(self.rng, max_entities=6, max_fields=5)
        while len(model.languages) < 2:  # so that the language can change
            model = randmodels.random_model(self.rng, max_entities=6, max_fields=5)
        self.root = randmodels.model_element(self.rng, model)
        self.blank_lines: list[int] = []  # entities with a blank line before them
        self.model = tmp_path / "model.xml"
        self.pack = tmp_path / "pack"
        shutil.copytree(PACK, self.pack)
        spec = json.loads((self.pack / "pack.json").read_text())
        spec["outputs"] += EXTRA_RULES
        (self.pack / "pack.json").write_text(json.dumps(spec, indent=2))
        for name, text in EXTRA_TEMPLATES.items():
            (self.pack / name).write_text(text)
        with open(self.pack / "dal_derived.js.atl", "a", encoding="utf-8") as file:
            file.write(SCAFFOLD_LINE)
        self.trees = tmp_path / "incremental", tmp_path / "full"
        for tree in self.trees:
            tree.mkdir()
        self.lang = ""
        self.write_model()

    @property
    def entities(self):
        return self.root[2][1][2]

    @property
    def settings(self):
        return self.root[2][0]

    def write_model(self):
        text = randmodels.to_xml(self.root)
        starts = [match.start() for match in re.finditer(r"\n *<Entity\b", text)]
        for k in sorted(self.blank_lines, reverse=True):
            if k < len(starts):
                text = text[:starts[k]] + "\n" + text[starts[k]:]
        self.model.write_text(text, "utf-8")

    def outputs(self):
        return sorted(set(read_tree(self.trees[0] / "out")) - {ownership.MANIFEST_FILENAME})

    def each_tree(self, edit):
        for tree in self.trees:
            if (tree / "out").exists():
                edit(tree / "out")

    def generate(self, monkeypatch, *extra):
        """The (exit code, stdout, stderr) and the number of templates rendered
        of the incremental run, then of the full one. Every render of either
        reads only its inputs (readsets.py)."""
        argv = ["generate", "--model", str(self.model), "--pack", str(self.pack),
                "--out", "out", "--lang", self.lang, *extra]
        results = []
        for tree, full in zip(self.trees, (False, True)):
            with monkeypatch.context() as patch:
                patch.chdir(tree)
                checker = ReadChecker().install(patch)
                renders = counting_renders(patch)
                if full:
                    rendering_everything(patch)
                results.append((run(argv), len(renders)))
                assert checker.violations == []
        return results

    # -- edits: each changes the inputs of the next step, or its tree ----------

    def fields(self, entity):
        """The fields of `entity` that no constraint names, except its key."""
        named = {cfield[1][0][1] for child in entity[2] if child[0] == "Constraint"
                 for cfield in child[2] if cfield[0] == "CField"}
        return [child for child in entity[2] if child[0] == "Field"
                and dict(child[1])["name"] not in named | {"ID"}]

    def set_attribute(self, element, name, value):
        element[1] = [(n, v) for n, v in element[1] if n != name]
        if value is not None:
            element[1].append((name, value))

    def rename_field(self):
        candidates = [f for e in self.entities for f in self.fields(e)]
        if candidates:
            field = self.rng.choice(candidates)
            self.set_attribute(field, "name", dict(field[1])["name"] + "X")

    def edit_text(self):
        texts = []

        def walk(element):
            if element[0] in ("DisplayName", "PluralName", "ErrorMessage"):
                texts.append(element)
            for child in element[2]:
                walk(child)

        walk(self.root)
        if texts:
            self.rng.choice(texts)[3] += " edited"

    def toggle_active(self):
        entity = self.rng.choice(self.entities)
        active = dict(entity[1]).get("isActive", "true") == "true"
        self.set_attribute(entity, "isActive", "false" if active else "true")

    def add_field(self):
        entity = self.rng.choice(self.entities)
        name = f"Added{self.rng.randrange(10**6)}"
        entity[2].append(["Field", [("name", name), ("type", "int"), ("nullable", "true")],
                          [], ""])

    def remove_field(self):
        candidates = [(e, f) for e in self.entities for f in self.fields(e)]
        if candidates:
            entity, field = self.rng.choice(candidates)
            entity[2].remove(field)

    def blank_line(self):
        self.blank_lines.append(self.rng.randrange(len(self.entities)))

    def languages(self):
        return sorted({dict(block[1])["name"] for e in self.entities
                       for block in e[2] if block[0] == "Language"})

    def default_language(self):
        current = dict(self.settings[1]).get("defaultLanguage")
        self.set_attribute(self.settings, "defaultLanguage", self.rng.choice(
            [lang for lang in [None, *self.languages()] if lang != current]))

    def command_language(self):
        settings = dict(self.settings[1])
        current = self.lang or settings.get("defaultLanguage") or self.languages()[0]
        self.lang = self.rng.choice(
            [lang for lang in [*self.languages(), "Klingon"] if lang != current])

    def app_name(self):
        self.set_attribute(self.settings, "appName", f"App{self.rng.randrange(10**6)}")

    def flag(self):
        spec = json.loads((self.pack / "pack.json").read_text())
        flags = spec["outputs"][7]["flags"]
        flags["required_checks"] = not flags["required_checks"]
        (self.pack / "pack.json").write_text(json.dumps(spec, indent=2))

    def template(self):
        with open(self.pack / "docs.md.atl", "a", encoding="utf-8") as file:
            file.write("\nEdited {{ entity.name }}.\n")

    def flip_ownership(self):
        """The scaffold rule becomes `always`, or `once` again."""
        spec = json.loads((self.pack / "pack.json").read_text())
        rule = spec["outputs"][4]
        rule["ownership"] = "always" if rule["ownership"] == "once" else "once"
        (self.pack / "pack.json").write_text(json.dumps(spec, indent=2))

    def hand_edit(self):
        path = self.rng.choice(self.outputs())
        self.each_tree(lambda out: (out / path).write_bytes(b"hand edit\n"))

    def hand_edit_scaffold(self):
        """Edit a file of the scaffold rule, whatever its ownership now."""
        paths = [path for path in self.outputs()
                 if path.startswith("dal/") and not path.endswith("_Base.js")]
        if paths:
            path = self.rng.choice(paths)
            self.each_tree(lambda out: (out / path).write_bytes(b"// hand edit\n"))

    def delete_output(self):
        path = self.rng.choice(self.outputs())
        self.each_tree(lambda out: (out / path).unlink())

    def version_1_manifest(self):
        self.each_tree(lambda out: old_manifest(out / ownership.MANIFEST_FILENAME, 1))

    def version_2_manifest(self):
        self.each_tree(lambda out: old_manifest(out / ownership.MANIFEST_FILENAME, 2))

    # -- edits that move, add or remove the iterations of the fragment loops --

    def insert_entity(self):
        entity = copy.deepcopy(self.rng.choice(self.entities))
        name = f"Added{self.rng.randrange(10**6)}"
        self.set_attribute(entity, "name", name)
        self.set_attribute(entity, "tableName", name)
        self.entities.insert(self.rng.randrange(len(self.entities) + 1), entity)

    def delete_entity(self):
        if len(self.entities) > 1:
            self.entities.remove(self.rng.choice(self.entities))

    def reorder_entities(self):
        self.rng.shuffle(self.entities)

    def toggle_last_active(self):
        """The last active entity becomes inactive, so another one is last."""
        active = [e for e in self.entities if dict(e[1]).get("isActive", "true") == "true"]
        if active:
            self.set_attribute(active[-1], "isActive", "false")

    def hand_edit_per_model(self):
        path = self.rng.choice(["sql/001_tables.sql", "web/validation.js", "api/api.json"])
        self.each_tree(lambda out: (out / path).exists() and (out / path).write_bytes(
            (out / path).read_bytes().replace(b"\n", b"\n-- edited\n", 1)))

    def crlf_template(self):
        """A per-model template with CRLF line ends, or LF ends again."""
        template = self.pack / "tables.sql.atl"
        text = template.read_bytes()
        template.write_bytes(text.replace(b"\r\n", b"\n") if b"\r\n" in text
                             else text.replace(b"\n", b"\r\n"))

    # -- edits that move the paths of artifacts ------------------------------

    def rename_entity(self):
        """An entity's name and tableName change, so its per-entity paths move."""
        name = f"Renamed{self.rng.randrange(10**6)}"
        entity = self.rng.choice(self.entities)
        self.set_attribute(entity, "name", name)
        self.set_attribute(entity, "tableName", name)

    def path_pattern(self):
        """The docs rule's path reads the entity's tableName, or its name again."""
        spec = json.loads((self.pack / "pack.json").read_text())
        rule = spec["outputs"][8]
        name, table = "docs/{entity.name}.md", "docs/{entity.tableName}.md"
        rule["path"] = table if rule["path"] == name else name
        (self.pack / "pack.json").write_text(json.dumps(spec, indent=2))

    def move_manifest_entry(self):
        """A file and its manifest entry move to a path that no rule produces."""
        path = self.rng.choice([path for path in self.outputs() if not path.startswith("moved/")])
        moved = f"moved/{self.rng.randrange(10**6)}.txt"

        def move(out):
            (out / "moved").mkdir(exist_ok=True)
            (out / path).rename(out / moved)
            manifest = out / ownership.MANIFEST_FILENAME
            payload = json.loads(manifest.read_text("utf-8"))
            for entry in payload["entries"]:
                entry[0] = moved if entry[0] == path else entry[0]
            manifest.write_text(json.dumps(payload), "utf-8")

        self.each_tree(move)

    def loop_index(self):
        """A fragment body reads loop.index, or no longer does."""
        template = self.pack / "constraints.sql.atl"
        line = b"-- entity {{ loop.index }}\n"
        text = template.read_bytes()
        template.write_bytes(text.replace(line, b"") if line in text
                             else text.replace(b"-%}\n", b"-%}\n" + line, 1))


EDITS = ["rename_field", "edit_text", "toggle_active", "add_field", "remove_field",
         "blank_line", "default_language", "command_language", "app_name", "flag", "template",
         "flip_ownership", "hand_edit", "hand_edit_scaffold", "delete_output",
         "version_1_manifest", "version_2_manifest", "insert_entity", "delete_entity",
         "reorder_entities", "toggle_last_active", "hand_edit_per_model", "crlf_template",
         "loop_index", "rename_entity", "path_pattern", "move_manifest_entry"]


@pytest.mark.parametrize("seed", range(4))
def test_incremental_regeneration_equals_rendering_everything(tmp_path, monkeypatch, seed):
    space = Workspace(tmp_path, seed)
    (first, _), (full, _) = space.generate(monkeypatch)
    assert first == full and first[0] == 0, first
    skipped = 0  # renders the incremental runs saved
    for step, edit in enumerate(random.Random(seed).sample(EDITS * 2, k=len(EDITS) * 2)):
        getattr(space, edit)()
        space.write_model()
        for extra in ([], ["--force"]) if edit.startswith("hand_edit") else ([],):
            (incremental, renders), (full, all_renders) = space.generate(monkeypatch, *extra)
            where = f"seed {seed}, step {step}: {edit} {' '.join(extra)}"
            assert incremental == full, where
            assert read_tree(space.trees[0] / "out") == read_tree(space.trees[1] / "out"), where
            skipped += all_renders - renders
    assert skipped > 0


def test_a_saved_manifest_is_what_serializing_its_entries_writes(tmp_path, monkeypatch):
    """A save copies the lines of unchanged entries from the manifest read;
    after every run, of edits that shift the key tables (deleting an entity,
    swapping two, another language) among others, each tree's manifest is the
    text written afresh from its entries, with no line copied."""
    copied = []  # of each save, whether it copied any line
    real = ownership._runs

    def runs(*args):
        pieces = real(*args)
        copied.append(any(type(piece) is str for piece in pieces))
        return pieces

    monkeypatch.setattr(ownership, "_runs", runs)
    for seed in range(3):
        space = Workspace(tmp_path / str(seed), seed)
        space.generate(monkeypatch)
        edits = ["edit_text", "edit_text", "delete_entity", "rename_field", "reorder_entities",
                 "edit_text", "command_language", "edit_text",
                 *random.Random(seed).sample(EDITS, k=8), "edit_text"]
        for step, edit in enumerate(edits):
            getattr(space, edit)()
            space.write_model()
            for extra in ([], ["--force"]) if edit.startswith("hand_edit") else ([],):
                space.generate(monkeypatch, *extra)
            for tree in space.trees:
                text = (tree / "out" / ownership.MANIFEST_FILENAME).read_text("utf-8")
                manifest = ownership.manifest_from_json(text)
                fresh = ownership.Manifest(manifest.entries, manifest.summaries, manifest.sources)
                assert text == ownership.manifest_to_json(fresh), f"seed {seed}, {step}: {edit}"
    assert any(copied)


@pytest.mark.parametrize("layout", [{"indent": 2}, {"separators": (",", ":")}])
def test_a_manifest_laid_out_otherwise_is_saved_as_written_afresh(tmp_path, layout):
    """A manifest that holds the same values with another layout, as a JSON
    formatter leaves it, copies no line: after a one-entity edit the saved
    manifest is the text written afresh from its entries. Indented by 2, it
    begins and ends its entries array as sfgen does, but spreads each entry
    over lines."""
    model, out = tmp_path / "model.xml", tmp_path / "out"
    text = Path(NEWSBOARD).read_text("utf-8")
    model.write_text(text, "utf-8")
    argv = ["generate", "--model", str(model), "--pack", str(PACK), "--out", str(out)]
    assert run(argv)[0] == 0
    path = out / ownership.MANIFEST_FILENAME
    path.write_text(json.dumps(json.loads(path.read_text("utf-8")), **layout) + "\n", "utf-8")
    model.write_text(text.replace("<DisplayName>Faculty</DisplayName>",
                                  "<DisplayName>Faculty board</DisplayName>", 1), "utf-8")
    assert run(argv)[0] == 0
    manifest = ownership.load_manifest(out)
    fresh = ownership.Manifest(manifest.entries, manifest.summaries, manifest.sources)
    assert path.read_text("utf-8") == ownership.manifest_to_json(fresh)


@pytest.mark.parametrize("before", ["add_field", "hand_edit_scaffold"])
def test_an_ownership_flip_equals_rendering_everything(tmp_path, monkeypatch, before):
    """A scaffold left as it was after an edit of its entity, or after a hand
    edit, is rewritten when its rule becomes `always`, as a full render does."""
    space = Workspace(tmp_path, 0)
    for entity in space.entities:
        space.set_attribute(entity, "isActive", "true")
    space.write_model()
    space.generate(monkeypatch)
    for edit in (before, "flip_ownership", "flip_ownership"):
        getattr(space, edit)()
        space.write_model()
        (incremental, _), (full, _) = space.generate(monkeypatch)
        assert incremental == full and incremental[0] == 0, (edit, incremental)
        assert read_tree(space.trees[0] / "out") == read_tree(space.trees[1] / "out"), edit


def test_a_one_entity_edit_renders_only_that_entity_and_the_model(tmp_path, monkeypatch):
    """Newsboard's two entities give 4 per-model artifacts and 6 per entity,
    one of them a scaffold. With no edit nothing is rendered; editing one
    entity renders its 6 artifacts and the 4 per-model ones."""
    model = tmp_path / "model.xml"
    text = Path(NEWSBOARD).read_text("utf-8")
    model.write_text(text, "utf-8")
    argv = ["generate", "--model", str(model), "--pack", str(PACK), "--out", str(tmp_path / "out")]
    renders = counting_renders(monkeypatch)
    assert run(argv)[0] == 0
    assert len(renders) == 16
    renders.clear()
    assert run(argv) == (0, "generated 16 artifacts: 2 SKIP_ONCE, 14 SKIP_UNCHANGED\n", "")
    assert renders == []
    edited = text.replace("<DisplayName>Faculty</DisplayName>",
                          "<DisplayName>Faculty board</DisplayName>", 1)
    assert edited.index("Faculty board") < edited.index('<Entity tableName="Vest"')
    model.write_text(edited, "utf-8")
    code, out, _ = run(argv)
    assert code == 0 and "OVERWRITE" in out
    assert sorted(renders) == sorted(["tables.sql.atl", "constraints.sql.atl", "validation.js.atl",
                                      "api.json.atl", "procs.sql.atl", "dal_base.js.atl",
                                      "dal_derived.js.atl", "edit.html.atl", "list.html.atl",
                                      "docs.md.atl"])


def test_a_one_entity_edit_renders_one_iteration_of_each_fragment_loop(tmp_path, monkeypatch):
    """The 4 per-model webstack templates are fragment loops over the active
    entities: after an edit of one entity, each renders only its iteration,
    and each file is as rendering it whole gives."""
    model = tmp_path / "model.xml"
    text = Path(NEWSBOARD).read_text("utf-8")
    model.write_text(text, "utf-8")
    out = tmp_path / "out"
    argv = ["generate", "--model", str(model), "--pack", str(PACK), "--out", str(out)]
    assert run(argv)[0] == 0
    rendered = []
    real = atl.render_fragments

    def counted(ast, context, kept):
        def counting(item, loop):
            piece = kept(item, loop)
            if piece is None:
                rendered.append((ast.name, item.name))
            return piece
        return real(ast, context, counting)

    monkeypatch.setattr(atl, "render_fragments", counted)
    model.write_text(text.replace("<DisplayName>Faculty</DisplayName>",
                                  "<DisplayName>Faculty board</DisplayName>", 1), "utf-8")
    assert run(argv)[0] == 0
    assert sorted(rendered) == [(name, "Fakultet") for name in (
        "api.json.atl", "constraints.sql.atl", "tables.sql.atl", "validation.js.atl")]
    monkeypatch.undo()
    assert run([*argv[:-1], str(tmp_path / "fresh")])[0] == 0
    assert read_tree(out) == read_tree(tmp_path / "fresh")


def test_a_rendered_iteration_with_a_cr_is_normalized_with_the_kept_ones(tmp_path, monkeypatch):
    """Where a rendered iteration holds a CR, the spliced file, kept Vest
    included, has its line ends normalized as a whole render's, and lists no
    iterations; the template is rendered once."""
    pack, model = tmp_path / "pack", tmp_path / "model.xml"
    pack.mkdir()
    (pack / "names.atl").write_text("head\n{% for e in model.entities %}{{ e.name }}: "
                                    "{{ localized(e, lang, 'display') }}\n{% endfor %}tail\n")
    (pack / "pack.json").write_text(json.dumps({"name": "p", "version": "1", "outputs": [
        {"template": "names.atl", "path": "names.txt", "per": "model", "ownership": "always"}]}))
    data = Path(NEWSBOARD).read_bytes()
    model.write_bytes(data)
    out = tmp_path / "out"
    argv = ["generate", "--model", str(model), "--pack", str(pack), "--out", str(out)]
    assert run(argv)[0] == 0
    model.write_bytes(data.replace(b"<DisplayName>Faculty</DisplayName>",
                                   b"<DisplayName>Fac\r\nulty\rX</DisplayName>", 1))
    renders = counting_renders(monkeypatch)
    assert run(argv)[0] == 0
    assert renders == ["names.atl"]
    monkeypatch.undo()
    assert run([*argv[:-1], str(tmp_path / "fresh")])[0] == 0
    assert read_tree(out) == read_tree(tmp_path / "fresh")
    assert b"Fac\nulty\rX\nVest: News item\n" in (out / "names.txt").read_bytes()


def one_rule_pack(directory, template):
    """A pack in `directory` whose one rule renders `template` to t.txt, per model."""
    directory.mkdir()
    (directory / "t.atl").write_text(template, "utf-8")
    (directory / "pack.json").write_text(json.dumps({"name": "p", "version": "1", "outputs": [
        {"template": "t.atl", "path": "t.txt", "per": "model", "ownership": "always"}]}))
    return directory


def test_a_loop_whose_body_reads_the_model_renders_whole(tmp_path, newsboard_model):
    pack = packs.load_pack(packs.read_pack_dir(one_rule_pack(tmp_path / "pack", (
        "{% for e in model.entities %}{{ e.name }} of {{ count(model.entities) }}\n"
        "{% endfor %}end\n"))))
    assert pack.templates["t.atl"].fragment is None
    [artifact] = packs.generate_all(newsboard_model, pack)
    assert (artifact.content, artifact.fragments) == (b"Fakultet of 2\nVest of 2\nend\n", ())


def test_a_body_that_reads_loop_keys_its_iterations_by_every_loop_attribute(tmp_path,
                                                                             newsboard_model):
    pack = one_rule_pack(tmp_path / "pack", "{% for e in model.entities %}{{ e.name }} "
                                            "{{ count(loop) }} {{ loop.last }}\n{% endfor %}")
    [artifact] = packs.generate_all(newsboard_model, packs.load_pack(packs.read_pack_dir(pack)))
    assert artifact.content == b"Fakultet 4 false\nVest 4 true\n"
    assert [loop for _, loop, _, _ in artifact.fragments] == ["1,true,false,2", "2,false,true,2"]
    # swapped, each entity has the other's loop attributes
    text = Path(NEWSBOARD).read_text("utf-8")
    (a, b), (c, d) = [m.span() for m in re.finditer(r"<Entity\b.*?</Entity>", text, re.S)]
    model = tmp_path / "model.xml"
    model.write_text(text, "utf-8")
    argv = ["generate", "--model", str(model), "--pack", str(pack), "--out", str(tmp_path / "out")]
    assert run(argv)[0] == 0
    model.write_text(text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:], "utf-8")
    assert run(argv)[0] == 0
    assert run([*argv[:-1], str(tmp_path / "fresh")])[0] == 0
    assert read_tree(tmp_path / "out") == read_tree(tmp_path / "fresh")
    assert (tmp_path / "out/t.txt").read_bytes() == b"Vest 4 false\nFakultet 4 true\n"


def test_a_runtime_error_in_a_fragment_loop_is_located(tmp_path, newsboard_model):
    pack = packs.load_pack(packs.read_pack_dir(one_rule_pack(
        tmp_path / "pack", "{% for e in model.entities %}{{ lower(e) }}{% endfor %}")))
    assert pack.templates["t.atl"].fragment is not None
    with pytest.raises(atl.TemplateRuntimeError) as error:
        packs.generate_all(newsboard_model, pack)
    assert str(error.value) == ("while rendering 't.txt': t.atl:1:33: lower(): cannot render "
                                "a Entity value as text")


def test_no_change_regeneration_writes_no_manifest(tmp_path, monkeypatch):
    out = tmp_path / "out"
    argv = ["generate", "--model", NEWSBOARD, "--pack", str(PACK), "--out", str(out)]
    assert run(argv)[0] == 0
    saves = []
    monkeypatch.setattr(ownership, "save_manifest", lambda *args: saves.append(args))
    assert run(argv)[0] == 0
    assert saves == []


def test_force_renders_everything(tmp_path, monkeypatch):
    out = tmp_path / "out"
    argv = ["generate", "--model", NEWSBOARD, "--pack", str(PACK), "--out", str(out)]
    assert run(argv)[0] == 0
    renders = counting_renders(monkeypatch)
    assert run([*argv, "--force"])[0] == 0
    assert len(renders) == 16


def old_manifest(manifest, version):
    """Rewrite a manifest as `version` 1 or 2 would hold it."""
    payload = json.loads(manifest.read_text("utf-8"))
    entries = [dict(zip(("path", "ownership", "sha256"), row)) for row in payload["entries"]]
    if version == 2:
        for entry in entries:
            entry["inputs"] = "0" * 64
    manifest.write_text(json.dumps({"version": version, "entries": entries}, indent=2), "utf-8")


def rewritten_from_old_manifest(tmp_path, monkeypatch, version):
    """Generate newsboard, rewrite its manifest at `version`, and generate again:
    every template is rendered, and the manifest is as before."""
    out = tmp_path / "out"
    argv = ["generate", "--model", NEWSBOARD, "--pack", str(PACK), "--out", str(out)]
    assert run(argv)[0] == 0
    manifest = out / ownership.MANIFEST_FILENAME
    current = manifest.read_text("utf-8")
    old_manifest(manifest, version)
    renders = counting_renders(monkeypatch)
    assert run(argv)[0] == 0
    assert len(renders) == 16
    assert manifest.read_text("utf-8") == current


def test_a_version_1_manifest_reuses_nothing_and_is_rewritten(tmp_path, monkeypatch):
    rewritten_from_old_manifest(tmp_path, monkeypatch, 1)


def test_a_version_2_manifest_reuses_nothing_and_is_rewritten(tmp_path, monkeypatch):
    rewritten_from_old_manifest(tmp_path, monkeypatch, 2)


def counting_binds(monkeypatch):
    """The number of Entity elements bound from the document as it is
    parsed, and of stubs bound on a later read, as they happen."""
    counts = {"parsed": 0, "stubs": 0}
    parsed, stub = loader._Entity.__init__, loader.bind_entity

    def counted_parse(*args):
        counts["parsed"] += 1
        parsed(*args)

    def counted_stub(*args):
        counts["stubs"] += 1
        return stub(*args)

    monkeypatch.setattr(loader._Entity, "__init__", counted_parse)
    monkeypatch.setattr(loader, "bind_entity", counted_stub)
    return counts


def seeded_model(tmp_path, entities):
    """A seeded random model of `entities` entities, written; its element tree."""
    rng = random.Random(11)
    root = randmodels.model_element(rng, randmodels.random_model(rng, force_size=(entities, 3)))
    (tmp_path / "model.xml").write_text(randmodels.to_xml(root), "utf-8")
    return root


def test_a_one_entity_edit_binds_only_that_entity(tmp_path, monkeypatch):
    """After a one-entity edit of a 200-entity model, generate binds that
    entity's source and no other: the other 199 are stubs, and nothing that
    the run does reads past what they hold."""
    root = seeded_model(tmp_path, 200)
    argv = ["generate", "--model", str(tmp_path / "model.xml"), "--pack", str(PACK),
            "--out", str(tmp_path / "out")]
    assert run(argv)[0] == 0
    entity = root[2][1][2][100]
    block = next(child for child in entity[2] if child[0] == "Language")
    block[2][0][3] += " edited"  # the entity's DisplayName in one language
    (tmp_path / "model.xml").write_text(randmodels.to_xml(root), "utf-8")
    counts = counting_binds(monkeypatch)
    code, out, _ = run(argv)
    assert code == 0 and "OVERWRITE" in out
    assert counts == {"parsed": 1, "stubs": 0}
    monkeypatch.undo()
    assert run([*argv[:-1], str(tmp_path / "fresh")])[0] == 0
    assert read_tree(tmp_path / "out") == read_tree(tmp_path / "fresh")


def test_a_version_3_manifest_reuses_by_its_keys_and_binds_everything(tmp_path, monkeypatch):
    """A version-3 manifest has no entity summaries: every entity is bound
    once, every artifact is still reused by its keys, and the manifest is
    written again at version 4, as generating afresh writes it."""
    seeded_model(tmp_path, 20)
    out = tmp_path / "out"
    argv = ["generate", "--model", str(tmp_path / "model.xml"), "--pack", str(PACK),
            "--out", str(out)]
    assert run(argv)[0] == 0
    manifest = out / ownership.MANIFEST_FILENAME
    current = manifest.read_text("utf-8")
    payload = json.loads(current)
    assert payload["version"] == 4 and len(payload["summaries"]) == 20
    del payload["sources"], payload["summaries"]
    manifest.write_text(json.dumps({**payload, "version": 3}), "utf-8")
    counts, renders = counting_binds(monkeypatch), counting_renders(monkeypatch)
    code, out_text, _ = run(argv)
    assert code == 0 and "CREATE" not in out_text and "OVERWRITE" not in out_text
    assert renders == [] and counts == {"parsed": 20, "stubs": 0}
    assert manifest.read_text("utf-8") == current


def test_a_manifest_path_outside_the_output_root_is_malformed(tmp_path):
    """An entry's path is read from outside the program, so an entry whose
    path leaves the output root stops generate before any file is read."""
    out = tmp_path / "out"
    argv = ["generate", "--model", NEWSBOARD, "--pack", str(PACK), "--out", str(out)]
    assert run(argv)[0] == 0
    manifest = out / ownership.MANIFEST_FILENAME
    manifest.write_text(manifest.read_text("utf-8").replace('"docs/Vest.md"', '"../outside.md"'),
                        "utf-8")
    assert run(argv) == (3, "", "error E_MANIFEST: malformed manifest: entry path "
                                "'../outside.md' is not a normalized relative path\n")


def test_an_edited_file_with_unchanged_inputs_is_a_conflict(tmp_path, monkeypatch):
    out = tmp_path / "out"
    argv = ["generate", "--model", NEWSBOARD, "--pack", str(PACK), "--out", str(out)]
    assert run(argv)[0] == 0
    docs = next((out / "docs").iterdir())
    original = docs.read_bytes()
    docs.write_bytes(b"edited\n")
    code, _, err = run(argv)
    assert code == 2
    assert f"conflict: docs/{docs.name} (file was modified after the last generation)" in err
    assert run([*argv, "--force"])[0] == 0
    assert docs.read_bytes() == original


def test_a_deleted_file_is_rendered_again(tmp_path, monkeypatch):
    out = tmp_path / "out"
    argv = ["generate", "--model", NEWSBOARD, "--pack", str(PACK), "--out", str(out)]
    assert run(argv)[0] == 0
    docs = next((out / "docs").iterdir())
    original = docs.read_bytes()
    docs.unlink()
    assert run(argv) == (0, "generated 16 artifacts: 1 CREATE, 2 SKIP_ONCE, "
                            "13 SKIP_UNCHANGED\n", "")
    assert docs.read_bytes() == original


# -- the inputs of an artifact ---------------------------------------------------

def _entity_sources(text):
    """The source text of each Entity element of a document."""
    starts = [i for i in range(len(text)) if text.startswith("<Entity ", i)]
    return [text[start:text.index("</Entity>", start) + len("</Entity>")] for start in starts]


def test_entity_digest_is_the_digest_of_its_source():
    text = Path(NEWSBOARD).read_text("utf-8")
    model, _ = loader.load_model(text.encode("utf-8"))
    sources = _entity_sources(text)
    assert [e.digest for e in model.entities] == [
        ownership.digest(source.encode("utf-8")) for source in sources]
    assert "digest" not in repr(model.entities[0])


def test_entity_digest_is_outside_its_value_and_what_templates_read():
    entity = Entity(name="E", fields=(Field(name="ID", type=FieldType.INT),))
    assert entity.digest == ""
    assert Entity(name="E", fields=entity.fields, digest="ab") == entity
    assert atl.eval_expr("e.digest", {"e": entity}) is None
    assert atl.eval_expr("entity.digest", {"entity": entity}) is None


def test_a_self_closing_entity_has_a_source_digest():
    text = ('<xsource><Settings appName="A"/><EntityConfig>'
            '<Entity name="E" tableName="E"/></EntityConfig></xsource>')
    model, _ = loader.load_model(text.encode("utf-8"))
    assert model.entities[0].digest == ownership.digest(b'<Entity name="E" tableName="E"/>')


def test_a_model_built_in_code_records_no_inputs(webstack):
    model = randmodels.random_model(random.Random(3), max_entities=3)
    manifest = ownership.Manifest((ownership.ManifestEntry("docs/x.md", ownership.Ownership.ALWAYS,
                                                           ""),))
    artifacts = packs.generate_all(model, webstack, manifest=manifest,
                                   read=lambda path: b"from disk")
    assert artifacts and all(a.rule + a.entity == "" and a.content != b"from disk"
                             for a in artifacts)


def test_every_input_of_a_loaded_model_is_recorded(newsboard_model, webstack):
    english = [a.rule + a.entity
               for a in packs.generate_all(newsboard_model, webstack, lang="English")]
    assert all(len(inputs) == 64 for inputs in english)
    assert len(set(english)) == len(english)
    macedonian = packs.generate_all(newsboard_model, webstack, lang="Macedonian")
    assert not set(english) & {a.rule + a.entity for a in macedonian}


def test_reuse_is_asked_for_each_artifact_with_its_inputs(newsboard_model, webstack):
    """Each artifact's file is read once, at its own path, and taken only where
    the manifest entry at that path holds the artifact's keys."""
    fresh = packs.generate_all(newsboard_model, webstack)
    # entries with the keys of every other artifact, and of the artifact after
    # it for the rest, each at its own artifact's path
    entries = [ownership.ManifestEntry(a.path, a.ownership, "", *(
        (a.rule, a.entity) if i % 2 else (b.rule, b.entity)))
        for i, (a, b) in enumerate(zip(fresh, fresh[1:] + fresh[:1]))]
    asked = []

    def read(path):
        asked.append(path)
        return b"from disk"

    artifacts = packs.generate_all(newsboard_model, webstack,
                                   manifest=ownership.Manifest(tuple(entries)), read=read)
    assert asked == [a.path for a in fresh] == [a.path for a in artifacts]
    assert [a.content == b"from disk" for a in artifacts] == [i % 2 == 1 for i in range(len(fresh))]
    assert [a.rule + a.entity for a in artifacts] == [a.rule + a.entity for a in fresh]


def test_a_template_reading_the_model_or_a_location_uses_the_whole_model():
    listing = {"pack.json": json.dumps({"name": "p", "version": "1", "outputs": [
        {"template": name, "path": f"{name}/{{entity.name}}", "per": "entity",
         "ownership": "always"} for name in ("own.atl", "loc.atl", "model.atl")]}),
        "own.atl": "{{ entity.name }}", "loc.atl": "{{ count(entity.location) }}",
        "model.atl": "{{ count(model.entities) }}"}
    pack = packs.load_pack(listing)
    assert pack.templates["own.atl"].names == {"entity"}
    assert pack.templates["loc.atl"].steps == {"location"}
    text = ('<xsource><Settings appName="A"/><EntityConfig>\n'
            '<Entity name="A" tableName="A"><Field name="ID" type="int" isPK="true"/></Entity>\n'
            '<Entity name="B" tableName="B"><Field name="ID" type="int" isPK="true"/></Entity>\n'
            '</EntityConfig></xsource>')

    def inputs(document):
        model, _ = loader.load_model(document.encode("utf-8"))
        return {a.path: a.rule + a.entity for a in packs.generate_all(
            model, pack, manifest=ownership.Manifest(), read=lambda path: None)}

    before = inputs(text)
    after = inputs(text.replace('\n<Entity name="B"', '\n\n<Entity name="B"'))
    changed = {path for path in before if before[path] != after[path]}
    assert changed == {"loc.atl/A", "loc.atl/B", "model.atl/A", "model.atl/B"}


def test_a_rule_made_per_model_is_rendered_again(tmp_path, monkeypatch):
    """`per` is an input: a per-entity rule with a fixed path whose template
    reads the model root has every other input of its per-model twin, and the
    twin's template finds no `entity` to read."""
    pack, model = tmp_path / "pack", tmp_path / "model.xml"
    pack.mkdir()
    (pack / "both.atl").write_text("{{ count(model.entities) }} {{ entity.name }}\n")
    rule = {"template": "both.atl", "path": "both.txt", "per": "entity", "ownership": "always"}
    model.write_text('<xsource><Settings appName="A"/><EntityConfig>'
                     '<Entity name="A" tableName="A"><Field name="ID" type="int" isPK="true"/>'
                     '</Entity></EntityConfig></xsource>', "utf-8")
    argv = ["generate", "--model", str(model), "--pack", str(pack), "--out", "out"]
    results = []
    for full in (False, True):
        with monkeypatch.context() as patch:
            patch.chdir(tmp_path)
            shutil.rmtree("out", ignore_errors=True)
            if full:
                rendering_everything(patch)
            rule["per"] = "entity"
            (pack / "pack.json").write_text(json.dumps({"name": "p", "version": "1", "outputs": [rule]}))
            assert run(argv) == (0, "generated 1 artifacts: 1 CREATE\n", "")
            rule["per"] = "model"
            (pack / "pack.json").write_text(json.dumps({"name": "p", "version": "1", "outputs": [rule]}))
            results.append(run(argv))
    assert results[0] == results[1]
    code, out, err = results[0]
    assert (code, out) == (4, "") and err.startswith("error E_TEMPLATE: "), err
