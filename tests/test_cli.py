import errno
import gc
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import sfgen
from sfgen import loader, ownership, packs
from sfgen.cli import main

import randmodels
from conftest import FIXTURES


NEWSBOARD = str(FIXTURES / "newsboard.xml")
PACK = str(packs.builtin_pack_dir())


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def generate(out, *extra):
    return main(["generate", "--model", NEWSBOARD, "--pack", PACK,
                 "--out", str(out), *extra])


def test_validate_clean(capsys):
    assert main(["validate", NEWSBOARD]) == 0
    assert "0 errors, 0 warnings" in capsys.readouterr().out


def test_validate_invalid_model(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_text('<xsource><EntityConfig><Entity name="E" tableName="E"/>'
                   "</EntityConfig></xsource>")
    assert main(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "E_NO_FIELDS" in captured.err
    assert "1 errors, 0 warnings" in captured.out


def test_validate_unparsable_model(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_text("<xsource>")
    assert main(["validate", str(bad)]) == 1
    assert "E_PARSE at 1:1" in capsys.readouterr().err


def test_validate_deeply_nested_model(tmp_path):
    deep = tmp_path / "deep.xml"
    deep.write_bytes(b"<a>" * 100_000 + b"</a>" * 100_000)
    env = {**os.environ, "PYTHONPATH": str(Path(sfgen.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-m", "sfgen.cli", "validate", str(deep)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 1
    assert "E_DOC_SHAPE" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("length", ["\u00b2", "\u0661\u0662"], ids=["superscript-two", "arabic-12"])
def test_validate_non_ascii_digits(tmp_path, length):
    model = tmp_path / "model.xml"
    model.write_text('<xsource><EntityConfig><Entity name="E" tableName="E">'
                     '<Field name="ID" type="int" isPK="true"/>'
                     f'<Field name="s" type="nvarchar" length="{length}"/>'
                     "</Entity></EntityConfig></xsource>", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(sfgen.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-m", "sfgen.cli", "validate", str(model)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 1
    assert "E_BAD_INT" in result.stderr
    assert "Traceback" not in result.stderr


def test_missing_model_file_is_io_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.xml")]) == 3
    assert "E_IO" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert main(["generate"]) == 5
    assert "usage error" in capsys.readouterr().err
    assert main(["frobnicate"]) == 5


def test_generate_fresh_and_idempotent(tmp_path, capsys):
    out = tmp_path / "out"
    assert generate(out) == 0
    assert "CREATE" in capsys.readouterr().out
    assert (out / ".sfgen-manifest.json").exists()
    assert (out / "sql" / "001_tables.sql").exists()

    first = tree_digest(out)
    assert generate(out) == 0
    summary = capsys.readouterr().out
    assert "SKIP_ONCE" in summary and "SKIP_UNCHANGED" in summary
    assert "CREATE" not in summary and "OVERWRITE" not in summary
    assert tree_digest(out) == first


def test_no_change_regeneration_hashes_each_artifact_once(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert generate(out) == 0
    calls = []
    real_digest = ownership.digest
    monkeypatch.setattr(ownership, "digest", lambda content: calls.append(content)
                        or real_digest(content))
    assert generate(out) == 0
    assert "generated 16 artifacts" in capsys.readouterr().out
    assert len(calls) == 16


def test_generate_keeps_a_user_file_named_like_a_temp_file(tmp_path, capsys):
    out = tmp_path / "out"
    user_file = out / "web" / ".tmp-Vest_edit.html"
    user_file.parent.mkdir(parents=True)
    user_file.write_bytes(b"<p>mine</p>\n")
    assert generate(out) == 0
    assert (out / "web" / "Vest_edit.html").exists()
    assert user_file.read_bytes() == b"<p>mine</p>\n"
    capsys.readouterr()
    assert main(["stats", "--out", str(out), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["manualFiles"] == 1


def test_generate_dry_run_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert generate(out, "--dry-run") == 0
    assert not out.exists()
    assert "CREATE" in capsys.readouterr().out

    assert generate(out) == 0
    before = tree_digest(out)
    capsys.readouterr()
    assert generate(out, "--dry-run") == 0
    assert tree_digest(out) == before


def test_dry_run_lists_every_path_after_a_one_entity_edit(tmp_path, capsys):
    """Each artifact's action and reason, in artifact order, after newsboard's
    English DisplayName of Fakultet is edited in a generated tree."""
    model = tmp_path / "model.xml"
    text = Path(NEWSBOARD).read_text("utf-8")
    model.write_text(text, "utf-8")
    argv = ["generate", "--model", str(model), "--pack", PACK, "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    model.write_text(text.replace("<DisplayName>Faculty</DisplayName>",
                                  "<DisplayName>Faculty board</DisplayName>", 1), "utf-8")
    capsys.readouterr()
    assert main([*argv, "--dry-run"]) == 0
    unchanged, once = "SKIP_UNCHANGED  {} (content unchanged)", \
        "SKIP_ONCE       {} (scaffolded once; owned by the developer)"
    differs = "OVERWRITE       {} (regenerated content differs)"
    assert capsys.readouterr().out.splitlines() == [
        unchanged.format("sql/001_tables.sql"), unchanged.format("sql/002_constraints.sql"),
        unchanged.format("sql/procs/Fakultet.sql"), unchanged.format("sql/procs/Vest.sql"),
        unchanged.format("dal/Fakultet_Base.js"), unchanged.format("dal/Vest_Base.js"),
        once.format("dal/Fakultet.js"), once.format("dal/Vest.js"),
        differs.format("web/Fakultet_edit.html"), unchanged.format("web/Vest_edit.html"),
        unchanged.format("web/Fakultet_list.html"), unchanged.format("web/Vest_list.html"),
        unchanged.format("web/validation.js"), differs.format("docs/Fakultet.md"),
        unchanged.format("docs/Vest.md"), unchanged.format("api/api.json")]


def test_generate_conflict_and_force(tmp_path, capsys):
    out = tmp_path / "out"
    assert generate(out) == 0
    tables = out / "sql" / "001_tables.sql"
    original = tables.read_bytes()
    tables.write_bytes(b"-- hand edit\n" + original)

    assert generate(out) == 2
    err = capsys.readouterr().err
    assert "conflict: sql/001_tables.sql" in err
    assert tables.read_bytes().startswith(b"-- hand edit")

    assert generate(out, "--force") == 0
    assert tables.read_bytes() == original


def test_generate_dry_run_reports_conflict(tmp_path, capsys):
    out = tmp_path / "out"
    assert generate(out) == 0
    (out / "sql" / "001_tables.sql").write_bytes(b"edited")
    before = tree_digest(out)
    capsys.readouterr()
    assert generate(out, "--dry-run") == 2
    assert "CONFLICT" in capsys.readouterr().out
    assert tree_digest(out) == before


def test_generate_preserves_edited_once_files(tmp_path):
    out = tmp_path / "out"
    assert generate(out) == 0
    dal = out / "dal" / "Vest.js"
    dal.write_text("// my implementation\n")
    assert generate(out) == 0
    assert dal.read_text() == "// my implementation\n"


def test_generate_invalid_model(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_text('<xsource><EntityConfig><Entity name="E" tableName="E"/>'
                   "</EntityConfig></xsource>")
    out = tmp_path / "out"
    assert main(["generate", "--model", str(bad), "--pack", PACK, "--out", str(out)]) == 1
    assert "nothing generated" in capsys.readouterr().err
    assert not out.exists()


def test_a_name_that_is_not_an_identifier_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_text(Path(NEWSBOARD).read_text("utf-8").replace('name="Vest"', 'name="E x;"'),
                   "utf-8")
    assert main(["validate", str(bad)]) == 1
    assert "E_BAD_IDENT at " in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["generate", "--model", str(bad), "--pack", PACK, "--out", str(out)]) == 1
    assert "nothing generated" in capsys.readouterr().err
    assert not out.exists()


def test_a_name_reserved_in_javascript_is_an_error(tmp_path, capsys):
    # 'class' is an identifier, but `class class extends class_Base` is no JS
    bad = tmp_path / "reserved.xml"
    bad.write_text(Path(NEWSBOARD).read_text("utf-8").replace('name="Vest"', 'name="class"'),
                   "utf-8")
    assert main(["validate", str(bad)]) == 1
    assert "entity name 'class' is a reserved word in JavaScript" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["generate", "--model", str(bad), "--pack", PACK, "--out", str(out)]) == 1
    assert "nothing generated" in capsys.readouterr().err
    assert not out.exists()


def test_generate_bad_pack(tmp_path, capsys):
    pack_dir = tmp_path / "pack"
    pack_dir.mkdir()
    (pack_dir / "pack.json").write_text("{not json")
    out = tmp_path / "out"
    assert main(["generate", "--model", NEWSBOARD, "--pack", str(pack_dir),
                 "--out", str(out)]) == 4
    assert "E_PACK" in capsys.readouterr().err


def _generate_with_pack_file(tmp_path, name, content):
    """`sfgen generate` in a subprocess, with webstack's file `name` replaced."""
    pack_dir = tmp_path / "pack"
    shutil.copytree(PACK, pack_dir)
    if isinstance(content, str):
        content = content.encode()
    (pack_dir / name).write_bytes(content)
    env = {**os.environ, "PYTHONPATH": str(Path(sfgen.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "sfgen.cli", "generate", "--model", NEWSBOARD,
                           "--pack", str(pack_dir), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)


def test_generate_pack_with_template_syntax_error(tmp_path):
    result = _generate_with_pack_file(tmp_path, "docs.md.atl", "{{ a + b }}")
    assert result.returncode == 4
    assert "error E_PACK: docs.md.atl:1:6: unexpected character '+'" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_generate_pack_with_too_deep_expression(tmp_path):
    result = _generate_with_pack_file(tmp_path, "docs.md.atl",
                                      "{{ " + " and ".join(["a"] * 1000) + " }}")
    assert result.returncode == 4
    assert "error E_PACK: docs.md.atl:1:606: expression nested too deeply" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_generate_pack_with_a_for_variable_named_loop(tmp_path):
    result = _generate_with_pack_file(tmp_path, "docs.md.atl",
                                      "{% for loop in model.entities %}{% endfor %}")
    assert result.returncode == 4
    assert ("error E_PACK: docs.md.atl:1:8: a for variable named 'loop' hides the loop's own "
            "'loop'") in result.stderr
    assert "Traceback" not in result.stderr


def test_generate_pack_json_not_an_object(tmp_path):
    result = _generate_with_pack_file(tmp_path, "pack.json", "[]")
    assert result.returncode == 4
    assert "error E_PACK: pack.json must hold a JSON object" in result.stderr
    assert "Traceback" not in result.stderr


def test_generate_pack_file_not_utf8(tmp_path):
    result = _generate_with_pack_file(tmp_path, "docs.md.atl", b"\xff\xfe")
    assert result.returncode == 4
    assert "error E_PACK: docs.md.atl is not valid UTF-8: invalid start byte" in result.stderr
    assert "Traceback" not in result.stderr


def _deny_reads(monkeypatch, method: str, suffix: str) -> None:
    """Make Path.<method> fail on every file whose name ends with `suffix`, as
    reading a file of mode 000 does for any user but root."""
    read = getattr(Path, method)

    def denied(self, *args, **kwargs):
        if self.name.endswith(suffix):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))
        return read(self, *args, **kwargs)

    monkeypatch.setattr(Path, method, denied)


def test_generate_pack_file_unreadable(tmp_path, monkeypatch, capsys):
    _deny_reads(monkeypatch, "read_text", "docs.md.atl")
    assert generate(tmp_path / "out") == 3
    assert capsys.readouterr().err == (
        f"error E_IO: cannot read {Path(PACK) / 'docs.md.atl'}: {os.strerror(errno.EACCES)}\n")
    assert not (tmp_path / "out").exists()


def _deny(monkeypatch, function: str, suffix: str) -> None:
    """Make os.<function> fail on every path that ends with `suffix`, as
    opening a file or listing a directory of mode 000 does for any user but root."""
    real = getattr(os, function)

    def denied(path, *args, **kwargs):
        if str(path).endswith(suffix):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(os, function, denied)


def test_generate_output_file_unreadable(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert generate(out) == 0
    for force in ([], ["--force"]):  # with or without a file taken as it is
        capsys.readouterr()
        with monkeypatch.context() as patch:
            _deny(patch, "open", "Vest_edit.html")
            assert generate(out, *force) == 3
        assert capsys.readouterr() == (
            "", f"error E_IO: cannot read {out / 'web' / 'Vest_edit.html'}: "
                f"{os.strerror(errno.EACCES)}\n")


def test_generate_output_path_is_a_directory(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "docs" / "Vest.md").mkdir(parents=True)
    assert generate(out) == 3
    assert capsys.readouterr().err == (
        f"error E_IO: cannot read {out / 'docs' / 'Vest.md'}: {os.strerror(errno.EISDIR)}\n")


def _pack_with_a_rule_at_docs(pack):
    shutil.copytree(PACK, pack)
    manifest = json.loads((pack / "pack.json").read_text("utf-8"))
    manifest["outputs"].append({"template": "tables.sql.atl", "path": "docs", "per": "model",
                                "ownership": "always"})
    (pack / "pack.json").write_text(json.dumps(manifest), "utf-8")


def _file_at_docs(out):
    shutil.rmtree(out / "docs")
    (out / "docs").write_text("mine\n", "utf-8")


# obstacles known before the first write: a rule's path that is a directory of
# another artifact's, and a user's file where a directory goes
@pytest.mark.parametrize("obstacle, code, message", [
    ("collision", 4, "error E_PACK: output rule #11 produces 'docs' and output rule #9 for "
     "entity 'Fakultet' produces 'docs/Fakultet.md': 'docs' cannot be both a file and a "
     "directory\n"),
    ("file", 3, "error E_IO: cannot read {out}/docs/Fakultet.md: Not a directory\n"),
])
def test_an_obstacle_stops_generate_before_any_write(tmp_path, capsys, obstacle, code, message):
    out, pack = tmp_path / "out", tmp_path / "pack"
    assert generate(out) == 0
    if obstacle == "collision":
        _pack_with_a_rule_at_docs(pack)
    else:
        _file_at_docs(out)
        pack = PACK
    before = tree_digest(out)
    capsys.readouterr()
    assert main(["generate", "--model", NEWSBOARD, "--pack", str(pack), "--out", str(out)]) \
        == code
    assert capsys.readouterr() == ("", message.format(out=out))
    assert tree_digest(out) == before  # the manifest included


@pytest.mark.parametrize("failing", ["web/Vest_edit.html", ownership.MANIFEST_FILENAME])
def test_generate_failed_write_is_io_error(tmp_path, monkeypatch, capsys, failing):
    out = tmp_path / "out"
    real_replace = os.replace

    def replace(src, dst):
        if str(dst).endswith(failing):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert generate(out) == 3
    assert capsys.readouterr() == (
        "", f"error E_IO: {out / failing}: {os.strerror(errno.EIO)}\n")


def test_generate_pack_directory_unreadable(tmp_path, monkeypatch, capsys):
    pack_dir = tmp_path / "pack"
    shutil.copytree(PACK, pack_dir)
    (pack_dir / "sub").mkdir()
    (pack_dir / "docs.md.atl").rename(pack_dir / "sub" / "docs.md.atl")
    spec = (pack_dir / "pack.json").read_text()
    (pack_dir / "pack.json").write_text(spec.replace('"docs.md.atl"', '"sub/docs.md.atl"'))
    argv = ["generate", "--model", NEWSBOARD, "--pack", str(pack_dir),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    capsys.readouterr()
    _deny(monkeypatch, "scandir", "sub")
    assert main(argv) == 3
    assert capsys.readouterr() == (
        "", f"error E_IO: cannot read {pack_dir / 'sub'}: {os.strerror(errno.EACCES)}\n")


def test_stats_output_directory_unreadable(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert generate(out) == 0
    capsys.readouterr()
    _deny(monkeypatch, "scandir", "web")
    assert main(["stats", "--out", str(out)]) == 3
    assert capsys.readouterr() == (
        "", f"error E_IO: cannot read {out / 'web'}: {os.strerror(errno.EACCES)}\n")


@pytest.mark.parametrize("key", ["path", "template", "per"])
def test_generate_output_rule_value_not_a_string(tmp_path, key):
    rule = {"template": "docs.md.atl", "path": "docs.md", "per": "model", "ownership": "always"}
    pack = {"name": "p", "version": "1", "outputs": [{**rule, key: 5}]}
    result = _generate_with_pack_file(tmp_path, "pack.json", json.dumps(pack))
    assert result.returncode == 4
    assert ("error E_PACK: output rule #1: 'template', 'path' and 'per' must be strings"
            in result.stderr)
    assert "Traceback" not in result.stderr


def test_generate_output_rule_path_with_a_nul(tmp_path):
    pack = json.loads(Path(PACK, "pack.json").read_text("utf-8"))
    pack["outputs"][0]["path"] = "sql/001\u0000tables.sql"
    result = _generate_with_pack_file(tmp_path, "pack.json", json.dumps(pack))
    assert result.returncode == 4
    assert ("error E_PACK: output rule #1 ('sql/001\\x00tables.sql'): path must not contain "
            "a NUL character") in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_stats_table_and_json(tmp_path, capsys):
    out = tmp_path / "out"
    assert generate(out) == 0
    capsys.readouterr()

    assert main(["stats", "--out", str(out)]) == 0
    table = capsys.readouterr().out
    assert "generated" in table and "manual" in table
    assert "100" in table

    (out / "README.txt").write_text("hand-written notes")
    assert main(["stats", "--out", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "generatedBytes", "manualBytes", "generatedFiles", "manualFiles",
        "pctGeneratedBytes", "pctManualBytes", "pctGeneratedFiles", "pctManualFiles",
    }
    assert payload["manualFiles"] == 1
    assert payload["manualBytes"] == len("hand-written notes")


def test_stats_output_file_unreadable(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert generate(out) == 0
    capsys.readouterr()
    _deny_reads(monkeypatch, "read_bytes", ".html")
    assert main(["stats", "--out", str(out)]) == 3
    first = sorted(out.rglob("*.html"))[0]
    captured = capsys.readouterr()
    assert captured.err == f"error E_IO: cannot read {first}: {os.strerror(errno.EACCES)}\n"
    assert captured.out == ""


def test_stats_without_manifest(tmp_path, capsys):
    assert main(["stats", "--out", str(tmp_path)]) == 3
    assert "run generate first" in capsys.readouterr().err
    assert main(["stats", "--out", str(tmp_path / "missing")]) == 3


@pytest.mark.parametrize("command", ["generate", "stats"])
@pytest.mark.parametrize("manifest_kind", ["not-utf8", "directory", "future-version"])
def test_unreadable_manifest_is_manifest_error(tmp_path, command, manifest_kind):
    out = tmp_path / "out"
    out.mkdir()
    manifest = out / ".sfgen-manifest.json"
    if manifest_kind == "directory":
        manifest.mkdir()
    elif manifest_kind == "future-version":
        manifest.write_text('{"version": 99, "entries": []}')
    else:
        manifest.write_bytes(b"\xff\xfe{}")
    argv = (["generate", "--model", NEWSBOARD, "--pack", PACK, "--out", str(out)]
            if command == "generate" else ["stats", "--out", str(out)])
    env = {**os.environ, "PYTHONPATH": str(Path(sfgen.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-m", "sfgen.cli", *argv],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 3
    assert "E_MANIFEST" in result.stderr
    assert "Traceback" not in result.stderr


def test_lint(capsys):
    assert main(["lint", "--model", NEWSBOARD]) == 0
    out = capsys.readouterr().out
    assert "ADV_RULE_OF_THREE" in out
    assert "2 advisories" in out


def test_the_model_bytes_are_freed_before_binding(tmp_path, monkeypatch, capsys):
    # once a model file is decoded, a command holds its text but not its bytes:
    # validation, which comes after binding, sees the model and the text only
    rng = random.Random(5)
    path = tmp_path / "model.xml"
    path.write_bytes(randmodels.to_xml(randmodels.model_element(
        rng, randmodels.random_model(rng, force_size=(200, 20)))).encode())
    file_size = path.stat().st_size
    validate, held = loader.validate_model, []

    def spy(model):
        held.append(tracemalloc.get_traced_memory()[0])
        return validate(model)

    monkeypatch.setattr(loader, "validate_model", spy)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(["validate", str(path)]) == 0
        before = tracemalloc.get_traced_memory()[0]
        model = loader.load_model(path.read_bytes())
        model_size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the text takes a byte per character of the ASCII file, the binder's string
    # table and first-use caches about a quarter of that; the bytes would take another
    assert held[0] - start < model_size + 1.6 * file_size
    assert "0 errors, 0 warnings" in capsys.readouterr().out


@pytest.mark.parametrize("lang", ["English", "Macedonian", ""])
def test_generate_lang_selection(tmp_path, lang):
    out = tmp_path / "out"
    args = ["--lang", lang] if lang else []
    assert generate(out, *args) == 0
    docs = (out / "docs" / "Fakultet.md").read_text()
    if lang == "Macedonian":
        assert "Факултет" in docs
    else:  # explicit English or fallback to the default language
        assert "Faculty" in docs


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("command", ["lint", "generate"])
def test_a_command_runs_with_the_collector_paused(command, enabled, tmp_path):
    argv = (["lint", "--model", NEWSBOARD] if command == "lint" else
            ["generate", "--model", NEWSBOARD, "--pack", PACK, "--out", str(tmp_path)])
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    gc.callbacks.append(record)
    try:
        assert main(argv) == 0
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(record)
        (gc.enable if was_enabled else gc.disable)()
    assert collections == []


# -- the manifest is read before the model, and its error reported after it ------

@pytest.mark.parametrize("model,code,expected", [
    ("<xsource>", 1, "error E_PARSE at 1:1: unclosed element 'xsource'\n"),
    ('<xsource><EntityConfig><Entity name="E" tableName="E"/></EntityConfig></xsource>', 1,
     None),
    (None, 3, "error E_MANIFEST: malformed manifest: "),
], ids=["parse-error", "validation-errors", "valid"])
def test_a_malformed_manifest_is_reported_after_the_model(tmp_path, capsys, model, code,
                                                         expected):
    path = tmp_path / "model.xml"
    if model is None:
        shutil.copy(NEWSBOARD, path)
    else:
        path.write_text(model)
    out = tmp_path / "out"
    out.mkdir()
    (out / ownership.MANIFEST_FILENAME).write_text('{"version": 4, "entries": "x"}')
    assert main(["generate", "--model", str(path), "--pack", PACK, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if model is None:
        assert err.startswith(expected) and err.count("\n") == 1
    elif expected is not None:
        assert err == expected
    else:
        assert "E_NO_FIELDS" in err and "E_MANIFEST" not in err


def _loads(monkeypatch):
    """The summaries given to each load, as loads happen."""
    recorded, load = [], loader.load_document

    def spy(document, *args):
        recorded.append(args[0] if args else None)
        return load(document, *args)

    monkeypatch.setattr(loader, "load_document", spy)
    return recorded


def test_a_regeneration_takes_the_recorded_summaries(tmp_path, monkeypatch):
    loads = _loads(monkeypatch)
    assert generate(tmp_path / "out") == 0  # a cold run: no manifest
    assert generate(tmp_path / "out") == 0
    assert loads[0] is None and len(loads[1]) == 2


def test_force_loads_in_full(tmp_path, monkeypatch):
    assert generate(tmp_path / "out") == 0
    loads = _loads(monkeypatch)
    assert generate(tmp_path / "out", "--force") == 0
    assert loads == [None]


@pytest.mark.parametrize("argv", [["validate", NEWSBOARD], ["lint", "--model", NEWSBOARD]],
                         ids=["validate", "lint"])
def test_validate_and_lint_load_in_full(tmp_path, monkeypatch, argv):
    assert generate(tmp_path) == 0
    monkeypatch.chdir(tmp_path)  # beside a manifest, which they do not read
    loads = _loads(monkeypatch)
    assert main(argv) == 0
    assert loads == [None]


def test_a_forged_summary_defers_the_parse_error_of_its_source(tmp_path, monkeypatch, capsys):
    """A summary forged for a malformed Entity element makes it a stub, so the
    load reports nothing; binding it when its files are rendered reports the
    error that loading it in full does, with the same exit code."""
    out = tmp_path / "out"
    assert generate(out) == 0
    text = Path(NEWSBOARD).read_text("utf-8")
    end = text.rindex("</Constraint>")
    broken = tmp_path / "broken.xml"
    broken.write_text(text[:end] + "</Field>" + text[end + len("</Constraint>"):], "utf-8")
    argv = ["generate", "--model", str(broken), "--pack", PACK, "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 1
    expected = capsys.readouterr()
    assert expected.err.startswith("error E_PARSE at 59:14: mismatched closing tag")
    source = broken.read_text("utf-8")
    start = source.index('<Entity tableName="Vest"')
    source = source[start:source.index("</Entity>", start) + len("</Entity>")]
    manifest = out / ownership.MANIFEST_FILENAME
    payload = json.loads(manifest.read_text("utf-8"))
    payload["summaries"].append([ownership.digest(source.encode())[:32], len(source),
                                 ["English"], ["Fakultet"]])
    manifest.write_text(json.dumps(payload), "utf-8")
    stubs, bind = [], loader.bind_entity
    monkeypatch.setattr(loader, "bind_entity", lambda *args: stubs.append(args) or bind(*args))
    assert main(argv) == 1
    assert capsys.readouterr() == expected
    assert len(stubs) == 1


def test_a_warning_is_reported_on_every_run(tmp_path, capsys):
    """A load with diagnostics records no summaries, so no entity of it is
    a stub next time, and its warnings are reported again."""
    model = tmp_path / "model.xml"
    model.write_text(Path(NEWSBOARD).read_text("utf-8").replace(
        '<Field name="Title"', '<Field frob="1" name="Title"'), "utf-8")
    argv = ["generate", "--model", str(model), "--pack", PACK, "--out", str(tmp_path / "out")]
    for _ in range(2):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "warning W_UNKNOWN_ATTR at 40:14 [Entity[Vest]/Field[Title]]" in out
    payload = json.loads((tmp_path / "out" / ownership.MANIFEST_FILENAME).read_text("utf-8"))
    assert payload["summaries"] == []
