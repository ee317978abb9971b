import errno
import json
import os

import pytest
from hypothesis import given, strategies as st

from sfgen.ownership import (
    MANIFEST_FILENAME,
    Manifest,
    ManifestEntry,
    ManifestError,
    Ownership,
    WriteAction,
    apply_plan,
    digest,
    load_manifest,
    manifest_from_json,
    manifest_to_json,
    plan_writes,
    read_file,
    save_manifest,
    walk_files,
)
from sfgen.packs import Artifact


def A(path, content, ownership=Ownership.ALWAYS):
    return Artifact(path=path, content=content, ownership=ownership)


def actions_by_path(plan):
    return {e.path: e.action for e in plan.actions}


def read_tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_digest_known_vectors():
    assert digest(b"") == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    assert digest(b"abc") == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


# -- planning ----------------------------------------------------------------

def test_manifest_entry_of_first_entry_wins():
    manifest = Manifest(entries=(
        ManifestEntry("a.sql", Ownership.ALWAYS, "1" * 64),
        ManifestEntry("b.js", Ownership.ONCE, "2" * 64),
        ManifestEntry("a.sql", Ownership.ALWAYS, "3" * 64),
    ))
    assert manifest.entry_of("a.sql").sha256 == "1" * 64
    assert manifest.entry_of("b.js").sha256 == "2" * 64
    assert manifest.entry_of("absent.md") is None
    assert Manifest().entry_of("a.sql") is None


def test_plan_fresh_tree_creates_everything():
    arts = [A("a.sql", b"1"), A("b.js", b"2", Ownership.ONCE)]
    plan = plan_writes(arts, {}, None)
    assert actions_by_path(plan) == {"a.sql": WriteAction.CREATE, "b.js": WriteAction.CREATE}
    assert plan.conflicts() == []


def test_plan_once_existing_is_skipped_even_when_edited():
    art = A("b.js", b"regenerated", Ownership.ONCE)
    manifest = Manifest(entries=(ManifestEntry("b.js", Ownership.ONCE, digest(b"original")),))
    plan = plan_writes([art], {"b.js": b"user edit"}, manifest)
    assert actions_by_path(plan) == {"b.js": WriteAction.SKIP_ONCE}


def test_plan_always_unchanged_skipped():
    art = A("a.sql", b"same")
    manifest = Manifest(entries=(ManifestEntry("a.sql", Ownership.ALWAYS, digest(b"same")),))
    plan = plan_writes([art], {"a.sql": b"same"}, manifest)
    assert actions_by_path(plan) == {"a.sql": WriteAction.SKIP_UNCHANGED}


def test_plan_always_model_changed_overwrites():
    art = A("a.sql", b"new content")
    manifest = Manifest(entries=(ManifestEntry("a.sql", Ownership.ALWAYS, digest(b"old")),))
    plan = plan_writes([art], {"a.sql": b"old"}, manifest)
    assert actions_by_path(plan) == {"a.sql": WriteAction.OVERWRITE}


def test_plan_always_hand_edit_conflicts():
    art = A("a.sql", b"regenerated")
    manifest = Manifest(entries=(ManifestEntry("a.sql", Ownership.ALWAYS, digest(b"original")),))
    plan = plan_writes([art], {"a.sql": b"hand edited"}, manifest)
    assert actions_by_path(plan) == {"a.sql": WriteAction.CONFLICT}
    assert len(plan.conflicts()) == 1


def test_plan_always_untracked_file_conflicts():
    # exists on disk but no manifest record: provenance unknown
    plan = plan_writes([A("a.sql", b"x")], {"a.sql": b"x"}, None)
    assert actions_by_path(plan) == {"a.sql": WriteAction.CONFLICT}


def test_plan_force_overwrites_always_but_not_once():
    arts = [A("a.sql", b"new"), A("b.js", b"new", Ownership.ONCE)]
    manifest = Manifest(entries=(
        ManifestEntry("a.sql", Ownership.ALWAYS, digest(b"orig")),
        ManifestEntry("b.js", Ownership.ONCE, digest(b"orig")),
    ))
    existing = {"a.sql": b"edited", "b.js": b"edited"}
    plan = plan_writes(arts, existing, manifest, force=True)
    assert actions_by_path(plan) == {
        "a.sql": WriteAction.OVERWRITE,
        "b.js": WriteAction.SKIP_ONCE,
    }


def test_plan_records_the_new_manifest_sorted_with_no_entry_for_a_conflict():
    arts = [Artifact("z.sql", b"new", Ownership.ALWAYS, "1" * 64),
            Artifact("c.sql", b"same", Ownership.ALWAYS, "2" * 64),
            Artifact("b.js", b"scaffold", Ownership.ONCE, "3" * 64),
            Artifact("m.sql", b"regenerated", Ownership.ALWAYS, "4" * 64),
            Artifact("a.sql", b"mine too", Ownership.ALWAYS, "5" * 64)]
    manifest = Manifest(entries=(
        ManifestEntry("c.sql", Ownership.ALWAYS, digest(b"same")),
        ManifestEntry("m.sql", Ownership.ALWAYS, digest(b"old")),
        ManifestEntry("a.sql", Ownership.ALWAYS, digest(b"original")),
    ))
    existing = {"c.sql": b"same", "b.js": b"edited", "m.sql": b"old", "a.sql": b"mine",
                "z.sql": None}
    plan = plan_writes(arts, existing, manifest)
    assert actions_by_path(plan) == {
        "z.sql": WriteAction.CREATE, "c.sql": WriteAction.SKIP_UNCHANGED,
        "b.js": WriteAction.SKIP_ONCE, "m.sql": WriteAction.OVERWRITE,
        "a.sql": WriteAction.CONFLICT}
    assert plan.manifest == Manifest(entries=(
        ManifestEntry("b.js", Ownership.ONCE, digest(b"edited"), "3" * 64),
        ManifestEntry("c.sql", Ownership.ALWAYS, digest(b"same"), "2" * 64),
        ManifestEntry("m.sql", Ownership.ALWAYS, digest(b"regenerated"), "4" * 64),
        ManifestEntry("z.sql", Ownership.ALWAYS, digest(b"new"), "1" * 64),
    ))


def test_plan_is_pure():
    existing = {"a.sql": b"x"}
    plan_writes([A("a.sql", b"y")], existing, None, force=True)
    assert existing == {"a.sql": b"x"}


# -- applying ----------------------------------------------------------------

def test_apply_fresh_then_idempotent(tmp_path):
    arts = [A("sql/a.sql", b"always\n"), A("web/b.js", b"once\n", Ownership.ONCE)]
    plan = plan_writes(arts, {}, None)
    manifest = apply_plan(plan, arts, tmp_path)
    save_manifest(manifest, tmp_path)
    assert (tmp_path / "sql/a.sql").read_bytes() == b"always\n"
    assert (tmp_path / "web/b.js").read_bytes() == b"once\n"

    before = read_tree(tmp_path)
    existing = {"sql/a.sql": b"always\n", "web/b.js": b"once\n"}
    plan2 = plan_writes(arts, existing, load_manifest(tmp_path))
    assert set(actions_by_path(plan2).values()) == {WriteAction.SKIP_UNCHANGED,
                                                    WriteAction.SKIP_ONCE}
    manifest2 = apply_plan(plan2, arts, tmp_path)
    save_manifest(manifest2, tmp_path)
    assert read_tree(tmp_path) == before


def test_apply_preserves_edited_once_file(tmp_path):
    arts = [A("b.js", b"scaffold v1\n", Ownership.ONCE)]
    manifest = apply_plan(plan_writes(arts, {}, None), arts, tmp_path)
    save_manifest(manifest, tmp_path)

    (tmp_path / "b.js").write_bytes(b"my handwritten body\n")
    arts2 = [A("b.js", b"scaffold v2\n", Ownership.ONCE)]
    plan = plan_writes(arts2, {"b.js": b"my handwritten body\n"}, load_manifest(tmp_path))
    manifest2 = apply_plan(plan, arts2, tmp_path)
    assert (tmp_path / "b.js").read_bytes() == b"my handwritten body\n"
    # the manifest tracks what is actually on disk for ONCE files
    assert manifest2.entry_of("b.js").sha256 == digest(b"my handwritten body\n")


def test_apply_refuses_conflicted_plan(tmp_path):
    art = A("a.sql", b"new")
    plan = plan_writes([art], {"a.sql": b"untracked"}, None)
    with pytest.raises(ValueError, match="conflict"):
        apply_plan(plan, [art], tmp_path)


def test_apply_leaves_no_temp_files(tmp_path):
    arts = [A(f"dir{i}/f{i}.txt", str(i).encode()) for i in range(5)]
    apply_plan(plan_writes(arts, {}, None), arts, tmp_path)
    assert not [p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")]


def test_apply_gives_files_the_mode_write_bytes_gives(tmp_path):
    (tmp_path / "reference").write_bytes(b"x")
    arts = [A("sql/a.sql", b"1"), A("b.js", b"2", Ownership.ONCE)]
    save_manifest(apply_plan(plan_writes(arts, {}, None), arts, tmp_path), tmp_path)
    mode = (tmp_path / "reference").stat().st_mode
    for name in ("sql/a.sql", "b.js", MANIFEST_FILENAME):
        assert (tmp_path / name).stat().st_mode == mode


def test_apply_never_writes_over_a_file_holding_the_temp_name(tmp_path, monkeypatch):
    names = iter([b"\xaa" * 8, b"\xaa" * 8, b"\xbb" * 8])
    monkeypatch.setattr(os, "urandom", lambda n: next(names))
    (tmp_path / ".tmp-aaaaaaaaaaaaaaaa").write_bytes(b"user file")
    arts = [A("a.sql", b"generated")]
    apply_plan(plan_writes(arts, {}, None), arts, tmp_path)
    assert read_tree(tmp_path) == {".tmp-aaaaaaaaaaaaaaaa": b"user file", "a.sql": b"generated"}


@pytest.mark.parametrize("failing_call", [1, 3])
def test_failed_replace_leaves_no_temp_file(tmp_path, monkeypatch, failing_call):
    real_replace, calls = os.replace, []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == failing_call:
            raise OSError(errno.EIO, "I/O error")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    arts = [A(f"f{i}.txt", str(i).encode()) for i in range(4)]
    with pytest.raises(OSError) as raised:
        apply_plan(plan_writes(arts, {}, None), arts, tmp_path)
    assert raised.value.filename == str(tmp_path / f"f{failing_call - 1}.txt")
    assert raised.value.strerror == "I/O error"
    assert read_tree(tmp_path) == {f"f{i}.txt": str(i).encode() for i in range(failing_call - 1)}


def test_manifest_entries_sorted_by_path(tmp_path):
    arts = [A("z.txt", b"z"), A("a.txt", b"a"), A("m.txt", b"m")]
    manifest = apply_plan(plan_writes(arts, {}, None), arts, tmp_path)
    assert [e.path for e in manifest.entries] == ["a.txt", "m.txt", "z.txt"]


def test_apply_returns_the_manifest_the_plan_records(tmp_path):
    arts = [A("z.txt", b"z"), A("a.txt", b"a", Ownership.ONCE), A("m.txt", b"m")]
    first = plan_writes(arts, {}, None)
    assert apply_plan(first, arts, tmp_path) == first.manifest
    arts[2] = A("m.txt", b"m2")
    (tmp_path / "a.txt").write_bytes(b"edited")
    plan = plan_writes(arts, read_tree(tmp_path), first.manifest)
    assert apply_plan(plan, arts, tmp_path) == plan.manifest
    assert [e.path for e in plan.manifest.entries] == ["a.txt", "m.txt", "z.txt"]


@given(edit=st.binary(min_size=1, max_size=64), scaffold=st.binary(max_size=64))
def test_once_files_never_planned_for_overwrite(edit, scaffold):
    art = A("f.js", scaffold, Ownership.ONCE)
    manifest = Manifest(entries=(ManifestEntry("f.js", Ownership.ONCE, digest(scaffold)),))
    for force in (False, True):
        plan = plan_writes([art], {"f.js": edit}, manifest, force=force)
        assert actions_by_path(plan) == {"f.js": WriteAction.SKIP_ONCE}


# -- manifest serialization ---------------------------------------------------

def test_manifest_json_format():
    rule, entity, model = "r" * 32, "e" * 32, "m" * 32
    manifest = Manifest(entries=(
        ManifestEntry("a.sql", Ownership.ALWAYS, digest(b"x")),
        ManifestEntry("b.js", Ownership.ONCE, digest(b"y"), rule, entity),
        ManifestEntry("c.sql", Ownership.ALWAYS, digest(b"z"), rule, model,
                      ((entity, "true", 3, 9),)),
    ), summaries={entity: (812, ("en", "fr"), ("Other",)), "k" * 32: (5, (), ())},
        sources="s" * 64)
    text = manifest_to_json(manifest)
    assert text.endswith("\n") and "\r" not in text
    payload = json.loads(text)
    assert payload == {"version": 4, "rules": [rule], "entities": [entity, model],
                       "sources": "s" * 64,
                       "summaries": [[entity, 812, ["en", "fr"], ["Other"]], ["k" * 32, 5, [], []]],
                       "entries": [
        ["a.sql", "always", digest(b"x")],
        ["b.js", "once", digest(b"y"), 0, 0],
        ["c.sql", "always", digest(b"z"), 0, 1, [0, "true", 3, 9]],
    ]}
    assert manifest_from_json(text) == manifest


_texts = st.text(alphabet=st.characters(exclude_categories=("Cs",)), max_size=12)
_keys = st.one_of(st.text(alphabet="0123456789abcdef", min_size=32, max_size=32), _texts)
_fragments = st.lists(st.tuples(_keys, _texts, st.integers(0, 99), st.integers(0, 99)).map(
    lambda f: (*f[:2], min(f[2:]), max(f[2:]))), max_size=3).map(tuple)
# an entry with no rule has no entity and no fragments
_steps = st.text(alphabet=st.characters(exclude_categories=("Cs",), exclude_characters="/"),
                 min_size=1, max_size=5).filter(lambda step: step not in (".", ".."))
_paths = st.lists(_steps, min_size=1, max_size=3).map("/".join)  # normalized, relative
_entries = st.tuples(_paths, st.sampled_from(Ownership), _texts, _keys, _keys, _fragments).map(
    lambda e: e if e[3] else e[:3])
_summaries = st.dictionaries(_keys, st.tuples(
    st.integers(1, 10**6), st.lists(_texts, max_size=2).map(tuple),
    st.lists(_texts, max_size=2).map(tuple)), max_size=3)


@given(st.lists(_entries, max_size=6), _summaries, _texts)
def test_manifest_json_is_what_json_dumps_writes(entries, summaries, sources):
    """Each entry and summary is on a line of its own, as json.dumps writes
    it; each rule's and entity's key is listed once; and the manifest reads
    back as written."""
    manifest = Manifest(entries=tuple(ManifestEntry(*entry) for entry in entries),
                        summaries=summaries, sources=sources)
    text = manifest_to_json(manifest)
    payload = json.loads(text)
    assert payload["version"] == 4 and payload["sources"] == sources
    lines = {line.strip().rstrip(",") for line in text.split("\n")}
    for (key, (length, languages, targets)), row in zip(summaries.items(), payload["summaries"],
                                                        strict=True):
        assert row == [key, length, list(languages), list(targets)]
        assert json.dumps(row, ensure_ascii=False) in lines
    rules, entities = payload["rules"], payload["entities"]
    assert len(set(rules)) == len(rules) and len(set(entities)) == len(entities)
    for entry, row in zip(manifest.entries, payload["entries"], strict=True):
        assert json.dumps(row, ensure_ascii=False) in lines
        assert row[:3] == [entry.path, entry.ownership.value, entry.sha256]
        assert ((rules[row[3]], entities[row[4]]) if len(row) > 3 else ("", "")) \
            == (entry.rule, entry.entity)
        fragments = row[5] if len(row) > 5 else []
        assert [(entities[fragments[i]], *fragments[i + 1:i + 4])
                for i in range(0, len(fragments), 4)] == list(entry.fragments)
    assert manifest_from_json(text) == manifest


def test_version_1_manifest_loads_with_no_inputs():
    text = ('{"version": 1, "entries": [{"path": "a", "ownership": "once", "sha256": "00", '
            '"inputs": "ignored"}]}')
    manifest = manifest_from_json(text)
    assert manifest == Manifest((ManifestEntry("a", Ownership.ONCE, "00", ""),))
    # tagged with no sfgen's sources, it never equals a plan's manifest, so it
    # is written again, at version 4
    assert manifest.sources == ""


def test_unknown_ownership_keeps_its_message():
    text = ('{"version": 2, "entries": [{"path": "a", "ownership": "sometimes", '
            '"sha256": "00", "inputs": ""}]}')
    with pytest.raises(ManifestError,
                       match="^malformed manifest: 'sometimes' is not a valid Ownership$"):
        manifest_from_json(text)


def test_read_file(tmp_path):
    assert read_file(str(tmp_path / "absent")) is None
    assert read_file(str(tmp_path / "absent" / "below")) is None
    for size in (0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 << 16):
        data = os.urandom(size)
        (tmp_path / "file").write_bytes(data)
        assert read_file(str(tmp_path / "file")) == data
    with pytest.raises(IsADirectoryError) as raised:
        read_file(str(tmp_path))
    assert raised.value.filename == str(tmp_path)


def test_walk_files_sorts_as_paths_sort(tmp_path):
    for name in ("b", "a.txt", "a/z", "a/b/c", "a-b", "A"):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(name)
    (tmp_path / "empty").mkdir()
    os.symlink(tmp_path / "a", tmp_path / "linked-dir")
    os.symlink(tmp_path / "b", tmp_path / "linked-file")
    os.symlink(tmp_path / "absent", tmp_path / "dangling")
    expected = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert walk_files(tmp_path) == expected
    assert [p.relative_to(tmp_path).as_posix() for p in expected] == [
        "A", "a/b/c", "a/z", "a-b", "a.txt", "b", "linked-file"]


def test_walk_files_raises_for_a_directory_it_cannot_list(tmp_path, monkeypatch):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "f").write_text("f")
    real = os.scandir

    def scandir(path):
        if str(path).endswith("sub"):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return real(path)

    monkeypatch.setattr(os, "scandir", scandir)
    with pytest.raises(PermissionError) as raised:
        walk_files(tmp_path)
    assert raised.value.filename == str(tmp_path / "sub")


def test_manifest_file_roundtrip(tmp_path):
    manifest = Manifest(entries=(ManifestEntry("a", Ownership.ALWAYS, digest(b"a")),))
    save_manifest(manifest, tmp_path)
    assert (tmp_path / MANIFEST_FILENAME).exists()
    assert load_manifest(tmp_path) == manifest


def test_load_missing_manifest_returns_none(tmp_path):
    assert load_manifest(tmp_path) is None


@pytest.mark.parametrize("text", ["{}", "[]", "not json",
                                  '{"version": 1, "entries": [{"path": "a"}]}',
                                  '{"version": 1, "entries": [{"path": "a", '
                                  '"ownership": "sometimes", "sha256": "00"}]}',
                                  '{"version": 1, "entries": [{"path": ["a"], '
                                  '"ownership": "always", "sha256": "00"}]}',
                                  '{"version": 1, "entries": [{"path": "a", '
                                  '"ownership": ["always"], "sha256": "00"}]}',
                                  '{"version": 1, "entries": [{"path": "a", '
                                  '"ownership": "always", "sha256": 0}]}',
                                  '{"version": 1, "entries": [["a"]]}',
                                  '{"version": 1, "entries": "a"}',
                                  '{"version": Infinity, "entries": []}',
                                  pytest.param("[" * 100_000, id="deeply-nested"),
                                  '{"version": 99, "entries": []}',
                                  '{"version": "7", "entries": []}',
                                  '{"version": true, "entries": []}',
                                  '{"version": 1.9, "entries": []}',
                                  '{"version": 3, "entries": []}',
                                  '{"version": 2, "entries": [{"path": "a", '
                                  '"ownership": "always", "sha256": "00"}]}',
                                  '{"version": 2, "entries": [{"path": "a", '
                                  '"ownership": "always", "sha256": "00", "inputs": 0}]}',
                                  *(f'{{"version": 3, "rules": ["r"], "entities": ["e"], '
                                    f'"entries": [{entry}]}}' for entry in (
                                        '["a", "always"]', '["a", "always", "00", 0]',
                                        '{"path": "a", "ownership": "always", "sha256": "00"}',
                                        '["a", "sometimes", "00"]', '["a", "always", 0]',
                                        '["a", "always", "00", 1, 0]', '["a", "always", "00", 0, -1]',
                                        '["a", "always", "00", true, 0]',
                                        '["a", "always", "00", 0, 0, [0, "x", 5, 2]]',
                                        '["a", "always", "00", 0, 0, [0, "x", 1]]',
                                        '["a", "always", "00", 0, 0, [0, 1, 2, 3]]',
                                        '["a", "always", "00", 0, 0, [1, "x", 1, 2]]',
                                        '["a", "always", "00", 0, 0, {"x": 1}]',
                                        '["../a", "always", "00"]', '["/a", "always", "00"]',
                                        '["a/./b", "always", "00"]', '["", "always", "00"]')),
                                  '{"version": 3, "rules": [1], "entities": [], "entries": []}',
                                  '{"version": 4, "rules": [], "entities": [], "entries": []}',
                                  *(f'{{"version": 4, "rules": [], "entities": [], "entries": [], '
                                    f'"sources": {sources}, "summaries": {summaries}}}'
                                    for sources, summaries in (
                                        ('0', '[]'), ('""', '{}'), ('""', '[["k", 0, [], []]]'),
                                        ('""', '[["k", 1, []]]'), ('""', '[["k", 1, "en", []]]'),
                                        ('""', '[["k", 1, [], [1]]]'), ('""', '[[1, 1, [], []]]'),
                                        ('""', '[["k", true, [], []]]'))),
                                  '{"version": 3, "rules": [], "entities": "e", "entries": []}',
                                  '{"version": 3, "rules": [], "entities": [], "entries": {}}'])
def test_malformed_manifest_rejected(text):
    with pytest.raises(ManifestError):
        manifest_from_json(text)


def test_unreadable_manifest_rejected(tmp_path):
    (tmp_path / MANIFEST_FILENAME).write_bytes(b'{"version": 1, "entries": []}\xff\n')
    with pytest.raises(ManifestError, match="malformed manifest"):
        load_manifest(tmp_path)
    (tmp_path / MANIFEST_FILENAME).unlink()
    (tmp_path / MANIFEST_FILENAME).mkdir()
    with pytest.raises(ManifestError, match="cannot read"):
        load_manifest(tmp_path)
