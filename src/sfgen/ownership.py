"""Regeneration safety: file ownership classification, the on-disk manifest of
generation digests, and conflict-aware write planning.

ALWAYS files are regenerated on every run and must not be hand-edited; ONCE
files are scaffolded once and then belong to the developer. The manifest
records the digest each file had when the generator last wrote it, which is
what lets a later run tell "unchanged", "needs regeneration" and "hand-edited"
apart, and the keys of the inputs it was generated from, which let a later run
with the same inputs take the file, or some of its iterations, as they are
instead of rendering them. It also records a summary of each entity of a model
that loaded clean, which lets a later run take an unchanged entity as a stub
instead of binding it (loader.Summary).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, compress, count
from operator import attrgetter, eq, is_not, itemgetter, le
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence

from .model import _builder

if TYPE_CHECKING:
    from .loader import Summary
    from .packs import Artifact

MANIFEST_FILENAME = ".sfgen-manifest.json"
# 3 names each entry's rule and entity, and lists a spliced file's iterations;
# a version-1 or version-2 manifest still loads, with no inputs, so reuses
# nothing. 4 adds the entity summaries, tagged with the sfgen sources that
# wrote them; a version-3 manifest still loads, with none, so binds everything.
MANIFEST_VERSION = 4

# (entity, loop, start, end): one iteration of a fragment loop, at
# file[start:end], keyed by its entity's key and the text of the loop
# attributes it reads
Fragment = tuple[str, str, int, int]


class Ownership(Enum):
    ALWAYS = "always"
    ONCE = "once"


class WriteAction(Enum):
    CREATE = "CREATE"
    OVERWRITE = "OVERWRITE"
    SKIP_ONCE = "SKIP_ONCE"
    SKIP_UNCHANGED = "SKIP_UNCHANGED"
    CONFLICT = "CONFLICT"


class ManifestError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class ManifestEntry:
    path: str
    ownership: Ownership
    sha256: str
    # the keys of what the file was generated from: its rule's inputs, and the
    # source of its entity or, for a per-model file, of the whole model; "" if unknown
    rule: str = ""
    entity: str = ""
    fragments: tuple[Fragment, ...] = ()  # the iterations a later run may keep


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ManifestEntry, ...] = ()
    # entity key -> its summary, from a load with no diagnostics by the sfgen
    # whose sources digest (packs._sources_digest, in hex) is `sources`
    summaries: Mapping[str, "Summary"] = field(default_factory=dict)
    sources: str = ""
    # the file it was read from or planned against, as (text, entries, rules,
    # entities), whose lines manifest_to_json copies; () for none
    read: tuple = field(default=(), compare=False, repr=False)

    @cached_property
    def entry_of(self) -> Callable[[str], Optional[ManifestEntry]]:
        """entry_of(path): the entry for `path`, or None; the first, where the
        manifest lists a path twice. One dict lookup, with no call around it."""
        return {entry.path: entry for entry in reversed(self.entries)}.get


@dataclass(frozen=True, slots=True)
class PlanEntry:
    path: str
    action: WriteAction
    reason: str = ""


# each decision a plan makes for a path, by its code: its action and reason;
# the conflicts last
_DECISIONS = ((WriteAction.CREATE, "new file"),
              (WriteAction.OVERWRITE, "regenerated content differs"),
              (WriteAction.OVERWRITE, "forced"),
              (WriteAction.SKIP_ONCE, "scaffolded once; owned by the developer"),
              (WriteAction.SKIP_UNCHANGED, "content unchanged"),
              (WriteAction.CONFLICT, "file was modified after the last generation"),
              (WriteAction.CONFLICT, "file is not covered by the manifest"))
_CREATE, _DIFFERS, _FORCED, _ONCE, _UNCHANGED, _MODIFIED, _UNCOVERED = range(len(_DECISIONS))


@dataclass(frozen=True)
class WritePlan:
    paths: tuple[str, ...]
    decisions: bytes  # each path's decision, by its code
    manifest: Manifest  # once the plan is applied; it has no entry for a CONFLICT

    @property
    def actions(self) -> list[PlanEntry]:
        """Each path, in order, with its action and the reason for it."""
        make = _builder(PlanEntry)
        return [make(path=path, action=action, reason=reason) for path, (action, reason)
                in zip(self.paths, map(_DECISIONS.__getitem__, self.decisions))]

    def conflicts(self) -> list[PlanEntry]:
        if max(self.decisions, default=_CREATE) < _MODIFIED:
            return []
        return [entry for entry in self.actions if entry.action is WriteAction.CONFLICT]

    def counts(self) -> Counter[str]:
        """The number of paths of each action, by the action's name."""
        counts: Counter[str] = Counter()
        for code, number in Counter(self.decisions).items():
            counts[_DECISIONS[code][0].value] += number
        return counts


def digest(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


def plan_writes(
    artifacts: Sequence["Artifact"],
    existing: Mapping[str, Optional[bytes]],
    manifest: Optional[Manifest],
    force: bool = False,
    summaries: Optional[Mapping[str, "Summary"]] = None,
    sources: str = "",
) -> WritePlan:
    """Decide the per-file action for one regeneration, and the manifest that
    applying it leaves; pure, writes nothing. `existing` maps a path to its
    bytes on disk; a path that maps to None, or is missing, has no file. The
    new manifest records `summaries`, tagged with `sources`.

    ONCE files that already exist are always skipped. ALWAYS files are only
    overwritten when the on-disk content is what the generator last wrote
    (digest matches the manifest); anything else is a CONFLICT unless forced.
    The new manifest records, for each path, the digest of the content written
    or of the bytes left on disk, and the artifact's inputs. Where all of these
    are as recorded, it keeps the recorded entry. Every file is hashed at most
    once. An artifact taken from its file under its recorded entry
    (Artifact.reused) costs that hash and one comparison.
    """
    decisions = bytearray()
    made, dropped = [], set()  # new entries; the paths of recorded entries not kept
    unrecorded = 0  # artifacts the manifest has no entry for
    entry_of = manifest.entry_of if manifest is not None else {}.get
    make = _builder(ManifestEntry)
    always = Ownership.ALWAYS  # read once: an enum member's lookup costs 0.1 µs
    for artifact in artifacts:
        path, content, ownership = artifact.path, artifact.content, artifact.ownership
        on_disk, recorded = existing.get(path), entry_of(path)
        if artifact.reused is recorded is not None and on_disk is content \
                and recorded.ownership is ownership and digest(content) == recorded.sha256:
            decisions.append(_UNCHANGED if ownership is always else _ONCE)
            continue
        if on_disk is None:
            decision, sha256 = _CREATE, digest(content)
        elif ownership is Ownership.ONCE:
            decision, sha256 = _ONCE, digest(on_disk)
        elif recorded is not None and digest(on_disk) == recorded.sha256:
            decision, sha256 = ((_UNCHANGED, recorded.sha256) if on_disk == content
                                else (_DIFFERS, digest(content)))
        elif force:
            decision, sha256 = _FORCED, digest(content)
        else:
            decision, sha256 = _MODIFIED if recorded is not None else _UNCOVERED, None
        decisions.append(decision)
        unrecorded += recorded is None
        entry = sha256 and make(path=path, ownership=ownership, sha256=sha256, rule=artifact.rule,
                                entity=artifact.entity, fragments=artifact.fragments)
        if entry != recorded:
            if recorded is not None:
                dropped.add(path)
            if entry:
                made.append(entry)
    paths = tuple(map(attrgetter("path"), artifacts))
    recorded_entries = manifest.entries if manifest is not None else ()
    # with distinct artifact paths, as generate_all gives, the counts agree
    # where every recorded entry is some artifact's, and only there
    if len(paths) - unrecorded != len(recorded_entries):
        recorded_entries = [*filter(None, map(entry_of, paths))]
    entries = [entry for entry in recorded_entries if entry.path not in dropped] + made
    entries.sort(key=attrgetter("path"))  # in the order recorded, but `made`
    return WritePlan(paths, bytes(decisions), Manifest(
        tuple(entries), summaries or {}, sources, manifest.read if manifest is not None else ()))


def _atomic_write(target: Path, content: bytes) -> None:
    """Write `content` to a temp file beside `target`, then rename it over `target`.

    The temp file gets a name no file held when it was created (O_EXCL), so a
    user's file is never overwritten, and mode 0o666 under the umask, as open() gives."""
    tmp = None  # the temp file, once created
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        while tmp is None:
            name = target.with_name(f".tmp-{os.urandom(8).hex()}")
            with suppress(FileExistsError):
                fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                tmp = name
        with open(fd, "wb") as file:
            file.write(content)
        os.replace(tmp, target)
    except OSError as exc:  # named by the target, whatever file failed
        if tmp is not None:
            tmp.unlink(missing_ok=True)
        raise OSError(exc.errno, exc.strerror or str(exc), str(target)) from None


def apply_plan(plan: WritePlan, artifacts: Sequence["Artifact"], out_root: Path) -> Manifest:
    """Write the CREATE and OVERWRITE files of a conflict-free plan under
    `out_root`, and return the plan's manifest.

    `plan` is `plan_writes(artifacts, ...)`, one decision per artifact in order.
    Writes are atomic per file (temp file + rename). A failed write raises
    OSError with the file it was writing as its filename.
    """
    if plan.conflicts():
        raise ValueError("plan contains conflicts; resolve them or use force")
    for decision, artifact in zip(plan.decisions, artifacts, strict=True):
        if decision in (_CREATE, _DIFFERS, _FORCED):
            _atomic_write(out_root / artifact.path, artifact.content)
    return plan.manifest


_OWNERSHIPS = {member.value: member for member in Ownership}
_quote = json.encoder.encode_basestring
_QUOTED = {member: _quote(member.value) for member in Ownership}
_ENTRIES, _END = '\n  "entries": [\n    ', "\n  ]\n}\n"  # around the entries written


def manifest_to_json(manifest: Manifest) -> str:
    """The manifest as JSON, always at MANIFEST_VERSION: the keys of its rules,
    then of its entities, each once, then the sources tag and one summary per
    line, [key, length, languages, FK targets], then one entry per line. An
    entry is [path, ownership, sha256], followed where it has inputs by the
    indices of their rule and entity in those lists, and then by its
    fragments, flat: entity, loop attributes, start and end of each iteration
    in turn. A run of entries that manifest.read holds is copied (_runs)."""
    rules, entities = _tables(manifest.entries)
    lines = [piece if type(piece) is str else _entry(manifest.entries[piece], rules, entities)
             for piece in _runs(manifest, rules, entities)]
    summaries = [f"[{_quote(key)}, {length}, [{', '.join(map(_quote, languages))}], "
                 f"[{', '.join(map(_quote, targets))}]]"
                 for key, (length, languages, targets) in manifest.summaries.items()]
    return (f'{{\n  "version": {MANIFEST_VERSION},\n'
            f'  "rules": {_lines(map(_quote, rules))},\n'
            f'  "entities": {_lines(map(_quote, entities))},\n'
            f'  "sources": {_quote(manifest.sources)},\n'
            f'  "summaries": {_lines(summaries)},\n'
            f'  "entries": {_lines(lines)}\n}}\n')


def _lines(items: Iterable[str]) -> str:
    """A JSON array of these values, one per line."""
    body = ",\n    ".join(items)
    return f"[\n    {body}\n  ]" if body else "[]"


def _tables(entries: Sequence[ManifestEntry]) -> tuple[dict[str, int], dict[str, int]]:
    """The index of each rule key, and of each entity key, of these entries, in
    the order they are first written: an entry's fragments before its entity."""
    keyed = [*compress(entries, map(attrgetter("rule"), entries))]
    entities: list[str] = []
    start = 0
    for at in compress(count(), map(attrgetter("fragments"), keyed)):
        entities += map(attrgetter("entity"), keyed[start:at])
        entities += map(itemgetter(0), keyed[at].fragments)
        start = at
    entities += map(attrgetter("entity"), keyed[start:])
    return ({key: i for i, key in enumerate(dict.fromkeys(map(attrgetter("rule"), keyed)))},
            {key: i for i, key in enumerate(dict.fromkeys(entities))})


def _entry(e: ManifestEntry, rules: Mapping[str, int], entities: Mapping[str, int]) -> str:
    """The line of one entry, given the index of each key."""
    head = f"{_quote(e.path)}, {_QUOTED[e.ownership]}, {_quote(e.sha256)}"
    if not e.rule:
        return f"[{head}]"
    line = f"[{head}, {rules[e.rule]}, {entities[e.entity]}"
    if e.fragments:
        line += f", {json.dumps(_flat(e.fragments, entities), ensure_ascii=False)}"
    return line + "]"


def _runs(manifest: Manifest, rules: Mapping[str, int], entities: Mapping[str, int]) -> list:
    """The index of each entry, in order, but each run of entries that are the
    ones manifest.read holds, in the same places, as the text of their lines.
    That needs every key read to keep its index in `rules` and `entities`,
    unique paths, and the text to end with the entries array, with no ':' or
    '}' in it, so that it is the array read. A line starts after '],', a
    newline (never in a string) and 4 spaces, with '[' and its quoted path,
    which no fragment list starts with."""
    entries, everything = manifest.entries, list(range(len(manifest.entries)))
    text, old, *tables = manifest.read or ("", (), (), ())
    at, end = text.find(_ENTRIES) + len(_ENTRIES), len(text) - len(_END)
    if not (len(old) == len(entries) and text.endswith(_END) and at >= len(_ENTRIES)
            and text.find(":", at, end) < 0 and text.find("}", at, end) < 0
            and len({*map(attrgetter("path"), old)}) == len(old)
            and all(all(map(eq, map(now.get, keys, count()), count()))
                    for now, keys in zip((rules, entities), tables))):
        return everything
    pieces: list = []
    start = 0
    for i in [*compress(count(), map(is_not, entries, old)), len(entries)]:
        if start < i:  # entries start to i - 1 are the ones read
            if start:
                at = text.find(f"],\n    [{_quote(old[start].path)}, ", at, end) + 7
            stop = end if i == len(entries) else \
                text.find(f"],\n    [{_quote(old[i].path)}, ", at, end) + 1
            if at < 7 or stop < 1:
                return everything
            pieces.append(text[at:stop])
            at = stop
        pieces.append(i)
        start = i + 1
    return pieces[:-1]  # but len(entries)


def _strings(value: object, what: str) -> list[str]:
    if type(value) is not list or any(type(item) is not str for item in value):
        raise TypeError(f"{what} must be a list of strings")
    return value


def _fragments(entities: list[str], flat: object) -> tuple[Fragment, ...]:
    """Fragments from their flat form: entity, loop attributes, start, end."""
    if type(flat) is not list or len(flat) % 4:
        raise TypeError("fragments must be a list of entity, loop, start and end")
    indices, loops, starts, ends = flat[0::4], flat[1::4], flat[2::4], flat[3::4]
    if flat and not ({*map(type, indices), *map(type, starts), *map(type, ends)} == {int}
                     and set(map(type, loops)) == {str}
                     and 0 <= min(indices) and max(indices) < len(entities)
                     and 0 <= min(starts) and all(map(le, starts, ends))):
        raise ValueError("a fragment is not [entity, loop, start, end]")
    return tuple(zip([entities[i] for i in indices], loops, starts, ends))


def _flat(fragments: tuple[Fragment, ...], entities: Mapping[str, int]) -> list:
    """Fragments in their flat form, with each entity key as its index."""
    keys, loops, starts, ends = zip(*fragments)
    flat: list = [None] * (4 * len(keys))
    flat[0::4] = [entities[key] for key in keys]
    flat[1::4], flat[2::4], flat[3::4] = loops, starts, ends
    return flat


def _entries(rows: object, rules: list[str], entities: list[str]) -> tuple[ManifestEntry, ...]:
    """The entries of their rows, [path, ownership, sha256], followed where it
    has inputs by the indices of its rule and entity, then by its fragments."""
    if type(rows) is not list:
        raise TypeError("entries must be a list")
    make, entries = _builder(ManifestEntry), []
    for number, row in enumerate(rows, 1):
        size = len(row) if type(row) is list else 0
        if size == 5:
            path, owner, sha, rule, entity = row
            fragments = ()
        elif size == 6:
            path, owner, sha, rule, entity, fragments = row
            fragments = _fragments(entities, fragments)
        elif size == 3:
            path, owner, sha = row
        else:
            raise ValueError(f"entry #{number} is not [path, ownership, sha256, ...]")
        if type(path) is not str or type(owner) is not str or type(sha) is not str:
            raise TypeError("entry path, ownership and sha256 must be strings")
        ownership = _OWNERSHIPS.get(owner)
        if ownership is None:
            raise ValueError(f"{owner!r} is not a valid Ownership")
        if size == 3:
            entries.append(make(path=path, ownership=ownership, sha256=sha))
        elif type(rule) is int is type(entity) and rule >= 0 and entity >= 0:
            # an IndexError where the table has no such key
            entries.append(make(path=path, ownership=ownership, sha256=sha, rule=rules[rule],
                                entity=entities[entity], fragments=fragments))
        else:
            raise ValueError(f"entry #{number} names no rule or entity")
    # each path comes from outside the program and must name a file under the
    # output root; checked once over every path, joined
    if entries and _unsafe("/".join(map(attrgetter("path"), entries))):
        bad = next(entry.path for entry in entries if _unsafe(entry.path))
        raise ValueError(f"entry path {bad!r} is not a normalized relative path")
    return tuple(entries)


def _summaries(rows: object) -> dict[str, "Summary"]:
    """The summaries of a version-4 manifest, by key; each check takes every row."""
    if type(rows) is not list or not {*map(len, rows)} <= {4}:
        raise ValueError("a summary is not [key, length, languages, targets]")
    keys, lengths, languages, targets = zip(*rows) if rows else ((),) * 4
    if {*map(type, keys)} - {str} or {*map(type, lengths)} - {int} or min(lengths, default=1) < 1:
        raise ValueError("a summary is not [key, length, languages, targets]")
    for column in (languages, targets):
        if {*map(type, column)} - {list} or {*map(type, chain.from_iterable(column))} - {str}:
            raise TypeError("languages and targets must be lists of strings")
    return dict(zip(keys, zip(lengths, map(tuple, languages), map(tuple, targets))))


def _unsafe(path: str) -> bool:
    """Whether `path` is empty or absolute, or has an empty, '.' or '..' step."""
    path = f"/{path}/"
    return "//" in path or "/./" in path or "/../" in path


def manifest_from_json(text: str) -> Manifest:
    try:
        payload = json.loads(text)
        version = payload["version"]
        if type(version) is not int or version not in (1, 2, 3, MANIFEST_VERSION):
            raise ValueError(f"unsupported manifest version {version!r}")
        rows, rules, entities = payload["entries"], [], []
        if version < 3:  # rows are objects, whose inputs were keyed otherwise: none is reused
            if version == 2 and any(type(row["inputs"]) is not str for row in rows):
                raise TypeError("entry inputs must be strings")
            rows = [[row["path"], row["ownership"], row["sha256"]] for row in rows]
        else:
            rules = _strings(payload["rules"], "rules")
            entities = _strings(payload["entities"], "entities")
        entries = _entries(rows, rules, entities)
        if version < MANIFEST_VERSION:
            return Manifest(entries)
        sources = payload["sources"]
        if type(sources) is not str:
            raise TypeError("sources must be a string")
        return Manifest(entries, _summaries(payload["summaries"]), sources,
                        (text, entries, rules, entities))
    except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
        raise ManifestError(f"malformed manifest: {exc}") from exc


_READ_SIZE = 1 << 16


def read_file(path: str) -> Optional[bytes]:
    """The bytes of the file at `path`, or None if there is none. Any other
    failure raises OSError with `path` as its filename: a file where a
    directory of the path goes, NotADirectoryError.

    One read takes a file of under _READ_SIZE bytes whole: a read that returns
    fewer bytes than asked is taken as the end of the file, as it is for a
    regular file. With no `stat` and no file object, reading 7,654 files of
    about 750 bytes takes a quarter of the time `Path.read_bytes` takes.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return None
    try:
        data = os.read(fd, _READ_SIZE)
        if len(data) == _READ_SIZE:
            chunks = [data]
            while chunk := os.read(fd, _READ_SIZE):
                chunks.append(chunk)
            data = b"".join(chunks)
        return data
    except OSError as exc:  # reading a directory fails here, with no filename
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)


def walk_files(root: Path) -> list[Path]:
    """Every file under `root`, sorted as paths sort; a symlink counts as the
    file it points to, and no symlinked directory is entered. A directory that
    cannot be read raises OSError, where `Path.rglob` would skip it."""
    with os.scandir(root) as listing:
        entries = sorted(listing, key=lambda entry: entry.name)
    files: list[Path] = []
    for entry in entries:
        if entry.is_dir(follow_symlinks=False):
            files += walk_files(Path(entry.path))
        elif entry.is_file():
            files.append(Path(entry.path))
    return files


def save_manifest(manifest: Manifest, out_root: Path) -> None:
    _atomic_write(out_root / MANIFEST_FILENAME, manifest_to_json(manifest).encode("utf-8"))


def load_manifest(out_root: Path) -> Optional[Manifest]:
    """The manifest under `out_root`, or None if there is none; any other read,
    decode or shape failure is a ManifestError."""
    path = out_root / MANIFEST_FILENAME
    try:
        data = read_file(str(path))
        if data is None:
            return None
        text = data.decode("utf-8")
    except OSError as exc:
        raise ManifestError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ManifestError(f"malformed manifest: {exc}") from exc
    return manifest_from_json(text)
