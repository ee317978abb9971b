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
from collections import defaultdict
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import count
from operator import attrgetter, le
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


@dataclass(frozen=True)
class WritePlan:
    actions: tuple[PlanEntry, ...]
    manifest: Manifest  # once the plan is applied; it has no entry for a CONFLICT

    def conflicts(self) -> list[PlanEntry]:
        return [a for a in self.actions if a.action is WriteAction.CONFLICT]


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
    once.
    """
    actions: list[PlanEntry] = []
    entries: list[ManifestEntry] = []
    entry_of = manifest.entry_of if manifest is not None else {}.get
    plan_entry, manifest_entry = _builder(PlanEntry), _builder(ManifestEntry)
    for artifact in artifacts:
        path, content, ownership = artifact.path, artifact.content, artifact.ownership
        on_disk = existing.get(path)
        recorded = entry_of(path)
        if on_disk is None:
            action, reason, sha256 = WriteAction.CREATE, "new file", digest(content)
        elif ownership is Ownership.ONCE:
            action, reason = WriteAction.SKIP_ONCE, "scaffolded once; owned by the developer"
            sha256 = digest(on_disk)
        elif recorded is not None and digest(on_disk) == recorded.sha256:
            if on_disk == content:
                action, reason, sha256 = (WriteAction.SKIP_UNCHANGED, "content unchanged",
                                          recorded.sha256)
            else:
                action, reason = WriteAction.OVERWRITE, "regenerated content differs"
                sha256 = digest(content)
        elif force:
            action, reason, sha256 = WriteAction.OVERWRITE, "forced", digest(content)
        else:
            action, sha256 = WriteAction.CONFLICT, None
            reason = ("file was modified after the last generation"
                      if recorded is not None else "file is not covered by the manifest")
        actions.append(plan_entry(path=path, action=action, reason=reason))
        if sha256 is None:
            continue
        if recorded is None or recorded.sha256 != sha256 or recorded.rule != artifact.rule \
                or recorded.entity != artifact.entity or recorded.ownership is not ownership \
                or recorded.fragments != artifact.fragments:
            recorded = manifest_entry(path=path, ownership=ownership, sha256=sha256,
                                      rule=artifact.rule, entity=artifact.entity,
                                      fragments=artifact.fragments)
        entries.append(recorded)
    entries.sort(key=attrgetter("path"))
    return WritePlan(tuple(actions), Manifest(tuple(entries), summaries=summaries or {},
                                              sources=sources))


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

    `plan` is `plan_writes(artifacts, ...)`, one entry per artifact in order.
    Writes are atomic per file (temp file + rename). A failed write raises
    OSError with the file it was writing as its filename.
    """
    if plan.conflicts():
        raise ValueError("plan contains conflicts; resolve them or use force")
    for entry, artifact in zip(plan.actions, artifacts, strict=True):
        if entry.action in (WriteAction.CREATE, WriteAction.OVERWRITE):
            _atomic_write(out_root / entry.path, artifact.content)
    return plan.manifest


_OWNERSHIPS = {member.value: member for member in Ownership}
_QUOTED = {member: json.encoder.encode_basestring(member.value) for member in Ownership}


def manifest_to_json(manifest: Manifest) -> str:
    """The manifest as JSON, always at MANIFEST_VERSION: the keys of its rules,
    then of its entities, each once, then the sources tag and one summary per
    line, [key, length, languages, FK targets], then one entry per line. An
    entry is [path, ownership, sha256], followed where it has inputs by the
    indices of their rule and entity in those lists, and then by its
    fragments, flat: entity, loop attributes, start and end of each iteration
    in turn."""
    quote = json.encoder.encode_basestring
    # key -> its index, given in the order keys are first seen
    rules: defaultdict[str, int] = defaultdict(count().__next__)
    entities: defaultdict[str, int] = defaultdict(count().__next__)
    lines = []
    for e in manifest.entries:
        head = f"{quote(e.path)}, {_QUOTED[e.ownership]}, {quote(e.sha256)}"
        if not e.rule:
            lines.append(f"[{head}]")
        elif not e.fragments:
            lines.append(f"[{head}, {rules[e.rule]}, {entities[e.entity]}]")
        else:
            fragments = json.dumps(_flat(e.fragments, entities), ensure_ascii=False)
            lines.append(f"[{head}, {rules[e.rule]}, {entities[e.entity]}, {fragments}]")
    summaries = [f"[{quote(key)}, {length}, [{', '.join(map(quote, languages))}], "
                 f"[{', '.join(map(quote, targets))}]]"
                 for key, (length, languages, targets) in manifest.summaries.items()]
    return (f'{{\n  "version": {MANIFEST_VERSION},\n'
            f'  "rules": {_lines(map(quote, rules))},\n'
            f'  "entities": {_lines(map(quote, entities))},\n'
            f'  "sources": {quote(manifest.sources)},\n'
            f'  "summaries": {_lines(summaries)},\n'
            f'  "entries": {_lines(lines)}\n}}\n')


def _lines(items: Iterable[str]) -> str:
    """A JSON array of these values, one per line."""
    body = ",\n    ".join(items)
    return f"[\n    {body}\n  ]" if body else "[]"


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


def _flat(fragments: tuple[Fragment, ...], entities: defaultdict[str, int]) -> list:
    """Fragments in their flat form, with each entity key as its index."""
    keys, loops, starts, ends = zip(*fragments)
    flat: list = [None] * (4 * len(keys))
    flat[0::4] = [entities[key] for key in keys]
    flat[1::4], flat[2::4], flat[3::4] = loops, starts, ends
    return flat


def _entries(rows: object, rules: list[str], entities: list[str]) -> list[ManifestEntry]:
    """The entries of a version-3 manifest."""
    if type(rows) is not list:
        raise TypeError("entries must be a list")
    make, entries = _builder(ManifestEntry), []
    for number, row in enumerate(rows, 1):
        if type(row) is not list or len(row) not in (3, 5, 6):
            raise ValueError(f"entry #{number} is not [path, ownership, sha256, ...]")
        path, owner, sha = row[0], row[1], row[2]
        if type(path) is not str or type(owner) is not str or type(sha) is not str:
            raise TypeError("entry path, ownership and sha256 must be strings")
        ownership = _OWNERSHIPS.get(owner)
        if ownership is None:
            raise ValueError(f"{owner!r} is not a valid Ownership")
        rule = entity = ""
        fragments = ()
        if len(row) > 3:
            if type(row[3]) is not int or type(row[4]) is not int or row[3] < 0 or row[4] < 0:
                raise ValueError(f"entry #{number} names no rule or entity")
            rule, entity = rules[row[3]], entities[row[4]]  # IndexError where there is none
            if len(row) > 5:
                fragments = _fragments(entities, row[5])
        entries.append(make(path=path, ownership=ownership, sha256=sha, rule=rule,
                            entity=entity, fragments=fragments))
    # each path comes from outside the program and must name a file under the
    # output root; checked once over every path, joined
    if entries and _unsafe("/".join(entry.path for entry in entries)):
        bad = next(entry.path for entry in entries if _unsafe(entry.path))
        raise ValueError(f"entry path {bad!r} is not a normalized relative path")
    return entries


def _summaries(rows: object) -> dict[str, "Summary"]:
    """The summaries of a version-4 manifest, by key."""
    if type(rows) is not list:
        raise TypeError("summaries must be a list")
    summaries = {}
    for row in rows:
        if not (type(row) is list and len(row) == 4 and type(row[0]) is str
                and type(row[1]) is int and row[1] > 0):
            raise ValueError("a summary is not [key, length, languages, targets]")
        summaries[row[0]] = (row[1], tuple(_strings(row[2], "languages")),
                             tuple(_strings(row[3], "targets")))
    return summaries


def _unsafe(path: str) -> bool:
    """Whether `path` is empty or absolute, or has an empty, '.' or '..' step."""
    path = f"/{path}/"
    return "//" in path or "/./" in path or "/../" in path


def _old_entry(e: Mapping, version: int) -> ManifestEntry:
    """An entry of a version-1 or version-2 manifest, with no inputs: their
    inputs were keyed otherwise, so nothing is reused by them."""
    path, owner, sha = e["path"], e["ownership"], e["sha256"]
    if not (type(path) is str and type(owner) is str and type(sha) is str
            and (version == 1 or type(e["inputs"]) is str)):
        raise TypeError("entry path, ownership, sha256 and inputs must be strings")
    ownership = _OWNERSHIPS.get(owner)
    if ownership is None:
        raise ValueError(f"{owner!r} is not a valid Ownership")
    return ManifestEntry(path, ownership, sha)


def manifest_from_json(text: str) -> Manifest:
    try:
        payload = json.loads(text)
        version = payload["version"]
        if type(version) is not int or version not in (1, 2, 3, MANIFEST_VERSION):
            raise ValueError(f"unsupported manifest version {version!r}")
        if version < 3:
            return Manifest(tuple(_old_entry(e, version) for e in payload["entries"]))
        entries = _entries(payload["entries"], _strings(payload["rules"], "rules"),
                           _strings(payload["entities"], "entities"))
        if version == 3:
            return Manifest(tuple(entries))
        sources = payload["sources"]
        if type(sources) is not str:
            raise TypeError("sources must be a string")
        return Manifest(tuple(entries), _summaries(payload["summaries"]), sources)
    except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
        raise ManifestError(f"malformed manifest: {exc}") from exc


_READ_SIZE = 1 << 16


def read_file(path: str) -> Optional[bytes]:
    """The bytes of the file at `path`, or None if there is none. Any other
    failure raises OSError with `path` as its filename.

    One read takes a file of under _READ_SIZE bytes whole: a read that returns
    fewer bytes than asked is taken as the end of the file, as it is for a
    regular file. With no `stat` and no file object, reading 7,654 files of
    about 750 bytes takes a quarter of the time `Path.read_bytes` takes.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except (FileNotFoundError, NotADirectoryError):
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
