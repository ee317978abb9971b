"""Regeneration safety: file ownership classification, the on-disk manifest of
generation digests, and conflict-aware write planning.

ALWAYS files are regenerated on every run and must not be hand-edited; ONCE
files are scaffolded once and then belong to the developer. The manifest
records the digest each file had when the generator last wrote it, which is
what lets a later run tell "unchanged", "needs regeneration" and "hand-edited"
apart, and the digest of the inputs it was generated from, which lets a later
run with the same inputs take the file as it is instead of rendering it.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

if TYPE_CHECKING:
    from .packs import Artifact

MANIFEST_FILENAME = ".sfgen-manifest.json"
MANIFEST_VERSION = 2  # 2 added each entry's "inputs"; a version-1 manifest still loads


class Ownership(Enum):
    ALWAYS = "always"
    ONCE = "once"


class WriteAction(Enum):
    CREATE = "CREATE"
    OVERWRITE = "OVERWRITE"
    SKIP_ONCE = "SKIP_ONCE"
    SKIP_UNCHANGED = "SKIP_UNCHANGED"
    CONFLICT = "CONFLICT"


class IoError(Exception):
    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class ManifestError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class ManifestEntry:
    path: str
    ownership: Ownership
    sha256: str
    inputs: str = ""  # the digest of what the file was generated from; "" if unknown


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ManifestEntry, ...] = ()
    version: int = MANIFEST_VERSION  # of the file it was read from

    @cached_property
    def _by_path(self) -> dict[str, ManifestEntry]:
        # built from the last entry back, so the first entry for a path wins
        return {entry.path: entry for entry in reversed(self.entries)}

    def entry_of(self, path: str) -> Optional[ManifestEntry]:
        return self._by_path.get(path)


@dataclass(frozen=True, slots=True)
class PlanEntry:
    path: str
    action: WriteAction
    reason: str = ""
    sha256: Optional[str] = None  # what the new manifest records; None for a CONFLICT


@dataclass(frozen=True)
class WritePlan:
    actions: tuple[PlanEntry, ...] = ()

    def conflicts(self) -> list[PlanEntry]:
        return [a for a in self.actions if a.action is WriteAction.CONFLICT]


def digest(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


def reusable(manifest: Optional[Manifest], path: str, inputs: str) -> bool:
    """Whether the file at `path`, if it exists, may stand for rendering the
    artifact with these inputs: the manifest records these inputs for it.
    Planning then finds whether its bytes are still the ones generated."""
    entry = manifest.entry_of(path) if manifest is not None else None
    return entry is not None and entry.inputs == inputs


def plan_writes(
    artifacts: Sequence["Artifact"],
    existing: Mapping[str, bytes],
    manifest: Optional[Manifest],
    force: bool = False,
) -> WritePlan:
    """Decide the per-file action for one regeneration; pure, writes nothing.

    ONCE files that already exist are always skipped. ALWAYS files are only
    overwritten when the on-disk content is what the generator last wrote
    (digest matches the manifest); anything else is a CONFLICT unless forced.
    Each entry carries the digest the new manifest records for its path: that
    of the content written, or of the bytes left on disk. Every file is hashed
    at most once.
    """
    actions: list[PlanEntry] = []
    for artifact in artifacts:
        path, content = artifact.path, artifact.content
        on_disk = existing.get(path)
        if on_disk is None:
            actions.append(PlanEntry(path, WriteAction.CREATE, "new file", digest(content)))
            continue
        if artifact.ownership is Ownership.ONCE:
            actions.append(PlanEntry(path, WriteAction.SKIP_ONCE,
                                     "scaffolded once; owned by the developer", digest(on_disk)))
            continue
        recorded = manifest.entry_of(path) if manifest is not None else None
        if recorded is not None and digest(on_disk) == recorded.sha256:
            if on_disk == content:
                actions.append(PlanEntry(path, WriteAction.SKIP_UNCHANGED,
                                         "content unchanged", recorded.sha256))
            else:
                actions.append(PlanEntry(path, WriteAction.OVERWRITE,
                                         "regenerated content differs", digest(content)))
        elif force:
            actions.append(PlanEntry(path, WriteAction.OVERWRITE, "forced", digest(content)))
        else:
            reason = ("file was modified after the last generation"
                      if recorded is not None else "file is not covered by the manifest")
            actions.append(PlanEntry(path, WriteAction.CONFLICT, reason))
    return WritePlan(tuple(actions))


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
    except OSError as exc:
        if tmp is not None:
            tmp.unlink(missing_ok=True)
        raise IoError(str(target), exc.strerror or str(exc)) from exc


def apply_plan(plan: WritePlan, artifacts: Sequence["Artifact"], out_root: Path) -> Manifest:
    """Execute a conflict-free plan under `out_root` and return the new manifest.

    `plan` is `plan_writes(artifacts, ...)`, one entry per artifact in order.
    Writes are atomic per file (temp file + rename). The manifest records each
    entry's digest, so user-edited ONCE scaffolds stay recognizable.
    """
    if plan.conflicts():
        raise ValueError("plan contains conflicts; resolve them or use force")

    manifest_entries: list[ManifestEntry] = []
    for entry, artifact in zip(plan.actions, artifacts, strict=True):
        if entry.action in (WriteAction.CREATE, WriteAction.OVERWRITE):
            _atomic_write(out_root / entry.path, artifact.content)
        manifest_entries.append(ManifestEntry(entry.path, artifact.ownership, entry.sha256,
                                              artifact.inputs))
    manifest_entries.sort(key=lambda e: e.path)
    return Manifest(entries=tuple(manifest_entries))


_OWNERSHIPS = {member.value: member for member in Ownership}
_QUOTED = {member: json.encoder.encode_basestring(member.value) for member in Ownership}


def manifest_to_json(manifest: Manifest) -> str:
    """The manifest as `json.dumps(..., indent=2, ensure_ascii=False)` lays it
    out, always at MANIFEST_VERSION. Written line by line, since an indent
    makes json.dumps use its pure-Python encoder: about 5 times as slow on a
    manifest of 7,654 entries."""
    quote = json.encoder.encode_basestring
    entries = ",\n".join(
        f'    {{\n      "path": {quote(e.path)},\n      "ownership": {_QUOTED[e.ownership]},'
        f'\n      "sha256": {quote(e.sha256)},\n      "inputs": {quote(e.inputs)}\n    }}'
        for e in manifest.entries)
    entries = f"[\n{entries}\n  ]" if entries else "[]"
    return f'{{\n  "version": {MANIFEST_VERSION},\n  "entries": {entries}\n}}\n'


def _entry_from_json(e: Mapping, version: int) -> ManifestEntry:
    path, owner, sha = e["path"], e["ownership"], e["sha256"]
    inputs = e["inputs"] if version > 1 else ""  # version 1 recorded none
    if not (type(path) is str and type(owner) is str and type(sha) is str
            and type(inputs) is str):
        raise TypeError("entry path, ownership, sha256 and inputs must be strings")
    ownership = _OWNERSHIPS.get(owner)
    if ownership is None:
        raise ValueError(f"{owner!r} is not a valid Ownership")
    return ManifestEntry(path, ownership, sha, inputs)


def manifest_from_json(text: str) -> Manifest:
    try:
        payload = json.loads(text)
        version = payload["version"]
        if type(version) is not int or version not in (1, MANIFEST_VERSION):
            raise ValueError(f"unsupported manifest version {version!r}")
        entries = tuple(_entry_from_json(e, version) for e in payload["entries"])
        return Manifest(entries, version)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
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
