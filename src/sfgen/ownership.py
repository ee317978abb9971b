"""Regeneration safety: file ownership classification, the on-disk manifest of
generation digests, and conflict-aware write planning.

ALWAYS files are regenerated on every run and must not be hand-edited; ONCE
files are scaffolded once and then belong to the developer. The manifest
records the digest each file had when the generator last wrote it, which is
what lets a later run tell "unchanged", "needs regeneration" and "hand-edited"
apart.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

if TYPE_CHECKING:
    from .packs import Artifact

MANIFEST_FILENAME = ".sfgen-manifest.json"
MANIFEST_VERSION = 1


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


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    ownership: Ownership
    sha256: str


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ManifestEntry, ...] = ()

    @cached_property
    def _by_path(self) -> dict[str, ManifestEntry]:
        # built from the last entry back, so the first entry for a path wins
        return {entry.path: entry for entry in reversed(self.entries)}

    def entry_of(self, path: str) -> Optional[ManifestEntry]:
        return self._by_path.get(path)


@dataclass(frozen=True)
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
    tmp = target.with_name(f".tmp-{target.name}")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(content)
        os.replace(tmp, target)
    except OSError as exc:
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
        manifest_entries.append(ManifestEntry(entry.path, artifact.ownership, entry.sha256))
    manifest_entries.sort(key=lambda e: e.path)
    return Manifest(entries=tuple(manifest_entries))


def manifest_to_json(manifest: Manifest) -> str:
    payload = {
        "version": MANIFEST_VERSION,
        "entries": [
            {"path": e.path, "ownership": e.ownership.value, "sha256": e.sha256}
            for e in manifest.entries
        ],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _entry_from_json(e: Mapping) -> ManifestEntry:
    path, owner, sha = e["path"], e["ownership"], e["sha256"]
    if not (isinstance(path, str) and isinstance(owner, str) and isinstance(sha, str)):
        raise TypeError("entry path, ownership and sha256 must be strings")
    return ManifestEntry(path, Ownership(owner), sha)


def manifest_from_json(text: str) -> Manifest:
    try:
        payload = json.loads(text)
        version = payload["version"]
        if type(version) is not int or version != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version {version!r}")
        return Manifest(entries=tuple(_entry_from_json(e) for e in payload["entries"]))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ManifestError(f"malformed manifest: {exc}") from exc


def save_manifest(manifest: Manifest, out_root: Path) -> None:
    _atomic_write(out_root / MANIFEST_FILENAME, manifest_to_json(manifest).encode("utf-8"))


def load_manifest(out_root: Path) -> Optional[Manifest]:
    """The manifest under `out_root`, or None if there is none; any other read,
    decode or shape failure is a ManifestError."""
    path = out_root / MANIFEST_FILENAME
    try:
        text = path.read_bytes().decode("utf-8")
    except (FileNotFoundError, NotADirectoryError):
        return None
    except OSError as exc:
        raise ManifestError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ManifestError(f"malformed manifest: {exc}") from exc
    return manifest_from_json(text)
