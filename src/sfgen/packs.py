"""Template packs: a manifest plus template files describing which artifacts to
render, at which output paths, with which ownership.

A pack directory holds `pack.json` and the templates it references. Generation
expands each output rule (once per model, or once per active entity), renders
the template and yields deterministic UTF-8 artifacts. Each artifact carries
the keys of its inputs, so that a later run can take an artifact whose inputs
are unchanged from disk instead of rendering it.
"""

from __future__ import annotations

import hashlib
import json
import posixpath
import re
from dataclasses import dataclass, field
from functools import cache
from operator import attrgetter
from pathlib import Path
from typing import Callable, Mapping, Optional

from . import atl
from .loader import paused_gc
from .model import KEY_LENGTH, ApplicationModel, Entity, _builder
from .ownership import Fragment, Manifest, ManifestEntry, Ownership, _unsafe, walk_files

_PLACEHOLDER_RE = re.compile(r"\{entity\.([A-Za-z_][A-Za-z0-9_]*)\}")
_PATH_FIELDS = ("name", "tableName")  # the entity text fields a path may read
_BUILTIN_PACKS = Path(__file__).parent / "builtin_packs"


class PackError(Exception):
    pass


class PathCollision(PackError):
    pass


@dataclass(frozen=True)
class OutputRule:
    template: str
    pathPattern: str
    per: str  # "model" | "entity"
    ownership: Ownership
    flags: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class TemplatePack:
    name: str
    version: str
    outputs: tuple[OutputRule, ...]
    templates: Mapping[str, atl.TemplateAst]


@dataclass(frozen=True, slots=True)
class Artifact:
    path: str
    content: bytes
    ownership: Ownership
    # the keys of what its content depends on: its rule's inputs, and the source
    # of its entity or, for a per-model artifact, of the whole model; "" if unknown
    rule: str = ""
    entity: str = ""
    fragments: tuple[Fragment, ...] = ()  # of a template with a fragment loop: its iterations
    # the manifest entry whose keys it has, where its content is its file's, not rendered
    reused: Optional[ManifestEntry] = field(default=None, compare=False, repr=False)


def builtin_pack_dir(name: str = "webstack") -> Path:
    """Directory of a pack bundled with the package."""
    return _BUILTIN_PACKS / name


def read_pack_dir(directory: Path) -> dict[str, str]:
    """Flat path -> text listing of a pack directory; every file must be UTF-8.
    A file that cannot be read raises OSError, with the file's path."""
    directory = Path(directory)
    if not directory.is_dir():
        raise PackError(f"pack directory not found: {directory}")
    listing: dict[str, str] = {}
    for path in walk_files(directory):
        name = path.relative_to(directory).as_posix()
        try:
            listing[name] = path.read_text("utf-8")
        except UnicodeDecodeError as exc:
            raise PackError(f"{name} is not valid UTF-8: {exc.reason}") from None
    return listing


def _check_path_pattern(rule_index: int, rule: OutputRule) -> None:
    pattern = rule.pathPattern
    where = f"output rule #{rule_index} ({pattern!r})"
    if not pattern or pattern.startswith(("/", "\\")) or re.match(r"[A-Za-z]:", pattern):
        raise PackError(f"{where}: path must be relative")
    if "\0" in pattern:
        raise PackError(f"{where}: path must not contain a NUL character")
    if ".." in pattern.split("/"):
        raise PackError(f"{where}: path must not escape the output root")
    if rule.per == "model" and _PLACEHOLDER_RE.search(pattern):
        raise PackError(f"{where}: per-model paths cannot use entity placeholders")
    for match in _PLACEHOLDER_RE.finditer(pattern):
        if match.group(1) not in _PATH_FIELDS:
            raise PackError(f"{where}: placeholder {match.group()} is not a path field; "
                            "use {entity.name} or {entity.tableName}")
    if any(brace in _PLACEHOLDER_RE.sub("", pattern) for brace in "{}"):
        raise PackError(f"{where}: a brace must open or close a placeholder; "
                        "use {entity.name} or {entity.tableName}")


def load_pack(listing: Mapping[str, str]) -> TemplatePack:
    """Build a TemplatePack from a directory listing; every referenced template
    is parsed eagerly so bad packs fail before any generation starts."""
    if "pack.json" not in listing:
        raise PackError("pack.json not found in pack directory")
    try:
        manifest = json.loads(listing["pack.json"])
    except ValueError as exc:
        raise PackError(f"pack.json is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise PackError("pack.json must hold a JSON object")

    name = manifest.get("name")
    version = manifest.get("version")
    outputs_raw = manifest.get("outputs")
    if not isinstance(name, str) or not isinstance(version, str) \
            or not isinstance(outputs_raw, list):
        raise PackError("pack.json must define 'name', 'version' and 'outputs'")

    rules: list[OutputRule] = []
    for i, raw in enumerate(outputs_raw, start=1):
        try:
            rule = OutputRule(
                template=raw["template"],
                pathPattern=raw["path"],
                per=raw["per"],
                ownership=Ownership(raw["ownership"]),
                flags=dict(raw.get("flags", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PackError(f"output rule #{i} is malformed: {exc}") from exc
        if not all(isinstance(v, str) for v in (rule.template, rule.pathPattern, rule.per)):
            raise PackError(f"output rule #{i}: 'template', 'path' and 'per' must be strings")
        if rule.per not in ("model", "entity"):
            raise PackError(f"output rule #{i}: 'per' must be 'model' or 'entity'")
        _check_path_pattern(i, rule)
        rules.append(rule)

    templates: dict[str, atl.TemplateAst] = {}
    for rule in rules:
        if rule.template in templates:
            continue
        if rule.template not in listing:
            raise PackError(
                f"output rule for {rule.pathPattern!r} references missing template "
                f"{rule.template!r}")
        try:
            templates[rule.template] = atl.parse_template(listing[rule.template], rule.template)
        except atl.TemplateSyntaxError as exc:
            raise PackError(str(exc)) from exc

    return TemplatePack(name=name, version=version, outputs=tuple(rules), templates=templates)


def _path_format(pattern: str) -> tuple[str, Optional[Callable[[Entity], object]]]:
    """The pattern normalized and, where it has placeholders, as a %-format
    string, with the getter of the entity fields it reads (else None)."""
    pattern = posixpath.normpath(pattern)
    fields = _PLACEHOLDER_RE.findall(pattern)
    if not fields:
        return pattern, None
    return _PLACEHOLDER_RE.sub("%s", pattern.replace("%", "%%")), attrgetter(*fields)


@cache
def _sources_digest() -> bytes:
    """The SHA-256 of sfgen's own sources, so that an upgrade which may change
    what a template renders changes the inputs of every artifact."""
    package = Path(__file__).parent
    h = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        _update(h, path.relative_to(package).as_posix())
        _update(h, path.read_text("utf-8"))
    return h.digest()


def _update(h: "hashlib._Hash", part: str) -> None:
    data = part.encode("utf-8", "surrogatepass")
    h.update(b"%d:" % len(data))
    h.update(data)


def _rule_key(rule: OutputRule, ast: atl.TemplateAst, lang: str, model: ApplicationModel,
              model_digest: str) -> str:
    """The key of the inputs that every artifact of `rule` shares."""
    h = hashlib.sha256(_sources_digest())
    for part in (ast.source, rule.per, rule.ownership.value, lang, repr(model.settings),
                 json.dumps(rule.flags, sort_keys=True, ensure_ascii=False, default=repr),
                 model_digest):
        _update(h, part)
    return h.hexdigest()[:KEY_LENGTH]


def _model_digest(model: ApplicationModel) -> str:
    """The digest of every entity's source and location, in order; "" if an
    entity has no source digest."""
    h = hashlib.sha256()
    for entity in model.entities:
        if not entity.digest:
            return ""
        _update(h, f"{entity.digest} {entity.location}")
    return h.hexdigest()


def generate_all(model: ApplicationModel, pack: TemplatePack, lang: str = "",
                 manifest: Optional[Manifest] = None,
                 read: Optional[Callable[[str], Optional[bytes]]] = None) -> list[Artifact]:
    """Render each output rule once per model, or once per active entity with
    `entity` bound, in rule order, then entity order. `lang` falls back to the
    model's defaultLanguage, then its first language. Content is UTF-8 with LF
    line endings. Two artifacts with one path, or one whose path is a directory
    of another's, raise PathCollision before any file is read or rendered.

    Each artifact records the keys of its inputs: of its rule's, and of the
    source of its entity or, for a per-model artifact, of the whole model; a
    key is the first KEY_LENGTH hex digits of a digest. A rule's inputs are
    sfgen's sources, its template, flags, kind and ownership, the language and
    the settings, and the whole model's source where a per-entity template
    reads `model` or any `location`. No name of an entity reaches another
    (atl.NAMES), and `localized` reads the settings' default language; the model's
    languages come from the entities' sources, and an entry is found by path.

    `read(path)` gives the bytes of the file at an artifact's path, or None
    where there is none; each file is read once. Where the `manifest` entry at
    that path holds the artifact's keys, the file's bytes are its content, it
    is not rendered, and it names that entry (Artifact.reused), which planning
    then only checks against the file's digest. A per-model template with a
    fragment loop (atl.FragmentLoop) whose entry has its rule's key is
    rendered once, and skips each iteration whose key the entry lists: that
    iteration is kept from the file's bytes. Planning then checks that those
    bytes are the ones the manifest records: content spliced from an edited
    file is a CONFLICT, and never written.
    """
    lang = lang or model.settings.defaultLanguage or next(iter(model.languages), "")
    model_digest = _model_digest(model)
    # the units a rule renders, one per model or one per active entity: each
    # its entity and key ("" if it has no source digest)
    whole_model = [(None, model_digest[:KEY_LENGTH])]
    active = [(entity, entity.digest[:KEY_LENGTH]) for entity in model.entities
              if entity.isActive]
    # every rule's units with their paths, each checked before anything is rendered
    expanded: list[tuple[OutputRule, list[tuple[Optional[Entity], str, str]]]] = []
    producers: dict[str, tuple[int, Optional[Entity]]] = {}  # path -> its rule and entity
    for number, rule in enumerate(pack.outputs, start=1):
        form, fields = _path_format(rule.pathPattern)
        units = []
        for entity, key in whole_model if rule.per == "model" else active:
            path = form % fields(entity) if fields else form
            producer = number, entity
            if _unsafe(path):
                raise PackError(f"{_producer(*producer)}: expanded path {path!r} is not "
                                "a normalized path under the output root")
            if producers.setdefault(path, producer) is not producer:
                raise _collision(producers[path], producer, path)
            units.append((entity, key, path))
        expanded.append((rule, units))
    _check_directories(producers)

    shared = {atl.DEFAULT_LANGUAGE: model.settings.defaultLanguage, atl.MEMO: {}}  # by every render
    entry_of = manifest.entry_of if manifest is not None else {}.get
    make = _builder(Artifact)
    artifacts: list[Artifact] = []
    with paused_gc():  # the memo and artifacts are acyclic
        for rule, units in expanded:
            ast = pack.templates[rule.template]
            context: dict[str, atl.Value] = {"model": model, "lang": lang,
                                             "flags": dict(rule.flags), **shared}
            per_model = rule.per == "model"
            whole = not per_model and ("model" in ast.names or "location" in ast.steps)
            # "" where the inputs are unknown: the model has no source digest
            rule_key = "" if whole and not model_digest else \
                _rule_key(rule, ast, lang, model, model_digest if whole else "")
            for entity, key, path in units:
                old = read(path) if read else None
                known = bool(rule_key and key)
                entry = entry_of(path) if known and old is not None else None
                reused = entry if entry is not None and entry.rule == rule_key \
                    and entry.entity == key else None
                try:
                    if reused is not None:
                        content, fragments = old, entry.fragments
                    elif per_model and ast.fragment is not None:
                        recorded = entry.fragments if entry and entry.rule == rule_key else ()
                        content, fragments = _render_fragments(ast, context, recorded,
                                                               old or b"")
                    else:
                        content, fragments = _render(ast, context if per_model else
                                                     {**context, "entity": entity}), ()
                except atl.TemplateRuntimeError as exc:
                    exc.args = (f"while rendering {path!r}: {exc}",)
                    raise
                artifacts.append(make(path=path, content=content, ownership=rule.ownership,
                                      rule=rule_key if known else "",
                                      entity=key if known else "",
                                      fragments=fragments if known else (), reused=reused))
    return artifacts


def _check_directories(producers: Mapping[str, tuple[int, Optional[Entity]]]) -> None:
    """Raise PathCollision where one artifact's path is a directory of another's."""
    directories = {path.rpartition("/")[0] for path in producers}
    for directory in list(directories):  # and their own directories
        while directory := directory.rpartition("/")[0]:
            directories.add(directory)
    for path in filter(directories.__contains__, producers):
        inner = next(inner for inner in producers if inner.startswith(path + "/"))
        raise PathCollision(f"{_producer(*producers[path])} produces {path!r} and "
                            f"{_producer(*producers[inner])} produces {inner!r}: "
                            f"{path!r} cannot be both a file and a directory")


def _collision(first: tuple[int, Optional[Entity]], second: tuple[int, Optional[Entity]],
               path: str) -> PathCollision:
    """The error for two producers, each a rule's number and entity, of `path`."""
    return PathCollision(f"{_producer(*first)} and {_producer(*second)} both produce {path!r}")


def _producer(number: int, entity: Optional[Entity]) -> str:
    return f"output rule #{number}" + (f" for entity {entity.name!r}" if entity else "")


def _render(ast: atl.TemplateAst, context: Mapping[str, atl.Value]) -> bytes:
    return atl.render(ast, context).replace("\r\n", "\n").encode("utf-8")


def _render_fragments(ast: atl.TemplateAst, context: Mapping[str, atl.Value],
                      recorded: tuple[Fragment, ...],
                      old: bytes) -> tuple[bytes, tuple[Fragment, ...]]:
    """The content of a template with a fragment loop, keeping the iterations
    `recorded` lists from the bytes `old`, and its iterations: none where the
    content holds a CR, since normalizing line ends could then join the ends
    of two iterations. Kept iterations hold no CR, and no UTF-8 sequence
    holds a CR or LF byte, so the bytes normalized are a whole render's."""
    spans = {fragment[:2]: fragment for fragment in recorded}
    keys: list[tuple[str, str]] = []

    def kept(item: Entity, loop: str) -> Optional[Fragment]:
        key = item.digest[:KEY_LENGTH], loop
        keys.append(key)
        return spans.get(key)

    pieces = atl.render_fragments(ast, context, kept)
    data, fragments = [pieces[0].encode("utf-8")], []
    offset = len(data[0])
    for key, piece in zip(keys, pieces[1:-1]):
        if type(piece) is tuple:
            start, end = piece[2:]
            data.append(old[start:end])
            fragments.append(piece if start == offset else (*key, offset, offset + end - start))
            offset += end - start
        else:
            data.append(piece.encode("utf-8"))
            fragments.append((*key, offset, offset + len(data[-1])))
            offset += len(data[-1])
    data.append(pieces[-1].encode("utf-8"))
    content = b"".join(data)
    if b"\r" in content:
        return content.replace(b"\r\n", b"\n"), ()
    return content, tuple(fragments)
