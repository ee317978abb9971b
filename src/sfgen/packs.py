"""Template packs: a manifest plus template files describing which artifacts to
render, at which output paths, with which ownership.

A pack directory holds `pack.json` and the templates it references. Generation
expands each output rule (once per model, or once per active entity), renders
the template and yields deterministic UTF-8 artifacts. Each artifact carries
the digest of its inputs, so that a later run can take an artifact whose
inputs are unchanged from disk instead of rendering it.
"""

from __future__ import annotations

import hashlib
import json
import posixpath
import re
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable, Mapping, Optional

from . import atl
from .loader import paused_gc
from .model import ApplicationModel, Entity
from .ownership import Ownership, walk_files

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
    inputs: str = ""  # the digest of everything its content depends on; "" if unknown


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


def _expand_path(pattern: str, entity: Entity) -> str:
    def substitute(match: re.Match) -> str:
        attr = match.group(1)
        value = getattr(entity, attr)
        if not value:
            raise PackError(f"path pattern {pattern!r}: entity attribute {attr!r} is empty")
        return value

    path = _PLACEHOLDER_RE.sub(substitute, pattern)
    normalized = posixpath.normpath(path)
    if normalized.startswith("..") or normalized.startswith("/"):
        raise PackError(f"expanded path {path!r} escapes the output root")
    return normalized


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


def _rule_inputs(rule: OutputRule, ast: atl.TemplateAst, lang: str,
                 model: ApplicationModel) -> "hashlib._Hash":
    """A hash of the inputs that every artifact of `rule` shares."""
    h = hashlib.sha256(_sources_digest())
    for part in (ast.source, rule.per, rule.pathPattern, rule.ownership.value, lang,
                 repr(model.settings), repr(model.languages),
                 json.dumps(rule.flags, sort_keys=True, ensure_ascii=False, default=repr)):
        _update(h, part)
    return h


def _inputs(rule_inputs: "hashlib._Hash", source: str) -> str:
    """The inputs of an artifact that reads the model `source` digests; "" if
    the model has no source to digest."""
    if not source:
        return ""
    h = rule_inputs.copy()
    _update(h, source)
    return h.hexdigest()


def _model_digest(model: ApplicationModel) -> str:
    """The digest of every entity's source and location, in order; "" if an
    entity has no source digest."""
    h = hashlib.sha256()
    for entity in model.entities:
        if not entity.digest:
            return ""
        _update(h, f"{entity.digest} {entity.location}")
    return h.hexdigest()


# Reuse(path, inputs): the bytes to take as the content of the artifact at
# `path`, instead of rendering it, or None to render it
Reuse = Callable[[str, str], Optional[bytes]]


def generate_all(model: ApplicationModel, pack: TemplatePack, lang: str = "",
                 reuse: Optional[Reuse] = None) -> list[Artifact]:
    """Render each output rule once per model, or once per active entity with
    `entity` bound, in rule order, then entity order. `lang` falls back to the
    model's defaultLanguage, then its first language. Content is UTF-8 with LF
    line endings; two artifacts with one path raise PathCollision.

    Each artifact records the digest of its inputs: sfgen's sources, the
    rule's template, flags, path, kind and ownership, the language, the
    settings and the model's languages, then the source of its entity or, for
    a per-model rule or a template that reads `model` or any `location`, of
    the whole model. A template view of an entity reaches no other entity, and
    its default language through the settings. Where `reuse` gives the bytes
    for an artifact with known inputs, they are its content and it is not
    rendered.
    """
    lang = lang or model.settings.defaultLanguage or next(iter(model.languages), "")
    view = atl.ModelView(model, model)  # one view of the model serves every rule
    model_digest: Optional[str] = None  # computed for the first rule that needs it
    artifacts: list[Artifact] = []
    producers: dict[str, str] = {}  # path -> the rule (and entity) that produced it
    with paused_gc():  # the views and artifacts are acyclic
        for number, rule in enumerate(pack.outputs, start=1):
            ast = pack.templates[rule.template]
            base: dict[str, atl.Value] = {"model": view, "lang": lang, "flags": dict(rule.flags)}
            rule_inputs = _rule_inputs(rule, ast, lang, model)
            whole = rule.per == "model" or "model" in ast.names or "location" in ast.steps
            if whole and model_digest is None:
                model_digest = _model_digest(model)
            if rule.per == "model":
                targets = [(posixpath.normpath(rule.pathPattern), f"output rule #{number}",
                            None, None)]
            else:
                targets = [(_expand_path(rule.pathPattern, entity),
                            f"output rule #{number} for entity {entity.name!r}",
                            entity, entity_view)
                           for entity, entity_view in zip(model.entities, view["entities"])
                           if entity.isActive]
            for path, producer, entity, entity_view in targets:
                if path in producers:
                    raise PathCollision(f"{producers[path]} and {producer} both produce {path!r}")
                producers[path] = producer
                inputs = _inputs(rule_inputs, model_digest if whole else entity.digest)
                content = reuse(path, inputs) if reuse and inputs else None
                if content is None:
                    context = base if entity is None else {**base, "entity": entity_view}
                    try:
                        text = atl.render(ast, context)
                    except atl.TemplateRuntimeError as exc:
                        exc.args = (f"while rendering {path!r}: {exc}",)
                        raise
                    content = text.replace("\r\n", "\n").encode("utf-8")
                artifacts.append(Artifact(path=path, content=content,
                                          ownership=rule.ownership, inputs=inputs))
    return artifacts
