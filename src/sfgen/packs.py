"""Template packs: a manifest plus template files describing which artifacts to
render, at which output paths, with which ownership.

A pack directory holds `pack.json` and the templates it references. Generation
expands each output rule (once per model, or once per active entity), renders
the template and yields deterministic UTF-8 artifacts.
"""

from __future__ import annotations

import json
import posixpath
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from . import atl
from .loader import paused_gc
from .model import ApplicationModel, Entity
from .ownership import Ownership

_PLACEHOLDER_RE = re.compile(r"\{entity\.([A-Za-z_][A-Za-z0-9_]*)\}")
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


def builtin_pack_dir(name: str = "webstack") -> Path:
    """Directory of a pack bundled with the package."""
    return _BUILTIN_PACKS / name


def read_pack_dir(directory: Path) -> dict[str, str]:
    """Flat path -> text listing of a pack directory; every file must be UTF-8."""
    directory = Path(directory)
    if not directory.is_dir():
        raise PackError(f"pack directory not found: {directory}")
    listing: dict[str, str] = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
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
        value = getattr(entity, attr, None)
        if not isinstance(value, str) or not value:
            raise PackError(
                f"path pattern {pattern!r}: entity attribute {attr!r} is not usable in a path")
        return value

    path = _PLACEHOLDER_RE.sub(substitute, pattern)
    normalized = posixpath.normpath(path)
    if normalized.startswith("..") or normalized.startswith("/"):
        raise PackError(f"expanded path {path!r} escapes the output root")
    return normalized


def generate_all(
    model: ApplicationModel, pack: TemplatePack, lang: str = ""
) -> list[Artifact]:
    """Render each output rule once per model, or once per active entity with
    `entity` bound, in rule order, then entity order. `lang` falls back to the
    model's defaultLanguage, then its first language. Content is UTF-8 with LF
    line endings; two artifacts with one path raise PathCollision."""
    lang = lang or model.settings.defaultLanguage or next(iter(model.languages), "")
    view = atl.ModelView(model, model)  # one view of the model serves every rule
    artifacts: list[Artifact] = []
    producers: dict[str, str] = {}  # path -> the rule (and entity) that produced it
    with paused_gc():  # the views and artifacts are acyclic
        for number, rule in enumerate(pack.outputs, start=1):
            ast = pack.templates[rule.template]
            base: dict[str, atl.Value] = {"model": view, "lang": lang, "flags": dict(rule.flags)}
            if rule.per == "model":
                targets = [(posixpath.normpath(rule.pathPattern), f"output rule #{number}", base)]
            else:
                targets = [(_expand_path(rule.pathPattern, entity),
                            f"output rule #{number} for entity {entity.name!r}",
                            {**base, "entity": entity_view})
                           for entity, entity_view in zip(model.entities, view["entities"])
                           if entity.isActive]
            for path, producer, context in targets:
                if path in producers:
                    raise PathCollision(f"{producers[path]} and {producer} both produce {path!r}")
                producers[path] = producer
                try:
                    text = atl.render(ast, context)
                except atl.TemplateRuntimeError as exc:
                    exc.args = (f"while rendering {path!r}: {exc}",)
                    raise
                artifacts.append(Artifact(path=path, ownership=rule.ownership,
                                          content=text.replace("\r\n", "\n").encode("utf-8")))
    return artifacts
