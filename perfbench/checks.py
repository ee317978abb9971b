"""Output checks for the benchmark ops.

Every expectation is derived from the model description (`models.ModelSpec`)
and the pack's `pack.json`, never from saved generator output. Each check
returns a list of error strings; an empty list means the op passed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

from models import EntitySpec, FieldSpec, ModelSpec

MANIFEST = ".sfgen-manifest.json"
SQL_OPERATORS = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "=", "neq": "<>"}
_PLACEHOLDER = re.compile(r"\{entity\.([A-Za-z_]+)\}")
_SUMMARY = re.compile(r"^generated (\d+) artifacts: (.*)$", re.MULTILINE)


@dataclass(frozen=True)
class Rule:
    template: str
    path: str
    per: str  # "model" | "entity"
    ownership: str  # "always" | "once"
    active_only: bool = True


def read_rules(pack_dir: Path) -> list[Rule]:
    manifest = json.loads((pack_dir / "pack.json").read_text("utf-8"))
    return [Rule(r["template"], r["path"], r["per"], r["ownership"],
                 bool(r.get("activeOnly", True))) for r in manifest["outputs"]]


def entity_path(rule: Rule, entity: EntitySpec) -> str:
    attrs = {"name": entity.name, "tableName": entity.table}
    return _PLACEHOLDER.sub(lambda m: attrs[m.group(1)], rule.path)


def expected_artifacts(spec: ModelSpec, rules: list[Rule]) -> dict[str, str]:
    """Output path -> ownership for every artifact one generation writes."""
    out: dict[str, str] = {}
    for rule in rules:
        if rule.per == "model":
            out[rule.path] = rule.ownership
            continue
        for entity in spec.entities:
            if entity.active or not rule.active_only:
                out[entity_path(rule, entity)] = rule.ownership
    return out


def parse_summary(stdout: str) -> tuple[int, dict[str, int]] | None:
    """(artifact count, action -> count) from `sfgen generate`'s last line."""
    match = _SUMMARY.search(stdout)
    if match is None:
        return None
    counts = {}
    for part in match.group(2).split(", "):
        n, action = part.split(" ")
        counts[action] = int(n)
    return int(match.group(1)), counts


def check_summary(stdout: str, expected: dict[str, int]) -> list[str]:
    parsed = parse_summary(stdout)
    if parsed is None:
        return [f"no summary line in generate output: {stdout[-200:]!r}"]
    total, counts = parsed
    errors = []
    if total != sum(expected.values()):
        errors.append(f"{total} artifacts, expected {sum(expected.values())}")
    wanted = {k: v for k, v in expected.items() if v}
    if counts != wanted or counts.get("CONFLICT", 0):
        errors.append(f"plan actions {counts}, expected {wanted}")
    return errors


def check_blocks(spec: ModelSpec) -> list[str]:
    """The 4-line CHECK statement of every TwoFields constraint of an active entity."""
    blocks = []
    for entity in spec.active_entities:
        for c in entity.constraints:
            if c.kind != "TwoFields":
                continue
            first, second = c.fields
            blocks.append(
                f"ALTER TABLE [dbo].[tbl_{entity.table}] ADD\n"
                f"CONSTRAINT [CK_tbl_{entity.table}_{first}_{second}]\n"
                f"CHECK ([{first}] {SQL_OPERATORS[c.relationship]} [{second}])\n"
                "GO")
    return blocks


def check_constraints_sql(text: str, spec: ModelSpec) -> list[str]:
    lines = text.split("\n")
    windows = {"\n".join(lines[i:i + 4]) for i, line in enumerate(lines)
               if line.startswith("ALTER TABLE ")}
    expected = check_blocks(spec)
    missing = [b for b in expected if b not in windows]
    found = sum(1 for line in lines if line.startswith("CHECK ("))
    errors = [f"002_constraints.sql lacks {len(missing)} CHECK blocks, first:\n{missing[0]}"] \
        if missing else []
    if found != len(expected):
        errors.append(f"002_constraints.sql has {found} CHECK lines, expected {len(expected)}")
    return errors


def check_api_json(text: str, spec: ModelSpec) -> list[str]:
    try:
        api = json.loads(text)
    except ValueError as exc:
        return [f"api/api.json does not parse: {exc}"]
    names = [e.get("name") for e in api.get("entities", [])]
    if names != [e.name for e in spec.active_entities]:
        return ["api/api.json does not list the active entities in model order"]
    return []


def mentions_field(template: str, entity: EntitySpec, field: FieldSpec) -> bool:
    """Whether the webstack artifact rendered from `template` for `entity`
    names `field`. This is what a rename must rewrite.

    Display texts made by `models` contain the field name, and a field without
    one is shown by name, so every view that shows the field names it.
    """
    in_constraint = any(field.name in c.fields for c in entity.constraints)
    in_twofields = any(field.name in c.fields for c in entity.constraints
                       if c.kind == "TwoFields")
    rules = {
        "tables.sql.atl": True,  # every column
        "procs.sql.atl": True,  # insert, select and update column lists
        "docs.md.atl": True,  # field table
        "constraints.sql.atl": in_constraint,
        "edit.html.atl": field.shown_in_edit,
        "list.html.atl": field.shown_in_list,
        "validation.js.atl": field.required or in_twofields,
        "dal_base.js.atl": field.pk,
        "dal_derived.js.atl": False,
        "api.json.atl": False,
    }
    if template not in rules:
        raise KeyError(f"no rename rule for template {template!r}")
    return rules[template]


def rewrite_set(rules: list[Rule], entity: EntitySpec, field: FieldSpec) -> set[str]:
    """Paths a rename of `field` in `entity` must OVERWRITE."""
    return {entity_path(r, entity) for r in rules
            if r.ownership == "always" and mentions_field(r.template, entity, field)}


def table_block(tables_sql: str, table: str) -> str:
    start = tables_sql.find(f"CREATE TABLE [dbo].[tbl_{table}] (")
    if start < 0:
        return ""
    return tables_sql[start:tables_sql.find("\nGO\n", start)]


def check_rename(root: Path, rules: list[Rule], entity: EntitySpec, field: FieldSpec,
                 old: str) -> list[str]:
    """`field` (now named `field.name`, formerly `old`) is named in every file
    of `entity` that mentions it, and `old` appears in none of them."""
    errors = []
    texts = {entity_path(r, entity): (r, (root / entity_path(r, entity)).read_text("utf-8"))
             for r in rules if r.per == "entity"}
    for path, (rule, text) in texts.items():
        if mentions_field(rule.template, entity, field) and field.name not in text:
            errors.append(f"{path} does not name field {field.name}")
        if old in text:
            errors.append(f"{path} still names field {old}")
    block = table_block((root / "sql/001_tables.sql").read_text("utf-8"), entity.table)
    if field.name not in block or old in block:
        errors.append(f"sql/001_tables.sql table {entity.table} does not show the rename "
                      f"{old} -> {field.name}")
    return errors


def tree_digest(root: Path) -> tuple[str, list[str]]:
    """SHA-256 over every file's relative path and bytes, and the sorted paths."""
    paths = []
    for directory, _, files in os.walk(root):
        rel = os.path.relpath(directory, root)
        paths += [f if rel == "." else f"{rel}/{f}".replace(os.sep, "/") for f in files]
    paths.sort()
    h = hashlib.sha256()
    for path in paths:
        h.update(path.encode("utf-8") + b"\0")
        h.update((root / path).read_bytes())
        h.update(b"\0")
    return h.hexdigest(), paths


def check_tree(root: Path, expected: dict[str, str]) -> tuple[str, list[str]]:
    """(tree digest, errors): the tree holds exactly the expected artifacts and
    the manifest."""
    digest, paths = tree_digest(root)
    wanted = sorted([*expected, MANIFEST])
    if paths == wanted:
        return digest, []
    extra = sorted(set(paths) - set(wanted))[:3]
    missing = sorted(set(wanted) - set(paths))[:3]
    return digest, [f"output tree differs from the expected artifact set: "
                    f"extra {extra}, missing {missing}"]


def expected_advisories(spec: ModelSpec) -> list[tuple[str, str, tuple[str, ...]]]:
    """(code, subject, entity names) of every advisory `sfgen lint` should give:
    one per constraint kind that only one or two entities use. No language
    goes unused, since `models.entity_xml` names every entity in every
    language of the model."""
    usage: dict[str, set[str]] = {}
    for entity in spec.entities:
        for c in entity.constraints:
            key = f"TwoFields/{c.relationship}" if c.kind == "TwoFields" else c.kind
            usage.setdefault(key, set()).add(entity.name)
    return sorted(("ADV_RULE_OF_THREE", key, tuple(sorted(names)))
                  for key, names in usage.items() if len(names) <= 2)


def check_lint(stdout: str, stderr: str, spec: ModelSpec) -> list[str]:
    expected = expected_advisories(spec)
    lines = stdout.splitlines()
    advice = [line for line in lines if line.startswith("advice ")]
    errors = []
    if stderr:
        errors.append(f"lint wrote to stderr: {stderr[:200]!r}")
    if len(lines) != len(expected) + 1 or lines[-1] != f"{len(expected)} advisories":
        errors.append(f"lint printed {len(lines)} lines, expected {len(expected)} advisories "
                      "and the count")
    for (code, subject, names), line in zip(expected, advice):
        if not line.startswith(f"advice {code} [{subject}]: ") \
                or not all(name in line for name in names):
            errors.append(f"advisory {line!r} is not {code} [{subject}] for {names}")
    return errors
