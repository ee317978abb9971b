"""Generated-vs-handcrafted measurement over an output tree, plus model lint
advisories (including the rule-of-three handcrafting heuristic)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .loader import Diagnostic, Severity
from .model import ApplicationModel, ConstraintKind
from .ownership import MANIFEST_FILENAME, Manifest, Ownership, digest

ADV_RULE_OF_THREE = "ADV_RULE_OF_THREE"
ADV_UNUSED_LANGUAGE = "ADV_UNUSED_LANGUAGE"


@dataclass(frozen=True)
class StatsReport:
    generatedBytes: int
    manualBytes: int
    generatedFiles: int
    manualFiles: int
    pctGeneratedBytes: int
    pctManualBytes: int
    pctGeneratedFiles: int
    pctManualFiles: int


def percentages(generated: int, manual: int) -> tuple[int, int]:
    """Integer percentage split, rounded half away from zero; (0, 0) on empty."""
    total = generated + manual
    if total == 0:
        return 0, 0
    return (
        int(math.floor(100 * generated / total + 0.5)),
        int(math.floor(100 * manual / total + 0.5)),
    )


def classify_files(
    listing: Mapping[str, bytes], manifest: Manifest
) -> tuple[set[str], set[str]]:
    """Partition the output tree into (generated, manual) path sets.

    ALWAYS paths count as generated; ONCE paths count as generated only while
    their content still matches the scaffold digest, otherwise the developer
    has taken them over. Files the manifest does not know are manual. The
    manifest file itself is excluded.
    """
    generated: set[str] = set()
    manual: set[str] = set()
    for path, content in listing.items():
        if path == MANIFEST_FILENAME:
            continue
        entry = manifest.entry_of(path)
        if entry is None:
            manual.add(path)
        elif entry.ownership is Ownership.ALWAYS:
            generated.add(path)
        elif digest(content) == entry.sha256:
            generated.add(path)
        else:
            manual.add(path)
    return generated, manual


def compute_report(listing: Mapping[str, bytes], manifest: Manifest) -> StatsReport:
    generated, manual = classify_files(listing, manifest)
    generated_bytes = sum(len(listing[p]) for p in generated)
    manual_bytes = sum(len(listing[p]) for p in manual)
    pct_gb, pct_mb = percentages(generated_bytes, manual_bytes)
    pct_gf, pct_mf = percentages(len(generated), len(manual))
    return StatsReport(
        generatedBytes=generated_bytes,
        manualBytes=manual_bytes,
        generatedFiles=len(generated),
        manualFiles=len(manual),
        pctGeneratedBytes=pct_gb,
        pctManualBytes=pct_mb,
        pctGeneratedFiles=pct_gf,
        pctManualFiles=pct_mf,
    )


def lint_model(model: ApplicationModel) -> list[Diagnostic]:
    """ADVICE diagnostics for a valid model: constraint kinds modeled in fewer
    than three entities (cheaper to handcraft), and declared languages that no
    generated-visible element uses."""
    advisories: list[Diagnostic] = []

    usage: dict[str, set[str]] = {}
    for entity in model.entities:
        for constraint in entity.constraints:
            if constraint.kind is None:
                continue
            if constraint.kind is ConstraintKind.TWO_FIELDS:
                rel = constraint.rel_token or "?"
                key = f"TwoFields/{rel}"
            else:
                key = constraint.kind.value
            usage.setdefault(key, set()).add(entity.name)
    for key, entities in usage.items():
        if 1 <= len(entities) <= 2:
            names = ", ".join(sorted(entities))
            advisories.append(Diagnostic(
                ADV_RULE_OF_THREE, Severity.ADVICE,
                f"constraint kind '{key}' is modeled in only {len(entities)} "
                f"entity(ies) ({names}); handcrafting it is likely cheaper than templating",
                subject=key))

    used_langs: set[str] = set()
    for entity in model.entities:
        if not entity.isActive:
            continue
        tables = [entity.displayNames, entity.pluralNames]
        tables.extend(f.displayNames for f in entity.fields)
        tables.extend(c.errorMessages for c in entity.constraints)
        for table in tables:
            used_langs.update(table.languages())
    for lang in model.languages:
        if lang not in used_langs:
            advisories.append(Diagnostic(
                ADV_UNUSED_LANGUAGE, Severity.ADVICE,
                f"language '{lang}' is declared but never used by any active entity",
                subject=lang))

    advisories.sort(key=lambda a: (a.code, a.subject))
    return advisories
