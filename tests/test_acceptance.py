"""End-to-end acceptance checks for the generator toolchain.

Each criterion prints one PASS/FAIL line (run with -s to see them) and then
asserts, so a red criterion is visible both in the log and in the pytest
summary. Expected strings and numbers are frozen literals, derived by hand
from the target platforms' conventions, never from the code under test.
"""

import random
import time
import tracemalloc
from pathlib import Path

import pytest

from sfgen import loader, ownership, packs
from sfgen.cli import main
from sfgen.model import ConstraintKind, DATE_TYPES
from sfgen.ownership import Ownership, WriteAction
from sfgen.stats import compute_report, percentages

from conftest import FIXTURES, GOLDEN, render_pack
from randmodels import random_model


def check(cid, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {cid}: {description}")
    assert ok, f"{cid}: {description}"


def generate_cli(out, *extra):
    return main(["generate", "--model", str(FIXTURES / "newsboard.xml"),
                 "--pack", str(packs.builtin_pack_dir()), "--out", str(out), *extra])


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# frozen by hand from the SQL Server comparison operator set
SQL_OPERATORS = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "neq": "<>", "eq": "="}


def expected_check_constraint(table, c):
    f1, f2 = c.cfields
    return (f"ALTER TABLE [dbo].[tbl_{table}] ADD\n"
            f"CONSTRAINT [CK_tbl_{table}_{f1}_{f2}]\n"
            f"CHECK ([{f1}] {SQL_OPERATORS[c.rel_token]} [{f2}])\nGO\n")


def expected_compare_call(entity, c):
    by_name = {f.name: f for f in entity.fields}
    first, second = (by_name[n] for n in c.cfields)
    kind = "dates" if first.type in DATE_TYPES else "strings"
    suffix = "_nullable" if first.nullable or second.nullable else ""
    return (f"validation.vs_compare_{kind}{suffix}("
            f"aspnetForm.ctl00_MainContentplaceholder_ctrl{first.name}, "
            f"aspnetForm.ctl00_MainContentplaceholder_ctrl{second.name}, "
            f"'{c.rel_token}')")


def test_c1_check_constraint_form(vest_model, webstack):
    start = time.perf_counter()
    artifacts = render_pack(vest_model, webstack)
    elapsed = time.perf_counter() - start
    wanted = ("ALTER TABLE [dbo].[tbl_Vest] ADD\n"
              "CONSTRAINT [CK_tbl_Vest_DisplayFrom_DisplayTo]\n"
              "CHECK ([DisplayFrom] <= [DisplayTo])\n"
              "GO\n")
    ok = wanted in artifacts["sql/002_constraints.sql"] and elapsed < 1.0
    check("C1", "two-field CHECK constraint rendered in the exact 4-line form, under 1s", ok)


def test_c2_client_compare_call(vest_model, webstack):
    artifacts = render_pack(vest_model, webstack)
    wanted = ("validation.vs_compare_dates("
              "aspnetForm.ctl00_MainContentplaceholder_ctrlDisplayFrom, "
              "aspnetForm.ctl00_MainContentplaceholder_ctrlDisplayTo, 'le')")
    check("C2", "client validation emits the exact dates-compare call",
          wanted in artifacts["web/validation.js"])


def test_c3_operator_lowering_table():
    from sfgen.atl import sql_operator
    ok = all(sql_operator(tok) == op for tok, op in SQL_OPERATORS.items())
    ok = ok and len(SQL_OPERATORS) == 6
    check("C3", "all six relationship tokens lower to the right SQL operator", ok)


def test_c4_table_script_golden(fakultet_model, webstack):
    artifacts = render_pack(fakultet_model, webstack)
    golden = (GOLDEN / "fakultet_tables.sql").read_text()
    check("C4", "single-entity CREATE TABLE script matches the frozen golden byte for byte",
          artifacts["sql/001_tables.sql"] == golden)


def test_c5_stats_percentages():
    ok = percentages(9440, 686) == (93, 7) and percentages(915, 148) == (86, 14)
    check("C5", "byte and file percentage splits reproduce the reference measurements", ok)


def test_c6_generated_share_with_handwritten_dal(tmp_path):
    out = tmp_path / "out"
    assert generate_cli(out) == 0
    # the developer takes over the two ONCE scaffolds with real implementations
    body = ("// handwritten data-access layer\n"
            "{cls}.prototype.validateBeforeSave = function (row) {{\n"
            "  if (!row) {{ throw new Error('missing row'); }}\n"
            "  return this.checkConstraints(row);\n"
            "}};\n")
    for name in ("Fakultet", "Vest"):
        (out / "dal" / f"{name}.js").write_text(body.format(cls=name))
    listing = {p: c for p, c in tree_bytes(out).items()
               if p != ownership.MANIFEST_FILENAME}
    report = compute_report(listing, ownership.load_manifest(out))
    ok = (report.manualFiles == 2 and report.pctGeneratedBytes >= 90)
    check("C6", f"with handwritten DAL bodies the tree is still "
                f"{report.pctGeneratedBytes}% generated bytes (>= 90 required)", ok)


def test_c7_regeneration_preserves_edits(tmp_path):
    rng = random.Random(20260823)
    ok = True
    for cycle in range(500):
        model = random_model(rng, max_entities=5, max_fields=6)
        if loader.validate_model(model):
            ok = False
            break
        pack = packs.load_pack(packs.read_pack_dir(packs.builtin_pack_dir()))
        artifacts = packs.generate_all(model, pack, lang="")
        root = tmp_path / f"cycle{cycle}"
        plan = ownership.plan_writes(artifacts, {}, None)
        manifest = ownership.apply_plan(plan, artifacts, root)
        ownership.save_manifest(manifest, root)

        once_paths = [a.path for a in artifacts if a.ownership is Ownership.ONCE]
        edits = {}
        for path in rng.sample(once_paths, k=min(len(once_paths), 3)):
            content = f"// edit in cycle {cycle} for {path}\n".encode()
            (root / path).write_bytes(content)
            edits[path] = content

        existing = {a.path: (root / a.path).read_bytes() for a in artifacts}
        plan2 = ownership.plan_writes(artifacts, existing, ownership.load_manifest(root))
        if plan2.conflicts():
            ok = False
            break
        ownership.apply_plan(plan2, artifacts, root)
        if any((root / path).read_bytes() != content for path, content in edits.items()):
            ok = False
            break

    # hand-edited ALWAYS output: refuse without --force, restore with it
    out = tmp_path / "cli"
    assert generate_cli(out) == 0
    tables = out / "sql" / "001_tables.sql"
    original = tables.read_bytes()
    tables.write_bytes(b"-- tampered\n")
    ok = ok and generate_cli(out) == 2
    ok = ok and tables.read_bytes() == b"-- tampered\n"
    ok = ok and generate_cli(out, "--force") == 0
    ok = ok and tables.read_bytes() == original
    check("C7", "500 regeneration cycles keep developer edits; "
                "tampered managed files need --force", ok)


def test_c8_determinism_over_random_models(tmp_path, webstack):
    rng = random.Random(7)
    sizes = [None] * 99 + [(20, 30)]
    ok = True
    for size in sizes:
        model = random_model(rng, force_size=size)
        if loader.validate_model(model):
            ok = False
            break
        first = packs.generate_all(model, webstack, lang="")
        second = packs.generate_all(model, webstack, lang="")
        if first != second:
            ok = False
            break

    out = tmp_path / "out"
    assert generate_cli(out) == 0
    before = tree_bytes(out)
    ok = ok and generate_cli(out, "--dry-run") == 0
    ok = ok and tree_bytes(out) == before
    check("C8", "100 randomized models generate byte-identically twice; "
                "dry runs touch nothing", ok)


def test_c9_vertical_consistency(webstack):
    rng = random.Random(99)
    ok = True
    checked = 0
    for _ in range(40):
        model = random_model(rng, max_entities=8, max_fields=10)
        if loader.validate_model(model):
            ok = False
            break
        artifacts = render_pack(model, webstack, lang="")
        sql = artifacts["sql/002_constraints.sql"]
        js = artifacts["web/validation.js"]
        expected_sql = {}
        expected_js = {}
        for entity in model.entities:
            if not entity.isActive:
                continue
            for c in entity.constraints:
                if c.kind is not ConstraintKind.TWO_FIELDS:
                    continue
                frag = expected_check_constraint(entity.tableName, c)
                expected_sql[frag] = expected_sql.get(frag, 0) + 1
                call = expected_compare_call(entity, c)
                expected_js[call] = expected_js.get(call, 0) + 1
                checked += 1
        if not all(sql.count(f) == n for f, n in expected_sql.items()):
            ok = False
            break
        if not all(js.count(c) == n for c, n in expected_js.items()):
            ok = False
            break
    ok = ok and checked >= 50  # the sample actually exercised the property
    check("C9", f"SQL CHECK and client compare agree for {checked} "
                "randomized two-field constraints", ok)


def test_c10_validator_codes_are_located():
    from test_loader import VALIDATOR_CASES, _wrap
    seen = set()
    ok = True
    for code, entity_xml, _ in VALIDATOR_CASES:
        _, diagnostics = loader.load_model(_wrap(entity_xml))
        hits = [d for d in diagnostics if d.code == code and d.location is not None]
        if not hits:
            ok = False
            break
        seen.add(code)
    # lexical errors carry attribute-precise locations
    from sfgen.xmlsubset import Document
    _, diagnostics = loader.bind_model(Document(_wrap(
        '<Entity name="E" tableName="E">'
        '<Field name="x" type="int" isPK="true" nullable="maybe" length="zero"/></Entity>')))
    for code in (loader.E_BAD_BOOL, loader.E_BAD_INT):
        hits = [d for d in diagnostics if d.code == code and d.location is not None]
        ok = ok and bool(hits)
        seen.add(code)
    check("C10", f"{len(seen)} distinct diagnostic codes all carry source locations", ok)


def test_c11_large_model_performance(webstack):
    model = random_model(random.Random(1234), force_size=(50, 20))
    assert loader.validate_model(model) == []

    start = time.perf_counter()
    artifacts = packs.generate_all(model, webstack, lang="")
    elapsed = time.perf_counter() - start

    tracemalloc.start()
    packs.generate_all(model, webstack, lang="")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    ok = elapsed < 2.0 and peak < 100 * 1024 * 1024 and len(artifacts) > 0
    check("C11", f"50x20 model generated in {elapsed:.2f}s "
                 f"with {peak / 1e6:.1f}MB peak (limits: 2s, 100MB)", ok)
