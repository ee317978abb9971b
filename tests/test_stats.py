import dataclasses

from hypothesis import given, strategies as st

from sfgen.loader import load_model
from sfgen.model import ApplicationModel
from sfgen.ownership import (
    MANIFEST_FILENAME,
    Manifest,
    ManifestEntry,
    Ownership,
    digest,
)
from sfgen.stats import (
    ADV_RULE_OF_THREE,
    ADV_UNUSED_LANGUAGE,
    classify_files,
    compute_report,
    lint_model,
    percentages,
)


def manifest_for(listing, once=()):
    entries = tuple(
        ManifestEntry(p, Ownership.ONCE if p in once else Ownership.ALWAYS, digest(c))
        for p, c in sorted(listing.items())
    )
    return Manifest(entries=entries)


# -- percentages --------------------------------------------------------------

def test_percentages_reference_rows():
    # the measured newsboard application: bytes then file counts
    assert percentages(9440, 686) == (93, 7)
    assert percentages(915, 148) == (86, 14)


def test_percentages_edges():
    assert percentages(0, 0) == (0, 0)
    assert percentages(1, 0) == (100, 0)
    assert percentages(0, 1) == (0, 100)
    assert percentages(1, 1) == (50, 50)
    # .5 rounds away from zero on both sides, so halves can sum to 101
    assert percentages(1, 3) == (25, 75)


@given(g=st.integers(min_value=0, max_value=10**9), m=st.integers(min_value=0, max_value=10**9))
def test_percentages_properties(g, m):
    pg, pm = percentages(g, m)
    assert 0 <= pg <= 100 and 0 <= pm <= 100
    if g + m > 0:
        assert pg + pm in (100, 101)
    # symmetry
    assert percentages(m, g) == (pm, pg)


# -- classification -----------------------------------------------------------

def test_classify_partition():
    listing = {"a.sql": b"gen", "b.js": b"scaffold", "notes.txt": b"mine"}
    manifest = manifest_for({"a.sql": b"gen", "b.js": b"scaffold"}, once={"b.js"})
    generated, manual = classify_files(listing, manifest)
    assert generated == {"a.sql", "b.js"}
    assert manual == {"notes.txt"}
    assert generated.isdisjoint(manual)


def test_edited_once_file_counts_as_manual():
    manifest = manifest_for({"b.js": b"scaffold"}, once={"b.js"})
    generated, manual = classify_files({"b.js": b"rewritten by hand"}, manifest)
    assert generated == set()
    assert manual == {"b.js"}


def test_duplicate_manifest_entries_read_as_plan_writes_reads_them():
    # the first entry for a path wins, in stats as in plan_writes
    manifest = Manifest(entries=(
        ManifestEntry("b.js", Ownership.ONCE, digest(b"scaffold")),
        ManifestEntry("b.js", Ownership.ONCE, digest(b"other")),
    ))
    assert manifest.entry_of("b.js").sha256 == digest(b"scaffold")
    generated, manual = classify_files({"b.js": b"scaffold"}, manifest)
    assert generated == {"b.js"}
    assert manual == set()


def test_manifest_file_excluded():
    listing = {MANIFEST_FILENAME: b"{}", "a.sql": b"x"}
    generated, manual = classify_files(listing, manifest_for({"a.sql": b"x"}))
    assert MANIFEST_FILENAME not in generated | manual


def test_compute_report_counts_bytes_and_files():
    listing = {"a.sql": b"12345", "mine.txt": b"abc"}
    report = compute_report(listing, manifest_for({"a.sql": b"12345"}))
    assert (report.generatedBytes, report.manualBytes) == (5, 3)
    assert (report.generatedFiles, report.manualFiles) == (1, 1)
    assert (report.pctGeneratedBytes, report.pctManualBytes) == (63, 38)
    assert (report.pctGeneratedFiles, report.pctManualFiles) == (50, 50)


@given(st.dictionaries(st.text(st.characters(categories=["Ll"]), min_size=1, max_size=8),
                       st.binary(max_size=32), max_size=8))
def test_classification_total(listing):
    manifest = manifest_for(dict(list(listing.items())[::2]))
    generated, manual = classify_files(listing, manifest)
    assert generated | manual == set(listing) - {MANIFEST_FILENAME}


# -- lint ---------------------------------------------------------------------

def _model_with_unique_in(n_entities):
    parts = []
    for i in range(n_entities):
        parts.append(
            f'<Entity name="E{i}" tableName="T{i}">'
            f'<Field name="ID" type="int" isPK="true"/>'
            f'<Field name="x" type="int"/>'
            f'<Constraint type="Unique"><CField name="x"/></Constraint></Entity>')
    doc = f"<xsource><EntityConfig>{''.join(parts)}</EntityConfig></xsource>".encode()
    model, diagnostics = load_model(doc)
    assert not diagnostics
    return model


def test_rule_of_three_boundaries():
    for n in (1, 2):
        advisories = [a for a in lint_model(_model_with_unique_in(n))
                      if a.code == ADV_RULE_OF_THREE]
        assert len(advisories) == 1
        assert advisories[0].subject == "Unique"
    assert [a for a in lint_model(_model_with_unique_in(3))
            if a.code == ADV_RULE_OF_THREE] == []


def test_two_fields_keyed_per_relationship():
    # le in two entities, ge in one: two separate advisories
    parts = []
    for i, rel in enumerate(["le", "le", "ge"]):
        parts.append(
            f'<Entity name="E{i}" tableName="T{i}">'
            f'<Field name="ID" type="int" isPK="true"/>'
            f'<Field name="a" type="int"/><Field name="b" type="int"/>'
            f'<Constraint type="TwoFields" relationship="{rel}">'
            f'<CField name="a"/><CField name="b"/></Constraint></Entity>')
    doc = f"<xsource><EntityConfig>{''.join(parts)}</EntityConfig></xsource>".encode()
    model, diagnostics = load_model(doc)
    assert not diagnostics
    subjects = [a.subject for a in lint_model(model) if a.code == ADV_RULE_OF_THREE]
    assert subjects == ["TwoFields/ge", "TwoFields/le"]


def test_newsboard_advisories(newsboard_model):
    codes = [(a.code, a.subject) for a in lint_model(newsboard_model)]
    assert (ADV_RULE_OF_THREE, "Unique") in codes
    assert (ADV_RULE_OF_THREE, "TwoFields/le") in codes
    assert all(code != ADV_UNUSED_LANGUAGE for code, _ in codes)


def test_empty_model_lints_clean():
    assert lint_model(ApplicationModel()) == []


def test_language_on_inactive_entity_counts_as_unused():
    # German appears in the model only via the inactive entity, so it is
    # declared (collected from usage order) but reaches no generated output
    doc = (b"<xsource><EntityConfig>"
           b'<Entity name="A" tableName="A">'
           b'<Language name="English"><DisplayName>A</DisplayName></Language>'
           b'<Field name="ID" type="int" isPK="true"/></Entity>'
           b'<Entity name="B" tableName="B" isActive="false">'
           b'<Language name="German"><DisplayName>B</DisplayName></Language>'
           b'<Field name="ID" type="int" isPK="true"/></Entity>'
           b"</EntityConfig></xsource>")
    model, diagnostics = load_model(doc)
    assert not diagnostics
    assert model.languages == ("English", "German")
    unused = [a for a in lint_model(model) if a.code == ADV_UNUSED_LANGUAGE]
    assert [a.subject for a in unused] == ["German"]


def test_lint_pure(newsboard_model):
    before = dataclasses.asdict(newsboard_model)
    assert lint_model(newsboard_model) == lint_model(newsboard_model)
    assert dataclasses.asdict(newsboard_model) == before
