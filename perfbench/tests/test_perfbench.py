"""Tests of the benchmark itself: generator, output checks, span arithmetic
and a tiny-model run of every workload.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import models  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {"cold_wide": (4, 12, 1), "regen_narrow": (6,), "check_multilang": (5, 12, 3)}


def _shape(spec: models.ModelSpec) -> tuple:
    return (len(spec.entities), len(spec.active_entities),
            tuple(len(e.fields) for e in spec.entities),
            sorted(len(e.constraints) for e in spec.entities))


@pytest.mark.parametrize("make", [
    lambda seed: models.wide_model(seed, 20, 15, 3),
    lambda seed: models.narrow_model(seed, 40),
])
def test_generator_is_deterministic_per_seed(make):
    assert models.to_xml(make(7)) == models.to_xml(make(7))
    assert models.to_xml(make(7)) != models.to_xml(make(8))
    assert _shape(make(7)) == _shape(make(8))


def test_edit_sequence_is_deterministic_and_alternates():
    spec = models.narrow_model(3, 30)
    first = [e for e, _ in zip(models.edit_sequence(spec, 3), range(10))]
    again = [e for e, _ in zip(models.edit_sequence(spec, 3), range(10))]
    assert first == again
    for rename, restore in zip(first[::2], first[1::2]):
        assert spec.entities[rename.entity_index].active
        assert (restore.old, restore.new) == (rename.new, rename.old)
        assert rename.old not in rename.new


@pytest.mark.parametrize("spec", [models.wide_model(5, 12, 15, 3), models.narrow_model(5, 30)])
def test_generated_models_load_without_errors(spec):
    from sfgen import loader

    model, diagnostics = loader.load_model(models.to_xml(spec).encode("utf-8"))
    assert diagnostics == []
    assert [e.name for e in model.entities] == [e.name for e in spec.entities]


@pytest.fixture
def generated(tmp_path):
    """A tiny cold_wide model generated once; returns (workload, output dir)."""
    w = workloads.ColdWide(ROOT, tmp_path, 2, TINY["cold_wide"])
    w.build()
    result = workloads.run_op(w.prepare(0))
    assert w.check(0, result) == []
    return w, w.out


def test_tampered_constraints_sql_fails(generated):
    w, out = generated
    path = out / "sql/002_constraints.sql"
    data = bytearray(path.read_bytes())
    at = data.index(b"CHECK ([") + len(b"CHECK ([")
    data[at] ^= 0x01
    path.write_bytes(bytes(data))
    assert checks.check_constraints_sql(path.read_text("utf-8"), w.spec)
    result = workloads.OpResult(0, f"generated {len(w.expected)} artifacts: "
                                   f"{len(w.expected)} CREATE\n", "", 0.1)
    assert any("CHECK" in e for e in w.check(1, result))


def test_tampered_tree_and_api_json_fail(generated):
    w, out = generated
    api = out / "api/api.json"
    api.write_text(api.read_text("utf-8").replace('"name"', "name", 1), "utf-8")
    assert checks.check_api_json(api.read_text("utf-8"), w.spec)
    (out / "extra.txt").write_text("hand-written", "utf-8")
    assert checks.check_tree(out, w.expected)[1]


def test_summary_check_rejects_conflicts_and_wrong_counts():
    ok = "generated 3 artifacts: 1 OVERWRITE, 2 SKIP_UNCHANGED\n"
    assert checks.check_summary(ok, {"OVERWRITE": 1, "SKIP_UNCHANGED": 2, "CREATE": 0}) == []
    assert checks.check_summary(ok, {"OVERWRITE": 2, "SKIP_UNCHANGED": 1})
    conflict = "generated 3 artifacts: 1 CONFLICT, 2 SKIP_UNCHANGED\n"
    assert checks.check_summary(conflict, {"OVERWRITE": 1, "SKIP_UNCHANGED": 2})
    assert checks.check_summary("", {"CREATE": 1})


def test_lint_check_derives_the_rare_relationship_advisory():
    spec = models.wide_model(4, 6, 12, 3)
    expected = checks.expected_advisories(spec)
    rare = f"TwoFields/{models.RARE_RELATIONSHIP}"
    assert ("ADV_RULE_OF_THREE", rare) in [(code, subject) for code, subject, _ in expected]
    lines = [f"advice {code} [{subject}]: modeled in only ({', '.join(names)})"
             for code, subject, names in expected]
    stdout = "\n".join(lines) + f"\n{len(lines)} advisories\n"
    assert checks.check_lint(stdout, "", spec) == []
    assert checks.check_lint(stdout.replace(rare, "Unique"), "", spec)
    assert checks.check_lint("0 advisories\n", "", spec)


def _span(sid, parent, start, end, name="s"):
    return tracing.Span(sid, parent, 0, name, start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),  # overlaps span 1: the union 1..5 counts once
        _span(3, 0, 6.0, 7.0),
        _span(4, 2, 2.5, 3.5),
        _span(5, 3, 6.5, 8.0),  # runs past its parent: clipped to 6.5..7
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0 - 0.5)
    assert selfs[4] == pytest.approx(1.0)


def test_self_times_of_a_nested_tree_sum_to_the_root():
    spans = [_span(0, None, 0.0, 9.0), _span(1, 0, 1.0, 4.0), _span(2, 1, 2.0, 3.0),
             _span(3, 0, 5.0, 8.0)]
    assert sum(tracing.self_times(spans).values()) == pytest.approx(9.0)


def test_tracer_nests_spans_and_keeps_observers_out_of_self_time():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.begin_op()
    inner = tracer.wrap("inner", lambda x: x * 2,
                        observe=lambda t, args, result: t.count("seen", result))
    outer = tracer.wrap("outer", lambda: inner(3) + inner(4))
    assert outer() == 14
    by_name = Counter(s.name for s in tracer.spans)
    assert by_name == {"outer": 1, "inner": 2, tracing.OBSERVE: 2}
    root = next(s for s in tracer.spans if s.name == "outer")
    assert all(s.parent == root.id for s in tracer.spans if s is not root)
    assert tracer.counts[0]["seen"] == 14
    assert sum(tracing.self_times(tracer.spans).values()) == root.end - root.start


def test_missing_patch_target_is_reported_absent():
    targets = (tracing.Target("sfgen.cli", "no_such_function", "cli.none"),
               tracing.Target("sfgen.no_such_module", "main", "x.main"))
    inst = tracing.Instrumentation(tracing.Tracer(), targets)
    assert inst.absent == ["sfgen.cli.no_such_function", "sfgen.no_such_module.main"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    assert run.tail(samples) == (30.0, 75.0)
    assert run.tail(samples[:11]) == (1.0, 100.0 / 11)
    assert run.tail(samples[:5]) == (5.0, 100.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(name, tmp_path):
    w = workloads.WORKLOADS[name](ROOT, tmp_path, 9, TINY[name])
    w.build()
    result = run.measure(w, 0.0, None)
    assert result["failed"] == 0, result["failures"]
    assert len(result["samples"][False]) >= run.MIN_SAMPLES

    w = workloads.WORKLOADS[name](ROOT, tmp_path / "traced", 9, TINY[name])
    w.build()
    inst = tracing.Instrumentation(tracing.Tracer())
    result = run.measure(w, 0.0, inst)
    assert result["failed"] == 0, result["failures"]
    assert inst.absent == []
    metrics, _ = run.per_layer(inst, result)
    assert set(metrics) == {n for n, _, _ in run.PER_LAYER}
    assert metrics["xmlsubset.parse_document.ms"][0] > 0
    if name == "check_multilang":
        assert metrics["stats.lint_model.ms"][0] > 0
        assert metrics["atl.render.calls"][0] == 0
    else:
        assert metrics["atl.render.calls"][0] == len(w.expected)
        assert metrics["ownership.plan.CONFLICT"][0] == 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"op_p50_ms", "op_tail_ms", "entities_per_s", "peak_rss_mb", "setup_s"}


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "cold_wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
