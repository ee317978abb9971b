"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's own code: each public sfgen function
is replaced, for the duration of a traced op, by a wrapper installed at the
name its caller looks up (for example `sfgen.loader.parse_document`, which is
what `loader.load_model` calls). A name that no longer exists is reported as
absent instead of failing the run.

Spans are kept in memory, each with its parent's id and the op it belongs to,
and written out as JSON when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

OBSERVE = "trace.observe"  # span around the tracer's own counting work


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    op: int
    name: str
    start: float
    end: float
    label: str = ""  # e.g. the template an atl.render span rendered


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: list[Counter] = []  # one per op
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0

    def begin_op(self) -> None:
        self.op += 1
        self.counts.append(Counter())
        self._stack.clear()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.op][name] += amount

    def _open(self) -> tuple[int, Optional[int]]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: Optional[int], name: str, start: float,
               label: str = "") -> None:
        end = self.clock()
        self._stack.pop()
        self.spans.append(Span(sid, parent, self.op, name, start, end, label))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid, parent = self._open()
        start = self.clock()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None,
             label: Optional[Callable] = None) -> Callable:
        """`fn` inside a span named `name`. `observe(tracer, args, result)`
        then runs in its own OBSERVE span, so counting is kept out of every
        layer's self time; `label(args)` tags the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid, parent = tracer._open()
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start, label(args) if label else "")
            if observe is not None:
                with tracer.span(OBSERVE):
                    observe(tracer, args, result)
            return result

        return traced

    def write(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"summary": summary, "counts": [dict(c) for c in self.counts],
                   "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(payload) + "\n", "utf-8")


# ---------------------------------------------------------------------------
# self time

def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start) - covered
    return out


# ---------------------------------------------------------------------------
# the sfgen layers

@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    span: str  # span name: the function's home module and name
    observe: Optional[Callable] = None
    label: Optional[Callable] = None
    counter_only: bool = False  # count calls and bytes, record no span


def _nodes(root: Any) -> int:
    n, stack = 0, [root]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


def _observe_parse(tracer: Tracer, args: tuple, root: Any) -> None:
    tracer.count("xmlsubset.parse_document.bytes", len(args[0]))
    tracer.count("xmlsubset.nodes", _nodes(root))


def _observe_bind(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("loader.diagnostics", len(result[1]))


def _observe_validate(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("loader.diagnostics", len(result))


def _observe_generate(tracer: Tracer, args: tuple, artifacts: Any) -> None:
    tracer.count("packs.artifacts", len(artifacts))


def _observe_render(tracer: Tracer, args: tuple, text: str) -> None:
    tracer.count("atl.render.calls")
    tracer.count("atl.render.out_bytes", len(text.encode("utf-8")))


def _observe_plan(tracer: Tracer, args: tuple, plan: Any) -> None:
    artifacts, existing = args[0], args[1]
    tracer.count("atl.render.unchanged",
                 sum(1 for a in artifacts if existing.get(a.path) == a.content))
    for entry in plan.actions:
        tracer.count(f"ownership.plan.{entry.action.value}")


def _observe_apply(tracer: Tracer, args: tuple, manifest: Any) -> None:
    plan, artifacts = args[0], args[1]
    sizes = {a.path: len(a.content) for a in artifacts}
    for entry in plan.actions:
        if entry.action.value in ("CREATE", "OVERWRITE"):
            tracer.count("ownership.apply_plan.files_written")
            tracer.count("ownership.apply_plan.bytes_written", sizes[entry.path])


TARGETS = (
    Target("sfgen.cli", "main", "cli.main"),
    Target("sfgen.loader", "parse_document", "xmlsubset.parse_document", _observe_parse),
    Target("sfgen.loader", "bind_model", "loader.bind_model", _observe_bind),
    Target("sfgen.loader", "validate_model", "loader.validate_model", _observe_validate),
    Target("sfgen.stats", "lint_model", "stats.lint_model"),
    Target("sfgen.packs", "read_pack_dir", "packs.read_pack_dir"),
    Target("sfgen.packs", "load_pack", "packs.load_pack"),
    Target("sfgen.packs", "generate_all", "packs.generate_all", _observe_generate),
    Target("sfgen.atl", "render", "atl.render", _observe_render,
           label=lambda args: getattr(args[0], "name", "")),
    Target("sfgen.ownership", "load_manifest", "ownership.load_manifest"),
    Target("sfgen.ownership", "plan_writes", "ownership.plan_writes", _observe_plan),
    Target("sfgen.ownership", "digest", "ownership.digest", counter_only=True),
    Target("sfgen.ownership", "apply_plan", "ownership.apply_plan", _observe_apply),
    Target("sfgen.ownership", "save_manifest", "ownership.save_manifest"),
)


def _counted(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def counted(content: bytes) -> Any:
        tracer.count(f"{name}.calls")
        tracer.count(f"{name}.bytes", len(content))
        return fn(content)
    return counted


class Instrumentation:
    """Installs the tracer's wrappers on the sfgen layers for one op at a time."""

    def __init__(self, tracer: Tracer, targets: Iterable[Target] = TARGETS):
        self.tracer = tracer
        self.absent: list[str] = []
        self._patches: list[tuple[Any, str, Callable, Callable]] = []
        for t in targets:
            try:
                module = importlib.import_module(t.module)
                original = getattr(module, t.attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            wrapper = (_counted(tracer, t.span, original) if t.counter_only
                       else tracer.wrap(t.span, original, t.observe, t.label))
            self._patches.append((module, t.attr, original, wrapper))

    @contextmanager
    def installed(self) -> Iterator[None]:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

TEMPLATES = ("tables.sql", "constraints.sql", "procs.sql", "dal_base.js", "dal_derived.js",
             "edit.html", "list.html", "validation.js", "docs.md", "api.json")
PLAN_ACTIONS = ("CREATE", "OVERWRITE", "SKIP_ONCE", "SKIP_UNCHANGED", "CONFLICT")
# span name -> reported as total milliseconds per op
TIMED = ("xmlsubset.parse_document", "loader.bind_model", "loader.validate_model",
         "stats.lint_model", "packs.read_pack_dir", "packs.load_pack", "atl.render",
         "ownership.load_manifest", "ownership.plan_writes", "ownership.apply_plan",
         "ownership.save_manifest", OBSERVE)
SELF_TIMED = ("packs.generate_all", "cli.main")
COUNTED = ("xmlsubset.nodes", "xmlsubset.parse_document.bytes", "loader.diagnostics",
           "packs.artifacts", "atl.render.calls", "atl.render.out_bytes",
           "ownership.digest.calls", "ownership.digest.bytes",
           "ownership.apply_plan.files_written", "ownership.apply_plan.bytes_written")


def op_layers(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer figures of one traced op (times in ms)."""
    selfs = self_times(spans)
    total: Counter = Counter()
    own: Counter = Counter()
    for s in spans:
        total[s.name] += s.end - s.start
        own[s.name] += selfs[s.id]
        if s.name == "atl.render":
            total[f"atl.render.{s.label.removesuffix('.atl')}"] += s.end - s.start
    out = {f"{name}.ms": total[name] * 1e3 for name in TIMED}
    out.update({f"atl.render.{t}.ms": total[f"atl.render.{t}"] * 1e3 for t in TEMPLATES})
    out.update({f"{name}.self_ms": own[name] * 1e3 for name in SELF_TIMED})
    out.update({name: float(counts[name]) for name in COUNTED})
    out.update({f"ownership.plan.{a}": float(counts[f"ownership.plan.{a}"])
                for a in PLAN_ACTIONS})
    parse_s = total["xmlsubset.parse_document"]
    out["xmlsubset.parse_document.mb_per_s"] = (
        counts["xmlsubset.parse_document.bytes"] / 1e6 / parse_s if parse_s else 0.0)
    calls = counts["atl.render.calls"]
    out["atl.render.unchanged_ratio"] = counts["atl.render.unchanged"] / calls if calls else 0.0
    out["trace.self_sum_ms"] = sum(selfs.values()) * 1e3
    out["trace.spans"] = float(len(spans))
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Median over the traced ops of each per-op figure."""
    by_op: dict[int, list[Span]] = {}
    for s in tracer.spans:
        by_op.setdefault(s.op, []).append(s)
    per_op = [op_layers(by_op.get(op, []), tracer.counts[op])
              for op in range(len(tracer.counts))]
    if not per_op:
        return {}
    return {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
