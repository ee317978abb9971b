"""The three benchmark workloads.

An op is one `sfgen` command run in-process through `sfgen.cli.main(argv)`,
so argv, exit codes and files on disk are all the end-to-end numbers depend
on. `build` makes the seeded input (and primes the output tree where the
workload needs one); `load` re-creates the in-memory description of an input
that `build` already wrote. `prepare(i)` readies op `i` untimed and returns
its argv; `check(i, result)` returns the op's output errors.
"""

from __future__ import annotations

import io
import os
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checks
import models

PACK = Path("src/sfgen/builtin_packs/webstack")


@dataclass
class OpResult:
    code: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str = ""  # exception raised by the op, if any


def run_op(argv: list[str]) -> OpResult:
    from sfgen import cli  # looked up per op, so traced wrappers are seen

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        return OpResult(None, out.getvalue(), err.getvalue(),
                        time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
    return OpResult(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def _ok(result: OpResult) -> list[str]:
    if result.error:
        return [f"op raised {result.error}"]
    if result.code != 0:
        return [f"exit code {result.code}: {result.stderr[-300:]!r}"]
    return []


class Workload:
    name = ""
    shape = ""

    size: tuple[int, ...] = ()  # arguments of make_spec after the seed

    def __init__(self, root: Path, work: Path, seed: int, size: tuple[int, ...] = ()):
        self.size = size or self.size
        self.root = root
        self.work = work
        self.seed = seed
        self.model_path = work / "model.xml"
        self.pack = root / PACK
        self.rules = checks.read_rules(self.pack)
        self.spec: models.ModelSpec | None = None

    @property
    def entities(self) -> int:
        return len(self.spec.entities)

    def make_spec(self) -> models.ModelSpec:
        raise NotImplementedError

    def load(self) -> None:
        self.spec = self.make_spec()

    def build(self) -> None:
        """Write the seeded model and confirm it has zero ERROR diagnostics."""
        self.load()
        self.work.mkdir(parents=True, exist_ok=True)
        self.model_path.write_text(models.to_xml(self.spec), "utf-8")
        result = run_op(["validate", str(self.model_path)])
        if _ok(result) or result.stdout != "0 errors, 0 warnings\n":
            raise RuntimeError(f"{self.name}: seeded model does not validate cleanly: "
                               f"{(result.stdout + result.stderr)[-500:]}")

    def generate_argv(self, out: Path) -> list[str]:
        return ["generate", "--model", str(self.model_path), "--pack", str(self.pack),
                "--out", str(out)]

    def prepare(self, i: int) -> list[str]:
        raise NotImplementedError

    def check(self, i: int, result: OpResult) -> list[str]:
        raise NotImplementedError


class ColdWide(Workload):
    name = "cold_wide"
    shape = "150 entities x 60 fields, 1 language; generate into an empty directory"

    size = (150, 60, 1)

    def make_spec(self) -> models.ModelSpec:
        return models.wide_model(self.seed, *self.size)

    def load(self) -> None:
        super().load()
        self.out = self.work / "out"
        self.expected = checks.expected_artifacts(self.spec, self.rules)
        self.first_digest: str | None = None

    def prepare(self, i: int) -> list[str]:
        shutil.rmtree(self.out, ignore_errors=True)
        return self.generate_argv(self.out)

    def check(self, i: int, result: OpResult) -> list[str]:
        errors = _ok(result)
        if errors:
            return errors
        errors += checks.check_summary(result.stdout, {"CREATE": len(self.expected)})
        digest, tree_errors = checks.check_tree(self.out, self.expected)
        errors += tree_errors
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            errors.append("output tree differs from the first op's on the same input")
        errors += checks.check_constraints_sql(
            (self.out / "sql/002_constraints.sql").read_text("utf-8"), self.spec)
        errors += checks.check_api_json((self.out / "api/api.json").read_text("utf-8"),
                                        self.spec)
        return errors


class RegenNarrow(Workload):
    name = "regen_narrow"
    shape = ("1500 entities x 2 fields, 1 language; regenerate an existing tree after "
             "renaming, then restoring, one field")

    size = (1500,)

    def make_spec(self) -> models.ModelSpec:
        return models.narrow_model(self.seed, *self.size)

    def load(self) -> None:
        super().load()
        self.out = self.work / "out"
        self.expected = checks.expected_artifacts(self.spec, self.rules)
        self.head, self.chunks, self.tail = models.document_parts(self.spec)
        self.edits = models.edit_sequence(self.spec, self.seed)
        self.base_digest: str | None = None
        self.current: tuple[models.Edit, models.ModelSpec] | None = None

    def build(self) -> None:
        """Also primes the output tree with one generation of the base model."""
        super().build()
        shutil.rmtree(self.out, ignore_errors=True)
        result = run_op(self.generate_argv(self.out))
        errors = _ok(result) or checks.check_summary(
            result.stdout, {"CREATE": len(self.expected)})
        if errors:
            raise RuntimeError(f"{self.name}: priming failed: {errors}")

    def prepare(self, i: int) -> list[str]:
        if self.base_digest is None:  # the primed tree, before any edit
            self.base_digest = checks.tree_digest(self.out)[0]
        edit = next(self.edits)
        entity = self.spec.entities[edit.entity_index]
        if edit.new != entity.fields[edit.field_index].name:
            entity = models.rename_field(entity, edit.field_index, edit.new)
        chunks = list(self.chunks)
        chunks[edit.entity_index] = models.entity_xml(entity, self.spec.languages)
        self.model_path.write_text(self.head + "".join(chunks) + self.tail, "utf-8")
        entities = list(self.spec.entities)
        entities[edit.entity_index] = entity
        self.current = (edit, models.ModelSpec(self.spec.app_name, self.spec.languages,
                                               tuple(entities)))
        # In the edit loop the tree being regenerated has long been on disk;
        # a freshly primed one is still in the page cache. Without this flush,
        # replacing never-written files made each entity's first edit about
        # 0.25 s faster than its restore on ext4, and the ops fell into two
        # groups with the median between them.
        for path in [*checks.rewrite_set(self.rules, entity, entity.fields[edit.field_index]),
                     checks.MANIFEST]:
            fd = os.open(self.out / path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        return self.generate_argv(self.out)

    def check(self, i: int, result: OpResult) -> list[str]:
        errors = _ok(result)
        if errors:
            return errors
        edit, spec = self.current
        entity = spec.entities[edit.entity_index]
        field = entity.fields[edit.field_index]
        rewritten = checks.rewrite_set(self.rules, entity, field)
        once = sum(1 for o in self.expected.values() if o == "once")
        errors += checks.check_summary(result.stdout, {
            "OVERWRITE": len(rewritten), "SKIP_ONCE": once,
            "SKIP_UNCHANGED": len(self.expected) - once - len(rewritten)})
        errors += checks.check_rename(self.out, self.rules, entity, field, edit.old)
        errors += checks.check_constraints_sql(
            (self.out / "sql/002_constraints.sql").read_text("utf-8"), spec)
        errors += checks.check_api_json((self.out / "api/api.json").read_text("utf-8"), spec)
        restored = field == self.spec.entities[edit.entity_index].fields[edit.field_index]
        if restored:  # the same input as the primed tree, so the same tree
            digest, tree_errors = checks.check_tree(self.out, self.expected)
            errors += tree_errors
            if digest != self.base_digest:
                errors.append("restored tree differs from the primed tree")
        return errors


class CheckMultilang(Workload):
    name = "check_multilang"
    shape = "1000 entities x 20 fields, 3 languages; sfgen lint (parse, bind, validate, lint)"

    size = (1000, 20, 3)

    def make_spec(self) -> models.ModelSpec:
        return models.wide_model(self.seed, *self.size)

    def load(self) -> None:
        super().load()
        self.first_stdout: str | None = None

    def prepare(self, i: int) -> list[str]:
        return ["lint", "--model", str(self.model_path)]

    def check(self, i: int, result: OpResult) -> list[str]:
        errors = _ok(result) or checks.check_lint(result.stdout, result.stderr, self.spec)
        if self.first_stdout is None:
            self.first_stdout = result.stdout
        elif result.stdout != self.first_stdout:
            errors.append("lint output differs from the first op's on the same input")
        return errors


WORKLOADS = {w.name: w for w in (ColdWide, RegenNarrow, CheckMultilang)}
