"""Command-line entry point: load -> validate -> generate -> plan -> apply -> stats.

Exit codes: 0 success, 1 validation errors, 2 ownership conflicts, 3 I/O
failure, 4 template/pack errors, 5 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import loader, ownership, packs, stats
from .atl import TemplateRuntimeError
from .loader import Severity
from .xmlsubset import Document, ParseError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFLICT = 2
EXIT_IO = 3
EXIT_TEMPLATE = 4
EXIT_USAGE = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2)
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sfgen", description="Model-driven application scaffold generator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a model document")
    p_validate.add_argument("model", help="path to the model XML file")

    p_generate = sub.add_parser("generate", help="generate all artifacts from a model")
    p_generate.add_argument("--model", required=True, help="path to the model XML file")
    p_generate.add_argument("--pack", required=True, help="template pack directory")
    p_generate.add_argument("--out", required=True, help="output directory")
    p_generate.add_argument("--lang", default="", help="language for localized text")
    p_generate.add_argument("--dry-run", action="store_true",
                            help="print the write plan without touching the filesystem")
    p_generate.add_argument("--force", action="store_true",
                            help="overwrite hand-edited ALWAYS files")

    p_stats = sub.add_parser("stats", help="report generated vs handcrafted code")
    p_stats.add_argument("--out", required=True, help="generated output directory")
    p_stats.add_argument("--json", action="store_true", help="machine-readable output")

    p_lint = sub.add_parser("lint", help="advisory checks on a model")
    p_lint.add_argument("--model", required=True, help="path to the model XML file")
    return parser


def _cannot_read(path, exc: OSError) -> int:
    print(f"error E_IO: cannot read {path}: {exc.strerror}", file=sys.stderr)
    return EXIT_IO


def _cannot_parse(exc: ParseError) -> int:
    print(f"error E_PARSE at {exc.line}:{exc.column}: {exc.reason}", file=sys.stderr)
    return EXIT_VALIDATION


def _load_model(path: str, recorded=None, summaries=None):
    """Returns (model, diagnostics, exit_code); model is None on hard failure.
    `recorded` and `summaries` are as for loader.load_document.

    The file's bytes are bound to no name, so they are freed once the Document
    has decoded them, before binding. Only reading the file raises OSError.
    """
    try:
        model, diagnostics = loader.load_document(Document(Path(path).read_bytes()),
                                                  recorded, summaries)
    except OSError as exc:
        return None, [], _cannot_read(path, exc)
    except ParseError as exc:
        return None, [], _cannot_parse(exc)
    return model, diagnostics, EXIT_OK


def _print_diagnostics(diagnostics) -> tuple[int, int]:
    errors = warnings = 0
    for diag in diagnostics:
        stream = sys.stderr if diag.severity is Severity.ERROR else sys.stdout
        print(str(diag), file=stream)
        if diag.severity is Severity.ERROR:
            errors += 1
        elif diag.severity is Severity.WARNING:
            warnings += 1
    return errors, warnings


def _cmd_validate(args) -> int:
    model, diagnostics, code = _load_model(args.model)
    if model is None:
        return code
    errors, warnings = _print_diagnostics(diagnostics)
    print(f"{errors} errors, {warnings} warnings")
    return EXIT_VALIDATION if errors else EXIT_OK


def _recorded(manifest: Optional[ownership.Manifest]):
    """The entity summaries of `manifest`, where this sfgen wrote them; else None."""
    if manifest is None or manifest.sources != packs._sources_digest().hex():
        return None
    return manifest.summaries


def _cmd_generate(args) -> int:
    # the manifest is read first, so that the model's unchanged entities are
    # not bound; its error is reported after the model's and the pack's
    out_root = Path(args.out)
    try:
        manifest, manifest_error = ownership.load_manifest(out_root), None
    except ownership.ManifestError as exc:
        manifest, manifest_error = None, exc
    summaries: dict[str, loader.Summary] = {}
    model, diagnostics, code = _load_model(
        args.model, None if args.force else _recorded(manifest), summaries)
    if model is None:
        return code
    errors, _ = _print_diagnostics(diagnostics)
    if errors:
        print(f"{errors} validation errors; nothing generated", file=sys.stderr)
        return EXIT_VALIDATION
    if diagnostics:  # summaries are of clean loads only
        summaries.clear()

    # an artifact's file is out_root / path, named as a str for speed
    prefix = "" if str(out_root) == "." else str(out_root).rstrip("/") + "/"
    on_disk: dict[str, Optional[bytes]] = {}  # each file read, None where there is none

    def read(path: str) -> Optional[bytes]:
        content = on_disk[path] = ownership.read_file(prefix + path)
        return content

    try:
        pack = packs.load_pack(packs.read_pack_dir(Path(args.pack)))
        if manifest_error is not None:
            raise manifest_error
        artifacts = packs.generate_all(model, pack, lang=args.lang,
                                       manifest=None if args.force else manifest, read=read)
    except TemplateRuntimeError as exc:
        print(f"error E_TEMPLATE: {exc}", file=sys.stderr)
        return EXIT_TEMPLATE
    except packs.PackError as exc:
        print(f"error E_PACK: {exc}", file=sys.stderr)
        return EXIT_TEMPLATE
    except ownership.ManifestError as exc:
        print(f"error E_MANIFEST: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:  # reading a pack or an output file
        return _cannot_read(exc.filename, exc)
    except ParseError as exc:  # binding a stub whose source a forged summary named
        return _cannot_parse(exc)

    plan = ownership.plan_writes(artifacts, on_disk, manifest, force=args.force,
                                 summaries=summaries, sources=packs._sources_digest().hex())
    conflicts = plan.conflicts()

    if args.dry_run:
        for entry in plan.actions:
            print(f"{entry.action.value:<15} {entry.path} ({entry.reason})")
        if conflicts:
            print(f"{len(conflicts)} conflicts; rerun with --force to overwrite",
                  file=sys.stderr)
            return EXIT_CONFLICT
        return EXIT_OK

    if conflicts:
        for entry in conflicts:
            print(f"conflict: {entry.path} ({entry.reason})", file=sys.stderr)
        print(f"{len(conflicts)} conflicts; rerun with --force to overwrite",
              file=sys.stderr)
        return EXIT_CONFLICT

    try:
        new_manifest = ownership.apply_plan(plan, artifacts, out_root)
        if new_manifest != manifest:
            ownership.save_manifest(new_manifest, out_root)
    except OSError as exc:
        print(f"error E_IO: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_IO

    counts: dict[str, int] = {}
    for entry in plan.actions:
        counts[entry.action.value] = counts.get(entry.action.value, 0) + 1
    summary = ", ".join(f"{n} {action}" for action, n in sorted(counts.items()))
    print(f"generated {len(artifacts)} artifacts: {summary}")
    return EXIT_OK


def _walk_output(out_root: Path) -> dict[str, bytes]:
    return {path.relative_to(out_root).as_posix(): path.read_bytes()
            for path in ownership.walk_files(out_root)}


def _cmd_stats(args) -> int:
    out_root = Path(args.out)
    if not out_root.is_dir():
        print(f"error E_IO: output directory not found: {out_root}", file=sys.stderr)
        return EXIT_IO
    try:
        manifest = ownership.load_manifest(out_root)
    except ownership.ManifestError as exc:
        print(f"error E_MANIFEST: {exc}", file=sys.stderr)
        return EXIT_IO
    if manifest is None:
        print(f"error E_IO: no manifest in {out_root}; run generate first", file=sys.stderr)
        return EXIT_IO

    try:
        listing = _walk_output(out_root)
    except OSError as exc:
        return _cannot_read(exc.filename, exc)
    report = stats.compute_report(listing, manifest)
    if args.json:
        print(json.dumps(dataclasses.asdict(report), indent=2))
    else:
        print(f"{'':<12}{'generated':>12}{'manual':>12}")
        print(f"{'bytes':<12}{report.generatedBytes:>12}{report.manualBytes:>12}")
        print(f"{'bytes %':<12}{report.pctGeneratedBytes:>12}{report.pctManualBytes:>12}")
        print(f"{'files':<12}{report.generatedFiles:>12}{report.manualFiles:>12}")
        print(f"{'files %':<12}{report.pctGeneratedFiles:>12}{report.pctManualFiles:>12}")
    return EXIT_OK


def _cmd_lint(args) -> int:
    model, diagnostics, code = _load_model(args.model)
    if model is None:
        return code
    errors, _ = _print_diagnostics(diagnostics)
    if errors:
        print(f"{errors} validation errors; fix them before linting", file=sys.stderr)
        return EXIT_VALIDATION
    advisories = stats.lint_model(model)
    _print_diagnostics(advisories)
    print(f"{len(advisories)} advisories")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    # a command builds the model, and what it makes of it, once and drops them
    # when it returns: collections would only walk them
    with loader.paused_gc():
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except _UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        handlers = {
            "validate": _cmd_validate,
            "generate": _cmd_generate,
            "stats": _cmd_stats,
            "lint": _cmd_lint,
        }
        return handlers[args.command](args)


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
