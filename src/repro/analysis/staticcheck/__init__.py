"""Contract-enforcing static analysis for the reservation stack.

The runtime's correctness story rests on disciplines nothing checked
before runtime: every hot-path mutation must append an undo entry to
the arena journal, and every backend must produce bit-identical
placements. This package checks those contracts at review time with an
AST pass — ``repro lint`` / ``scripts/run_staticcheck.py`` — instead of
leaving them to shrunken differential-harness counterexamples.

Public surface:

- :func:`analyze_paths` / :func:`analyze_source` — run rules, get a
  :class:`Report` of :class:`Finding` objects.
- :func:`registered_rules` / :func:`resolve_rules` / :func:`register`
  — the rule registry (see ``docs/STATIC_ANALYSIS.md`` for how to add
  a rule).
- :func:`main` — the ``repro lint`` command implementation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .baseline import (
    DEFAULT_BASELINE,
    RatchetResult,
    check_ratchet,
    load_baseline,
    write_baseline,
)
from .callgraph import HOT_ENTRY_POINTS, Program, build_program
from .engine import (
    Rule,
    SourceFile,
    analyze_paths,
    analyze_source,
    register,
    registered_rules,
    resolve_rules,
    scope_of,
)
from .report import RULES_VERSION, Finding, Report

__all__ = [
    "DEFAULT_BASELINE",
    "Finding",
    "HOT_ENTRY_POINTS",
    "Program",
    "RULES_VERSION",
    "RatchetResult",
    "Report",
    "Rule",
    "SourceFile",
    "analyze_paths",
    "analyze_source",
    "build_parser",
    "build_program",
    "check_ratchet",
    "load_baseline",
    "main",
    "register",
    "registered_rules",
    "resolve_rules",
    "scope_of",
    "write_baseline",
]

#: default analysis root: the repro package this file lives inside
DEFAULT_ROOT = Path(__file__).resolve().parent.parent.parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="repo-specific contract linter (journal coverage, "
                    "determinism, rollback safety, "
                    "typing coverage) plus the ratcheted interprocedural "
                    "hot-path rules (--ratchet)",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help=f"files or directories to check (default: {DEFAULT_ROOT})")
    parser.add_argument(
        "--rules", default="",
        help="comma-separated rule subset (default: every non-ratcheted "
             "rule; with --ratchet, every ratcheted rule)")
    parser.add_argument(
        "--select", default="",
        help="comma-separated rule families to keep from the resolved "
             "set (so a CI job runs one family group without "
             "re-running every rule)")
    parser.add_argument(
        "--format", default="text", choices=["text", "json"],
        dest="format_", help="report format")
    parser.add_argument(
        "--strict", action="store_true",
        help="fail on warnings too, not just errors")
    parser.add_argument(
        "--ratchet", action="store_true",
        help="compare findings against the checked-in baseline instead "
             "of zero: fail on new findings and on a stale-loose baseline")
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help=f"ratchet baseline file (default: {DEFAULT_BASELINE})")
    parser.add_argument(
        "--write-baseline", action="store_true", dest="write_baseline",
        help="regenerate the baseline from this run's findings and exit")
    parser.add_argument(
        "--list-rules", action="store_true", dest="list_rules",
        help="list registered rules and exit")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for name, rule in sorted(registered_rules().items()):
            scopes = ", ".join(rule.scopes) if rule.scopes else "all files"
            mark = " (ratcheted)" if rule.ratcheted else ""
            print(f"{name:20s} [{scopes}]{mark}\n    {rule.description}")
        return 0
    ratchet_mode = args.ratchet or args.write_baseline
    names = ([n.strip() for n in args.rules.split(",") if n.strip()]
             or None)
    select = ([n.strip() for n in args.select.split(",") if n.strip()]
              or None)
    try:
        if names is None and ratchet_mode:
            # the ratchet covers exactly the ratcheted rule families
            rules = [r for r in resolve_rules(include_ratcheted=True,
                                              select=select)
                     if r.ratcheted]
        else:
            rules = resolve_rules(names, include_ratcheted=ratchet_mode,
                                  select=select)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    paths = args.paths or [DEFAULT_ROOT]
    report = analyze_paths(paths, rules)
    if args.write_baseline:
        write_baseline(report, args.baseline)
        print(f"baseline written to {args.baseline} "
              f"({len(report.findings)} finding(s), "
              f"{report.files_checked} file(s))")
        return 0
    ratchet = check_ratchet(report, args.baseline) if args.ratchet else None
    if args.format_ == "json":
        extra = {"ratchet": ratchet.to_dict()} if ratchet else None
        print(report.to_json(extra=extra))
    else:
        print(report.to_text())
        if ratchet is not None:
            print(ratchet.to_text())
    if ratchet is not None:
        return 0 if ratchet.ok else 1
    return 0 if report.ok(strict=args.strict) else 1


if __name__ == "__main__":  # pragma: no cover - module entry point
    raise SystemExit(main())
