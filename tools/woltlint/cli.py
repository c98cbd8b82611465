"""Command-line front end: ``python -m tools.woltlint src tests``.

Exit status: 0 — clean (after inline suppressions); 1 — findings
reported; 2 — usage or I/O error.  An inline ``# woltlint: disable=``
with a justification is the only way to accept a finding.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from . import __version__
from .analyzer import analyze_paths
from .cache import DEFAULT_CACHE_FILE, LintCache, tool_salt
from .findings import Finding
from .fixers import fix_files, fixable
from .rules import RULES
from .sarif import to_sarif

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="woltlint",
        description=("AST-based invariant checker for the WOLT "
                     "reproduction (see docs/STATIC_ANALYSIS.md)"))
    parser.add_argument("paths", nargs="*", default=["src", "tests"],
                        help="files or directories to analyze "
                             "(default: src tests)")
    parser.add_argument("--root", default=".",
                        help="directory finding paths are reported "
                             "relative to (default: cwd)")
    parser.add_argument("--format", choices=("human", "json", "sarif"),
                        default="human", help="output format")
    parser.add_argument("--output", metavar="FILE",
                        help="write the report to FILE instead of "
                             "stdout")
    parser.add_argument("--fix", action="store_true",
                        help="apply mechanical fixes (sorted() wraps) "
                             "for reported findings, then re-analyze")
    parser.add_argument("--cache", action="store_true",
                        help="reuse per-file results across runs via "
                             f"{DEFAULT_CACHE_FILE} (content-hash "
                             "keyed; any woltlint source change "
                             "invalidates it)")
    parser.add_argument("--cache-file", metavar="FILE",
                        help="cache file location (implies --cache)")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--ignore", metavar="RULES",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def _list_rules() -> str:
    lines = []
    for code in sorted(RULES):
        rule = RULES[code]
        lines.append(f"{code} {rule.name}: {rule.description}")
        lines.append(f"     rationale: {rule.rationale}")
    return "\n".join(lines)


def _emit_human(reported: List[Finding], stream) -> None:
    for finding in reported:
        print(finding.render(), file=stream)
    print(f"woltlint: {len(reported)} finding(s)"
          if reported else "woltlint: clean", file=stream)


def _emit_json(reported: List[Finding], stream) -> None:
    payload = {
        "version": 1,
        "findings": [f.to_json() for f in reported],
        "summary": {"reported": len(reported)},
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _emit_sarif(reported: List[Finding], stream) -> None:
    json.dump(to_sarif(reported, tool_version=__version__), stream,
              indent=2)
    stream.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        print(f"woltlint: path not found: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    cache = None
    if args.cache or args.cache_file:
        cache_file = args.cache_file or DEFAULT_CACHE_FILE
        cache = LintCache(cache_file, tool_salt(select, ignore))

    findings = analyze_paths(args.paths, root=args.root,
                             select=select, ignore=ignore, cache=cache)

    if args.fix:
        applied = fix_files(findings, root=args.root)
        if applied:
            total = sum(applied.values())
            for path, count in sorted(applied.items()):
                print(f"woltlint: fixed {count} finding(s) in {path}",
                      file=sys.stderr)
            print(f"woltlint: applied {total} fix(es); re-analyzing",
                  file=sys.stderr)
            findings = analyze_paths(args.paths, root=args.root,
                                     select=select, ignore=ignore,
                                     cache=cache)
        elif fixable(findings):
            print("woltlint: no fixes applied (stale coordinates?)",
                  file=sys.stderr)

    stream = sys.stdout
    close_stream = False
    if args.output:
        try:
            # woltlint: disable=W008 — a lint report is not a resumable
            # artifact: nothing trusts a torn one, and the next run
            # rewrites it from scratch.
            stream = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            print(f"woltlint: cannot write {args.output}: {exc}",
                  file=sys.stderr)
            return 2
        close_stream = True
    try:
        if args.format == "json":
            _emit_json(findings, stream)
        elif args.format == "sarif":
            _emit_sarif(findings, stream)
        else:
            _emit_human(findings, stream)
    finally:
        if close_stream:
            stream.close()
    return 1 if findings else 0
