"""File walking, suppression comments, and rule dispatch.

Analysis runs in two passes:

1. **Per-file pass** — each file's AST goes through every single-file
   rule (W001-W009), exactly as in woltlint v1.
2. **Project pass** — all parsed trees are linked into a
   :class:`~.projectmodel.ProjectModel` and the
   :class:`~.rules.ProjectRule` subclasses (W010+) run once over the
   whole set.  Their findings land on concrete file/line locations, so
   suppressions apply unchanged.

Suppression syntax (mirrors the familiar ``noqa`` shape):

* ``some_code()  # woltlint: disable=W001`` — suppresses the listed
  rule(s) on that line.
* A suppression anywhere on a **multi-line statement** (a trailing
  comment on any continuation line of a parenthesized call, for
  example) covers the whole statement — findings always anchor to the
  statement's first line, so the comment works wherever it is
  physically placed.
* A standalone ``# woltlint: disable=W003`` comment line also covers
  the next statement, so a suppression can sit above the code it
  excuses together with its justification — which may continue over
  following comment lines; the whole comment block is skipped when
  finding the excused statement.
* ``# woltlint: disable-file=W005`` anywhere in a file suppresses the
  rule(s) for the whole file.

Multiple rules are comma-separated (``disable=W001,W002``); anything
after the rule list (a justification) is ignored by the parser but
strongly encouraged for readers.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from typing import (Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from .findings import Finding
from .rules import RULES, ProjectRule, Rule
from . import flowrules  # noqa: F401 — registers W010-W013 in RULES
from .flowrules import ProjectContext
from .projectmodel import ProjectModel

__all__ = ["analyze_source", "analyze_file", "analyze_paths",
           "analyze_sources", "iter_python_files", "parse_suppressions",
           "expand_suppressions"]

#: Rule code for files the parser rejects.
PARSE_ERROR = "E001"

_SUPPRESS_RE = re.compile(
    r"#\s*woltlint:\s*(disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z]\d{3}(?:\s*,\s*[A-Za-z]\d{3})*)")

#: Directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "venv", "node_modules",
              ".mypy_cache", ".ruff_cache", ".pytest_cache"}

Suppressions = Tuple[Dict[int, Set[str]], Set[str]]


def parse_suppressions(source: str) -> Suppressions:
    """Extract suppression comments from ``source``.

    Returns:
        ``(per_line, file_wide)`` where ``per_line`` maps a 1-based line
        number to the set of rule codes disabled on it and ``file_wide``
        is the set of codes disabled for the whole file.
    """
    per_line: Dict[int, Set[str]] = {}
    file_wide: Set[str] = set()
    try:
        tokens = list(tokenize.generate_tokens(
            io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return per_line, file_wide
    comment_only_lines: Set[int] = set()
    standalone_suppressions: List[Tuple[int, Set[str]]] = []
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        standalone = tok.line[:tok.start[1]].strip() == ""
        if standalone:
            comment_only_lines.add(tok.start[0])
        match = _SUPPRESS_RE.search(tok.string)
        if not match:
            continue
        codes = {c.strip().upper()
                 for c in match.group("rules").split(",")}
        if match.group(1) == "disable-file":
            file_wide |= codes
            continue
        line = tok.start[0]
        per_line.setdefault(line, set()).update(codes)
        if standalone:
            standalone_suppressions.append((line, codes))
    for line, codes in standalone_suppressions:
        # A comment-only suppression excuses the statement below it;
        # skip past the rest of its own comment block first, so a
        # multi-line justification can follow the rule list.
        target = line + 1
        while target in comment_only_lines:
            target += 1
        per_line.setdefault(target, set()).update(codes)
    return per_line, file_wide


def _statement_spans(tree: ast.AST) -> List[Tuple[int, int]]:
    """``(first, last)`` physical-line spans of logical statements.

    Simple statements span their full extent; compound statements
    (``for``/``if``/``def``...) span only their header — from the
    keyword line to the line before their first body statement — so a
    suppression inside a loop body never leaks onto the loop itself.
    """
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = getattr(node, "lineno", None)
        end = getattr(node, "end_lineno", None)
        if start is None or end is None:
            continue
        body = getattr(node, "body", None)
        if body:
            first_body = getattr(body[0], "lineno", None)
            if first_body is not None and first_body > start:
                end = first_body - 1
            else:
                end = start
        if end > start:
            spans.append((start, end))
    return spans


def expand_suppressions(per_line: Dict[int, Set[str]],
                        tree: Optional[ast.AST]
                        ) -> Dict[int, Set[str]]:
    """Spread suppression codes across multi-line statement spans.

    A ``# woltlint: disable=...`` trailing a continuation line used to
    be silently ignored, because findings anchor to the statement's
    *first* line.  With the AST available, every code found on any
    line of a statement's span is applied to the whole span.
    """
    if tree is None or not per_line:
        return per_line
    expanded: Dict[int, Set[str]] = {line: set(codes)
                                     for line, codes in per_line.items()}
    for start, end in _statement_spans(tree):
        codes: Set[str] = set()
        for line in range(start, end + 1):
            codes |= per_line.get(line, set())
        if not codes:
            continue
        for line in range(start, end + 1):
            expanded.setdefault(line, set()).update(codes)
    return expanded


def _select_rules(select: Optional[Iterable[str]] = None,
                  ignore: Optional[Iterable[str]] = None) -> List[Rule]:
    codes = set(RULES)
    if select is not None:
        codes &= {c.upper() for c in select}
    if ignore is not None:
        codes -= {c.upper() for c in ignore}
    return [RULES[code]() for code in sorted(codes)]


def _suppressed(finding: Finding, per_line: Dict[int, Set[str]],
                file_wide: Set[str]) -> bool:
    if finding.rule in file_wide:
        return True
    return finding.rule in per_line.get(finding.line, ())


def _analyze_tree(tree: ast.AST, path: str, rules: Sequence[Rule],
                  per_line: Dict[int, Set[str]],
                  file_wide: Set[str]) -> List[Finding]:
    findings: List[Finding] = []
    for rule in rules:
        if isinstance(rule, ProjectRule):
            continue
        if not rule.applies_to(path):
            continue
        for finding in rule.check(tree, path):
            if not _suppressed(finding, per_line, file_wide):
                findings.append(finding)
    return sorted(findings)


def analyze_source(source: str, path: str,
                   select: Optional[Iterable[str]] = None,
                   ignore: Optional[Iterable[str]] = None
                   ) -> List[Finding]:
    """Run every applicable single-file rule over one file's source.

    ``path`` is the analysis-root-relative display path; rules also use
    it for path scoping (e.g. W003 only fires under ``core/``/``sim/``).
    Project rules (W010+) need the whole file set — use
    :func:`analyze_sources` or :func:`analyze_paths` for those.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path=path, line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1, rule=PARSE_ERROR,
                        message=f"file does not parse: {exc.msg}")]
    per_line, file_wide = parse_suppressions(source)
    per_line = expand_suppressions(per_line, tree)
    return _analyze_tree(tree, path, _select_rules(select, ignore),
                         per_line, file_wide)


def _run_project_pass(parsed: Sequence[Tuple[str, ast.Module]],
                      suppressions: Dict[str, Suppressions],
                      rules: Sequence[Rule]) -> List[Finding]:
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    if not project_rules or not parsed:
        return []
    model = ProjectModel.build(list(parsed))
    context = ProjectContext(model)
    findings: List[Finding] = []
    for rule in project_rules:
        for finding in rule.check_project(context):
            per_line, file_wide = suppressions.get(
                finding.path, ({}, set()))
            if not _suppressed(finding, per_line, file_wide):
                findings.append(finding)
    return sorted(findings)


def analyze_sources(sources: Sequence[Tuple[str, str]],
                    select: Optional[Iterable[str]] = None,
                    ignore: Optional[Iterable[str]] = None,
                    cache: Optional[object] = None) -> List[Finding]:
    """Analyze ``(display_path, source)`` pairs: both passes.

    This is the in-memory core shared by :func:`analyze_paths` and the
    test suite.  ``cache`` is a
    :class:`~.cache.LintCache` (or None); per-file results are reused
    by content hash and the project pass by the combined tree hash.
    """
    rules = _select_rules(select, ignore)
    findings: List[Finding] = []
    parsed: List[Tuple[str, ast.Module]] = []
    suppressions: Dict[str, Suppressions] = {}
    file_hashes: List[Tuple[str, str]] = []
    # Files whose per-file findings came from cache; parse lazily only
    # if the project pass misses.
    pending: List[Tuple[str, str]] = []

    for path, source in sources:
        content_hash = ""
        if cache is not None:
            content_hash = cache.content_hash(source)
            file_hashes.append((path, content_hash))
            cached = cache.get_file(path, content_hash)
            if cached is not None:
                findings.extend(cached)
                pending.append((path, source))
                continue
        file_findings, tree, supp = _analyze_one(source, path, rules)
        findings.extend(file_findings)
        if tree is not None:
            parsed.append((path, tree))
            suppressions[path] = supp
        if cache is not None:
            cache.set_file(path, content_hash, file_findings)

    has_project_rules = any(isinstance(r, ProjectRule) for r in rules)
    if has_project_rules:
        project_findings: Optional[List[Finding]] = None
        project_hash = ""
        if cache is not None:
            project_hash = cache.project_hash(file_hashes)
            project_findings = cache.get_project(project_hash)
        if project_findings is None:
            for path, source in pending:
                _, tree, supp = _parse_only(source, path)
                if tree is not None:
                    parsed.append((path, tree))
                    suppressions[path] = supp
            parsed.sort(key=lambda pair: pair[0])
            project_findings = _run_project_pass(parsed, suppressions,
                                                 rules)
            if cache is not None:
                cache.set_project(project_hash, project_findings)
        findings.extend(project_findings)

    if cache is not None:
        cache.save(analyzed_paths=[path for path, _ in sources])
    return sorted(findings)


def _parse_only(source: str, path: str
                ) -> Tuple[List[Finding], Optional[ast.Module],
                           Suppressions]:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        finding = Finding(path=path, line=exc.lineno or 1,
                          col=(exc.offset or 1) - 1, rule=PARSE_ERROR,
                          message=f"file does not parse: {exc.msg}")
        return [finding], None, ({}, set())
    per_line, file_wide = parse_suppressions(source)
    per_line = expand_suppressions(per_line, tree)
    return [], tree, (per_line, file_wide)


def _analyze_one(source: str, path: str, rules: Sequence[Rule]
                 ) -> Tuple[List[Finding], Optional[ast.Module],
                            Suppressions]:
    parse_findings, tree, supp = _parse_only(source, path)
    if tree is None:
        return parse_findings, None, supp
    per_line, file_wide = supp
    return (_analyze_tree(tree, path, rules, per_line, file_wide),
            tree, supp)


def _display_path(filename: str, root: Optional[str]) -> str:
    if root is not None:
        try:
            rel = os.path.relpath(filename, root)
        except ValueError:  # different drive on Windows
            rel = filename
        if not rel.startswith(".."):
            filename = rel
    return filename.replace(os.sep, "/")


def analyze_file(filename: str, root: Optional[str] = None,
                 select: Optional[Iterable[str]] = None,
                 ignore: Optional[Iterable[str]] = None
                 ) -> List[Finding]:
    """Analyze one file; the display path is made relative to ``root``."""
    with open(filename, "r", encoding="utf-8") as handle:
        source = handle.read()
    return analyze_source(source, _display_path(filename, root),
                          select=select, ignore=ignore)


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames
                                     if d not in _SKIP_DIRS
                                     and not d.startswith("."))
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        found.append(os.path.join(dirpath, name))
        else:
            found.append(path)
    return sorted(dict.fromkeys(found))


def analyze_paths(paths: Sequence[str], root: Optional[str] = None,
                  select: Optional[Iterable[str]] = None,
                  ignore: Optional[Iterable[str]] = None,
                  cache: Optional[object] = None) -> List[Finding]:
    """Analyze every ``.py`` file reachable from ``paths``.

    Runs the per-file rules on each file and the project rules once
    over the linked set.
    """
    sources: List[Tuple[str, str]] = []
    for filename in iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            sources.append((_display_path(filename, root),
                            handle.read()))
    return analyze_sources(sources, select=select, ignore=ignore,
                           cache=cache)
