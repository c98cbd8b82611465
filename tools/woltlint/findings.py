"""The finding record shared by the analyzer, rules, and reporters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class WrapFix:
    """A mechanical source edit: wrap an expression span in text.

    The span is ``(start_line, start_col)``..``(end_line, end_col)``
    (1-based lines, 0-based cols, end exclusive); applying the fix
    inserts ``before`` at the start and ``after`` at the end —
    e.g. ``sorted(`` ... ``)`` around a set-typed iterable.  See
    :mod:`tools.woltlint.fixers`.
    """

    start_line: int
    start_col: int
    end_line: int
    end_col: int
    before: str
    after: str


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        path: file path, ``/``-separated, relative to the analysis root.
        line: 1-based source line.
        col: 0-based source column.
        rule: rule code (``W001`` ... , or ``E001`` for files
            that fail to parse).
        message: human-readable description with the suggested fix.
        fix: optional mechanical edit ``--fix`` can apply (excluded
            from ordering and serialized output).
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    fix: Optional[WrapFix] = field(default=None, compare=False)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "message": self.message}
