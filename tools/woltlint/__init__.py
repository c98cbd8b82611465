"""woltlint — AST-based invariant checker for the WOLT reproduction.

PR 1 made the repo's correctness guarantees *contractual*: batched
searches must be bit-identical to the scalar oracles, and parallel
trials must be bit-identical to serial runs via SeedSequence-spawned
RNGs.  Those contracts rest on coding disciplines that ordinary linters
cannot see — seeded RNG plumbing, ``SeedSequence.spawn`` child-stream
derivation, batch-engine usage on hot paths, immutable throughput
reports, and Mbps unit conventions.  ``woltlint`` turns each discipline
into a machine-checked rule over the stdlib :mod:`ast`.

v2 adds a **project pass**: all analyzed files are linked into a
module/call graph (:mod:`~tools.woltlint.projectmodel`), per-function
tag propagation answers "does value P reach sink S"
(:mod:`~tools.woltlint.dataflow`), and the flow-sensitive rules
W010-W013 check the cross-module contracts — SeedSequence-to-worker
RNG plumbing, pool-payload picklability, unordered-iteration and
wall-clock leaks, and run-fingerprint coverage of the config
dataclasses.  Content-hash caching (``--cache``), SARIF 2.1.0 output
(``--format sarif``), and a mechanical autofixer (``--fix``) ride on
top.

Run it with::

    python -m tools.woltlint src tests tools benchmarks

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue, the suppression
syntax (``# woltlint: disable=W001``, the only way to accept a
finding), and how to add a rule.
"""

from .analyzer import (Finding, analyze_file, analyze_paths,
                       analyze_source, analyze_sources)
from .rules import RULES, ProjectRule, Rule, all_rule_codes, register

__all__ = [
    "Finding",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "analyze_sources",
    "RULES",
    "Rule",
    "ProjectRule",
    "all_rule_codes",
    "register",
]

__version__ = "2.0.0"
