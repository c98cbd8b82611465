#!/usr/bin/env sh
# Run the full static-analysis gate locally: woltlint, then ruff and
# mypy when they are installed (both live in the ``dev`` extra; CI runs
# all three unconditionally).  Mirrors the ``lint`` job in
# .github/workflows/ci.yml.
#
# Usage:
#   scripts/lint.sh              # full tree (src tests tools benchmarks scripts)
#   scripts/lint.sh --changed    # only .py files changed vs origin/main
#
# --changed is a fast pre-push loop: it feeds woltlint/ruff just the
# changed files.  Note the project-pass rules (W010+) see only those
# files in this mode, so cross-module findings involving *unchanged*
# files can be missed — the full run (and CI) stays authoritative.
set -eu

cd "$(dirname "$0")/.."
status=0

LINT_PATHS="src tests tools benchmarks scripts"
CHANGED_MODE=0
if [ "${1:-}" = "--changed" ]; then
    CHANGED_MODE=1
    base=$(git merge-base origin/main HEAD 2>/dev/null || echo "")
    if [ -z "$base" ]; then
        echo "lint.sh: cannot find merge-base with origin/main;" \
             "falling back to full run" >&2
    else
        # Changed-or-added .py files vs the branch point, plus any
        # uncommitted ones; deleted files drop out via --diff-filter.
        changed=$( { git diff --name-only --diff-filter=d "$base" -- \
                       '*.py'; \
                     git diff --name-only --diff-filter=d -- '*.py'; \
                     git ls-files --others --exclude-standard -- \
                       '*.py'; } | sort -u)
        if [ -z "$changed" ]; then
            echo "lint.sh: no Python files changed vs origin/main"
            exit 0
        fi
        LINT_PATHS=$changed
        echo "lint.sh: linting changed files only:"
        printf '  %s\n' $changed
    fi
fi

echo "== woltlint =="
# shellcheck disable=SC2086 — word splitting of the path list is wanted
python -m tools.woltlint $LINT_PATHS --cache || status=1

echo "== ruff =="
if command -v ruff >/dev/null 2>&1; then
    # shellcheck disable=SC2086
    ruff check $LINT_PATHS || status=1
else
    echo "ruff not installed; skipping (pip install -e '.[dev]')"
fi

echo "== mypy =="
if [ "$CHANGED_MODE" = 1 ]; then
    echo "skipped in --changed mode (module-level config; run full)"
elif command -v mypy >/dev/null 2>&1; then
    mypy || status=1
else
    echo "mypy not installed; skipping (pip install -e '.[dev]')"
fi

exit "$status"
