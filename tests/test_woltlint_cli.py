"""CLI and suppression tests for woltlint."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from tools.woltlint import analyze_source
from tools.woltlint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]

#: A file with one W001 violation (an unseeded generator).
VIOLATION = textwrap.dedent("""
    import numpy as np

    rng = np.random.default_rng()
""")


def make_tree(tmp_path: Path, source: str) -> Path:
    pkg = tmp_path / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "module.py").write_text(source)
    return pkg


class TestSuppressions:
    def test_same_line_suppression(self):
        src = ("import numpy as np\n"
               "rng = np.random.default_rng()"
               "  # woltlint: disable=W001 — fixture\n")
        assert analyze_source(src, "m.py") == []

    def test_preceding_comment_suppression(self):
        src = ("import numpy as np\n"
               "# woltlint: disable=W001 — justification here\n"
               "rng = np.random.default_rng()\n")
        assert analyze_source(src, "m.py") == []

    def test_file_wide_suppression(self):
        src = ("# woltlint: disable-file=W001\n"
               "import numpy as np\n"
               "a = np.random.default_rng()\n"
               "b = np.random.default_rng()\n")
        assert analyze_source(src, "m.py") == []

    def test_suppression_is_per_rule(self):
        src = ("import numpy as np\n"
               "rng = np.random.default_rng()"
               "  # woltlint: disable=W002\n")
        assert [f.rule for f in analyze_source(src, "m.py")] == ["W001"]

    def test_suppression_only_covers_its_line(self):
        src = ("import numpy as np\n"
               "a = np.random.default_rng()"
               "  # woltlint: disable=W001\n"
               "b = np.random.default_rng()\n")
        findings = analyze_source(src, "m.py")
        assert [(f.rule, f.line) for f in findings] == [("W001", 3)]

    def test_trailing_comment_on_continuation_line(self):
        # The violation's reported line is the statement header, but
        # the suppression sits on a later physical line of the same
        # multi-line statement; it must still apply.
        src = textwrap.dedent("""
            import numpy as np

            rng = np.random.default_rng(
            )  # woltlint: disable=W001 — fixture
        """)
        assert analyze_source(src, "m.py") == []

    def test_multi_line_justification_block(self):
        # A standalone suppression followed by more comment lines must
        # cover the next *statement*, not the next comment line.
        src = textwrap.dedent("""
            import numpy as np

            # woltlint: disable=W001 — this generator intentionally
            # floats free: it seeds a demo fixture whose exact stream
            # is never asserted on.
            rng = np.random.default_rng()
        """)
        assert analyze_source(src, "m.py") == []

    def test_header_suppression_does_not_leak_into_body(self):
        # Suppressing on a compound statement's header covers the
        # header lines only, not the whole indented body.
        src = textwrap.dedent("""
            import numpy as np

            def f():  # woltlint: disable=W001
                return np.random.default_rng()
        """)
        findings = analyze_source(src, "m.py")
        assert [f.rule for f in findings] == ["W001"]


class TestCli:
    def run(self, tmp_path, *argv):
        return main([str(tmp_path / "pkg"), "--root", str(tmp_path),
                     *argv])

    def test_violation_fails_without_baseline_file(self, tmp_path,
                                                   capsys):
        make_tree(tmp_path, VIOLATION)
        assert self.run(tmp_path) == 1
        out = capsys.readouterr().out
        assert "pkg/module.py" in out and "W001" in out

    def test_baseline_flags_are_gone(self, tmp_path, capsys):
        # An inline suppression is the only way to accept a finding.
        make_tree(tmp_path, VIOLATION)
        for flag in ("--baseline=b.json", "--no-baseline",
                     "--update-baseline", "--allow-baseline-growth"):
            with pytest.raises(SystemExit) as exc:
                self.run(tmp_path, flag)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_json_output_shape(self, tmp_path, capsys):
        make_tree(tmp_path, VIOLATION)
        assert self.run(tmp_path, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["reported"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "W001"
        assert finding["path"] == "pkg/module.py"

    def test_missing_path_is_usage_error(self, tmp_path):
        assert main([str(tmp_path / "nope")]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("W001", "W002", "W003", "W004", "W005", "W006"):
            assert code in out

    def test_select_and_ignore(self, tmp_path, capsys):
        make_tree(tmp_path, VIOLATION)
        assert self.run(tmp_path, "--ignore", "W001") == 0
        assert self.run(tmp_path, "--select", "W002") == 0


#: A W012 violation the autofixer can rewrite (set iteration into an
#: accumulating list).
FIXABLE = textwrap.dedent("""
    def collect(pending):
        results = []
        for name in set(pending):
            results.append(name)
        return results
""")


class TestCliNewFlags:
    def run(self, tmp_path, *argv):
        return main([str(tmp_path / "pkg"), "--root", str(tmp_path),
                     *argv])

    def test_sarif_format_to_stdout(self, tmp_path, capsys):
        make_tree(tmp_path, VIOLATION)
        assert self.run(tmp_path, "--format", "sarif") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        (result,) = doc["runs"][0]["results"]
        assert result["ruleId"] == "W001"

    def test_sarif_output_file(self, tmp_path):
        make_tree(tmp_path, VIOLATION)
        out = tmp_path / "report.sarif"
        assert self.run(tmp_path, "--format", "sarif",
                        "--output", str(out)) == 1
        doc = json.loads(out.read_text())
        assert doc["runs"][0]["results"][0]["ruleId"] == "W001"

    def test_fix_rewrites_file_then_tree_is_clean(self, tmp_path,
                                                  capsys):
        pkg = make_tree(tmp_path, FIXABLE)
        assert self.run(tmp_path, "--fix") == 0
        fixed = (pkg / "module.py").read_text()
        assert "sorted(set(pending))" in fixed
        assert self.run(tmp_path) == 0

    def test_cache_file_round_trip(self, tmp_path, capsys):
        make_tree(tmp_path, VIOLATION)
        cache_file = tmp_path / "lintcache.json"
        argv = ["--cache-file", str(cache_file)]
        assert self.run(tmp_path, *argv) == 1
        assert cache_file.exists()
        capsys.readouterr()
        assert self.run(tmp_path, *argv) == 1  # warm hit, same verdict
        assert "W001" in capsys.readouterr().out


class TestRealTree:
    """The PR gate: the shipped tree is clean."""

    def test_whole_tree_is_clean(self, capsys):
        argv = [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests"),
                str(REPO_ROOT / "tools"),
                str(REPO_ROOT / "benchmarks"),
                "--root", str(REPO_ROOT)]
        assert main(argv) == 0
