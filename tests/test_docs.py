"""Documentation stays executable: every Python snippet in the tutorial
and the README quick-start must actually run against the current API."""

import contextlib
import io
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _snippets(path):
    text = open(os.path.join(ROOT, path)).read()
    return re.findall(r"```python\n(.*?)```", text, re.S)


class TestTutorial:
    def test_all_snippets_run_in_order(self):
        code = "\n".join(_snippets("docs/TUTORIAL.md"))
        assert code.strip(), "tutorial lost its code blocks?"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            exec(compile(code, "TUTORIAL.md", "exec"), {})
        # The figure-1 rendering appears in the captured output.
        assert "###...###" in buf.getvalue()


class TestReadme:
    def test_quickstart_snippet_runs(self):
        snippets = _snippets("README.md")
        assert snippets, "README lost its code blocks?"
        # The first snippet is the redistribution quick start and is
        # fully self-contained.
        exec(compile(snippets[0], "README.md", "exec"), {})

    def test_clusterfile_snippet_runs_with_stub(self):
        snippets = _snippets("README.md")
        # The second snippet references a data_of(...) placeholder.
        import numpy as np

        ns = {"data_of": lambda c: np.zeros(256 * 256 // 4, dtype=np.uint8)}
        exec(compile(snippets[1], "README.md", "exec"), ns)

    def test_example_table_matches_files(self):
        text = open(os.path.join(ROOT, "README.md")).read()
        for name in re.findall(r"\| `(\w+\.py)` \|", text):
            assert os.path.exists(
                os.path.join(ROOT, "examples", name)
            ), f"README references missing example {name}"


class TestCrossReferences:
    def test_design_modules_exist(self):
        """Every module path DESIGN.md's inventory names must exist."""
        text = open(os.path.join(ROOT, "DESIGN.md")).read()
        for mod in re.findall(r"`((?:core|distributions|redistribution|"
                              r"simulation|clusterfile|apps|bench)/\w+\.py)`",
                              text):
            assert os.path.exists(
                os.path.join(ROOT, "src", "repro", mod)
            ), f"DESIGN.md references missing module {mod}"

    def test_experiments_benchmarks_exist(self):
        text = open(os.path.join(ROOT, "EXPERIMENTS.md")).read()
        for bench in re.findall(r"`(bench_\w+\.py)`", text):
            assert os.path.exists(
                os.path.join(ROOT, "benchmarks", bench)
            ), f"EXPERIMENTS.md references missing benchmark {bench}"

    def test_no_dangling_file_references(self):
        """Every ``benchmarks/….py``, ``tests/….py``, ``examples/….py``
        path and every ``BENCH_*.json`` the docs, the CI workflow or the
        verify skill name must exist (by regex: no YAML dependency)."""
        sources = ["README.md", "EXPERIMENTS.md", "DESIGN.md",
                   ".github/workflows/ci.yml",
                   ".claude/skills/verify/SKILL.md"]
        sources += sorted(
            os.path.join("docs", name)
            for name in os.listdir(os.path.join(ROOT, "docs"))
            if name.endswith(".md")
        )
        pattern = re.compile(
            r"\b((?:benchmarks|tests|examples)/[\w/.-]*\.py|BENCH_\w+\.json)\b"
        )
        named = [
            (source, name)
            for source in sources
            for name in pattern.findall(open(os.path.join(ROOT, source)).read())
        ]
        assert len(named) > 20, "the reference pattern stopped matching"
        missing = sorted(
            {(source, name) for source, name in named
             if not os.path.exists(os.path.join(ROOT, name))}
        )
        assert not missing, f"references to missing files: {missing}"
