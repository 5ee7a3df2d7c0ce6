"""CLI surface of the whole-program pass and its satellites.

Covers the graph flags (``--no-graph``, ``--dump-graph``), structured
``E000`` handling for unanalyzable files, the ``[tool.reprolint]``
pyproject section, and the ``--changed-only`` git fast path.
"""

import json
import shutil
import subprocess
import textwrap

import pytest

from repro.cli import main

R007_FILES = {
    "util.py": "from random import random as draw\n",
    "payload.py": textwrap.dedent(
        """
        from util import draw

        def task(p):
            return draw()

        def run_batch(engine, tasks):
            return engine.map_batches(task, tasks)
        """
    ),
}


def write_tree(tmp_path, files):
    for name, source in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)


class TestE000:
    def test_syntax_error_is_a_structured_finding(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n    pass\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "E000" in out
        assert "parse" in out

    def test_non_utf8_is_a_structured_finding(self, tmp_path, capsys):
        bad = tmp_path / "latin.py"
        bad.write_bytes(b"# caf\xe9\nx = 1\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "E000" in out
        assert "UTF-8" in out

    def test_broken_file_does_not_hide_the_rest(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        (tmp_path / "dirty.py").write_text(
            "import numpy as np\n\ndef f():\n    return np.random.rand()\n"
        )
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in report["findings"]} == {"E000", "R001"}


class TestGraphFlags:
    """Cross-module resolution keys on cwd-relative module names, so
    these run from inside the fixture tree — the realistic invocation."""

    @pytest.fixture(autouse=True)
    def _in_fixture_tree(self, tmp_path, monkeypatch):
        write_tree(tmp_path, R007_FILES)
        monkeypatch.chdir(tmp_path)

    def test_cross_module_finding_needs_the_graph(self, capsys):
        assert main(["lint", ".", "--no-graph"]) == 0
        capsys.readouterr()
        assert main(["lint", "."]) == 1
        assert "R007" in capsys.readouterr().out

    def test_graph_findings_carry_evidence_in_json(self, capsys):
        assert main(["lint", ".", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        chains = [f["evidence"] for f in report["findings"] if f["rule"] == "R007"]
        assert chains and all(chain for chain in chains)

    def test_dump_graph_json_schema(self, capsys):
        assert main(["lint", ".", "--dump-graph", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert set(document) == {"version", "modules", "nodes", "edges"}
        by_id = {node["id"]: node for node in document["nodes"]}
        assert "rng" in by_id["payload:task"]["transitive"]
        assert any(
            edge["callee"] == "payload:task" and edge["ref"]
            for edge in document["edges"]
        )

    def test_dump_graph_dot(self, capsys):
        assert main(["lint", ".", "--dump-graph", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "payload:task" in out

    def test_dump_graph_requires_graph_pass(self, capsys):
        assert main(["lint", ".", "--no-graph", "--dump-graph", "json"]) == 2

    def test_dump_graph_json_is_byte_stable(self, capsys):
        main(["lint", ".", "--dump-graph", "json", "--no-cache"])
        first = capsys.readouterr().out
        main(["lint", ".", "--dump-graph", "json", "--no-cache"])
        assert capsys.readouterr().out == first


class TestPyprojectConfig:
    def test_wall_clock_allowlist_is_configurable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "timing.py").write_text(
            "import time\n\ndef stamp():\n    return time.time()\n"
        )
        assert main(["lint", "timing.py"]) == 1  # default allowlist: flagged
        capsys.readouterr()
        (tmp_path / "pyproject.toml").write_text(
            "[tool.reprolint]\nwall-clock-allowlist = [\"timing.py\"]\n"
        )
        assert main(["lint", "timing.py"]) == 0

    def test_malformed_section_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "clean.py").write_text("x = 1\n")
        (tmp_path / "pyproject.toml").write_text(
            "[tool.reprolint]\nwall-clock-allowlist = \"not-a-list\"\n"
        )
        assert main(["lint", "clean.py"]) == 2
        assert "reprolint" in capsys.readouterr().out


def _git(*args, cwd):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid", *args],
        cwd=cwd,
        check=True,
        capture_output=True,
    )


@pytest.mark.skipif(shutil.which("git") is None, reason="git unavailable")
class TestChangedOnly:
    def test_only_changed_files_are_reported(self, tmp_path, monkeypatch, capsys):
        dirty = "import numpy as np\n\ndef f():\n    return np.random.rand()\n"
        write_tree(tmp_path, {"a.py": dirty, "b.py": dirty})
        _git("init", "-q", cwd=tmp_path)
        _git("add", ".", cwd=tmp_path)
        _git("commit", "-q", "-m", "seed", cwd=tmp_path)
        (tmp_path / "b.py").write_text(dirty + "\n# touched\n")

        monkeypatch.chdir(tmp_path)
        assert main(["lint", ".", "--changed-only", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert {f["path"] for f in report["findings"]} == {"b.py"}

    def test_clean_when_nothing_changed(self, tmp_path, monkeypatch, capsys):
        dirty = "import numpy as np\n\ndef f():\n    return np.random.rand()\n"
        write_tree(tmp_path, {"a.py": dirty})
        _git("init", "-q", cwd=tmp_path)
        _git("add", ".", cwd=tmp_path)
        _git("commit", "-q", "-m", "seed", cwd=tmp_path)

        monkeypatch.chdir(tmp_path)
        assert main(["lint", ".", "--changed-only"]) == 0

    def test_outside_git_falls_back_to_full_run(self, tmp_path, monkeypatch, capsys):
        dirty = "import numpy as np\n\ndef f():\n    return np.random.rand()\n"
        write_tree(tmp_path, {"a.py": dirty})
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "nonexistent-git-dir"))
        assert main(["lint", ".", "--changed-only"]) == 1
        assert "R001" in capsys.readouterr().out
