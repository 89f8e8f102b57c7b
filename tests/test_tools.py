"""The benchmark's scripts in tools/ and its self-test: checks that need no
benchmark run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_bench_ab():
    return _load_tool("bench_ab")


def test_bench_ab_refuses_a_seed_of_a_committed_bench_file(monkeypatch, capsys, tmp_path):
    bench_ab = _load_bench_ab()
    committed = {"BENCH_7.json": {"seeds": [701, 702]}, "BENCH_8.json": {"seeds": [801]},
                 "NOTES.json": {"seeds": [5]}}

    def git(*args):  # HEAD of a repository with the files of `committed`
        if args == ("ls-tree", "--name-only", "HEAD"):
            return "\n".join(committed).encode() + b"\n"
        assert args[0] == "show" and args[1].startswith("HEAD:"), args
        return json.dumps(committed[args[1][5:]]).encode()

    def export(*args):
        raise AssertionError("tree exported")

    monkeypatch.setattr(bench_ab, "git", git)
    monkeypatch.setattr(bench_ab, "export", export)
    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD~1", "--change", "HEAD", "--out", str(out), "--tmp", str(tmp_path)]
    assert bench_ab.main([*argv, "--seeds", "5", "702", "3", "801"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "bench_ab: seed 702 is already in the seeds of BENCH_7.json",
        "bench_ab: seed 801 is already in the seeds of BENCH_8.json"]
    assert list(tmp_path.iterdir()) == []
    # seeds that no BENCH file lists go on to the export
    with pytest.raises(AssertionError, match="tree exported"):
        bench_ab.main([*argv, "--seeds", "5", "703"])
    assert not out.exists()


def test_startup_ab_exits_1_when_a_command_differs(monkeypatch, capsys, tmp_path):
    startup_ab = _load_tool("startup_ab")
    exported = []

    def export(rev, tree):
        exported.append((rev, Path(tree).name))

    def run_once(tree, argv):  # the change differs in exit code on search, stdout on axioms
        change = Path(tree).name == "change"
        code = 1 if change and argv[0] == "search" else 0
        out = "other\n" if change and argv[0] == "axioms" else "same\n"
        return 0.01, code, out

    monkeypatch.setattr(startup_ab, "export", export)
    monkeypatch.setattr(startup_ab, "run_once", run_once)
    argv = ["--parent", "HEAD~1", "--change", "HEAD", "--runs", "2", "--tmp", str(tmp_path)]
    assert startup_ab.main(argv) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "stdout or exit code differ: search, axioms"
    assert exported == [("HEAD~1", "parent"), ("HEAD", "change")]
    assert list(tmp_path.iterdir()) == []  # the exported trees are removed
    # the same outputs on both sides: exit 0, and no line of differences
    monkeypatch.setattr(startup_ab, "run_once", lambda tree, argv: (0.01, 0, "same\n"))
    assert startup_ab.main(argv) == 0
    assert "differ" not in capsys.readouterr().out


def test_benchmark_selftest_passes():
    # perfbench/selftest.py checks the benchmark's reference semantics, its
    # fixed-point tangle included, and its report judge on demos/
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
