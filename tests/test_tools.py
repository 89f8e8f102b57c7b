"""The A/B benchmark script in tools/: checks that need no benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "tools" / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
