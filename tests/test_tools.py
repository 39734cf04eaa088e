"""The benchmark recorder's guards against cached bytecode.  No benchmark
run is started: ``subprocess.run`` is replaced where a test reaches it."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root: Path, *packages: str) -> Path:
    for package in packages:
        (root / package).mkdir(parents=True)
        (root / package / "__init__.py").write_text("")
    return root


def test_refuses_a_checkout_with_cached_bytecode(bench_record, tmp_path, monkeypatch, capsys):
    clean = checkout(tmp_path / "clean", "src/jcm4", "tests/__pycache__")
    cached = checkout(tmp_path / "cached", "src/jcm4", "src/jcm4/__pycache__")

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run was started")

    monkeypatch.setattr(bench_record.subprocess, "run", no_run)
    named = f"{cached / 'src' / 'jcm4' / '__pycache__'} holds cached bytecode"
    for parent, change in ((cached, clean), (clean, cached)):
        with pytest.raises(SystemExit) as exit_info:
            bench_record.main(["--number", "0", "--parent", str(parent), "--change", str(change)])
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err
    # a cache outside src/ passes the guard, which reads BENCHMARK.json next
    with pytest.raises(FileNotFoundError, match="BENCHMARK.json"):
        bench_record.main(["--number", "0", "--parent", str(clean), "--change", str(clean)])


def test_runs_without_writing_bytecode(bench_record, tmp_path, monkeypatch):
    seen = {}

    def fake_run(cmd, **kwargs):
        seen.update(kwargs)
        return subprocess.CompletedProcess(cmd, 0, stdout='{"correct": true, "attempted": 1, '
                                           '"failed": 0, "metrics": {}}\n', stderr="")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    bench_record.run_once(tmp_path, "tau_scan", 1, 1.0)
    assert seen["cwd"] == tmp_path
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
