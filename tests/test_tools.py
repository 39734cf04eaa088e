"""The benchmark recorder's guards against cached bytecode and its record of
wall time.  No benchmark run is started: ``subprocess.run`` is replaced
where a test reaches it."""

import importlib.util
import json
import subprocess
import time
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


RESULT = '{"correct": true, "attempted": 1, "failed": 0, "metrics": %s}\n'


def test_runs_without_writing_bytecode(bench_record, tmp_path, monkeypatch):
    seen = {}

    def fake_run(cmd, **kwargs):
        seen.update(kwargs)
        time.sleep(0.05)
        return subprocess.CompletedProcess(cmd, 0, stdout=RESULT % "{}", stderr="")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    run = bench_record.run_once(tmp_path, "tau_scan", 1, 1.0)
    assert seen["cwd"] == tmp_path
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert 0.05 <= run["wall_s"] < 5.0 and run["attempted"] == 1


def test_records_each_sides_wall_time(bench_record, tmp_path, monkeypatch):
    sides = {side: checkout(tmp_path / side, "src/jcm4") for side in ("parent", "change")}
    (sides["change"] / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "tau_scan"}],
        "end_to_end": [{"name": "op_p50_cal", "better": "lower"}]}))

    real_run = subprocess.run

    def fake_run(cmd, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, stdout="abc1234\n", stderr="")
        if "perfbench/run.py" not in cmd:  # platform's own probes
            return real_run(cmd, **kwargs)
        time.sleep(0.01)
        return subprocess.CompletedProcess(cmd, 0, stdout=RESULT % '{"op_p50_cal": {"value": 1.0}}',
                                           stderr="")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    bench_record.main(["--number", "0", "--parent", str(sides["parent"]),
                       "--change", str(sides["change"])])
    record = json.loads((sides["change"] / "BENCH_0.json").read_text())
    for side in sides:
        runs = record["sides"][side]["runs"]["tau_scan"]
        assert len(runs) == 10 and all(run["wall_s"] >= 0.01 for run in runs)
        assert record["sides"][side]["wall_s"] == sum(run["wall_s"] for run in runs)
