"""The runner end to end, at smoke scale (6 h of history)."""

import json
import pathlib
import subprocess
import sys
import time

import closed_loop
import spec
from repro.client.query_client import QueryClient
from repro.isp.server import IspServer

RUN_PY = pathlib.Path(__file__).resolve().parents[1] / "run.py"


def _run(*arguments, timeout=150):
    return subprocess.run(
        [sys.executable, str(RUN_PY), *arguments],
        capture_output=True, text=True, timeout=timeout,
    )


def test_benchmark_json_matches_the_code():
    assert spec.check_contract() == []
    assert _run("--check").returncode == 0


def test_smoke_runs_all_four_workloads_in_under_a_minute(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    done = _run("--all", "--smoke", "--check", "--seed", "4",
                "--out", str(out))
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stderr
    assert elapsed < 60.0
    document = json.loads(out.read_text())
    assert document["pythonhashseed"] == "0"
    runs = {run["workload"]: run for run in document["runs"]}
    assert tuple(runs) == spec.WORKLOADS
    for workload, run in runs.items():
        assert run["correct"] and run["failed"] == 0, workload
        assert set(run["metrics"]) == set(spec.END_TO_END)
        for name, entry in run["metrics"].items():
            assert entry["value"] > 0, (workload, name)
            assert entry["unit"] == spec.END_TO_END[name][0]


def test_traced_smoke_covers_every_declared_layer():
    idle = []
    for workload in ("mixed_live_rpc", "serve_sessions"):
        done = _run("--workload", workload, "--smoke", "--trace", "1",
                    "--seed", "4")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result["metrics"]) == set(spec.PER_LAYER)
        marker = [line for line in done.stdout.splitlines()
                  if line.startswith("# layers this workload never enters")]
        idle.append(set(marker[0].split(": ", 1)[1].split()) if marker
                    else set())
        if workload == "mixed_live_rpc":
            metrics = result["metrics"]
            assert metrics["client.unattributed_ratio"]["value"] <= 0.10
            assert metrics["cert.verify.calls"]["value"] == 1.0
            assert metrics["rpc.call.calls"]["value"] > 0
            assert metrics["update.p50_ms"]["value"] > 0
            assert metrics["trace.overhead_ratio"]["value"] > 0
    # A metric no workload computes would be a dead name.
    assert idle[0] & idle[1] == set()


def test_an_unknown_workload_and_a_missing_program_exit_nonzero(tmp_path):
    assert _run("--workload", "nope").returncode == 2
    # A checkout that holds only BENCHMARK.json and the benchmark's files.
    lonely = tmp_path / "benchmarks" / "e2e"
    lonely.mkdir(parents=True)
    for source in RUN_PY.parent.glob("*.py"):
        (lonely / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(spec.BENCHMARK_JSON.read_text())
    done = subprocess.run(
        [sys.executable, str(lonely / "run.py"), "--workload",
         "point_static", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_oracle_mismatch_is_a_failed_operation_and_wrappers_come_off():
    before = (QueryClient.__dict__["query"], IspServer.__dict__["_get_page"])
    loop = closed_loop.ClosedLoopRun(
        closed_loop.WORKLOADS["point_static"], seed=2, hours=3
    )
    try:
        metrics, attempted, failed = loop.traced(0.4)
        assert failed == 0 and attempted > 0
        assert metrics["cert.verify.ms"] > 0
        assert loop.spans and loop.tracer is None
        assert (QueryClient.__dict__["query"],
                IspServer.__dict__["_get_page"]) == before
        assert "sync_update" not in loop.system.isp.__dict__
        # Poison one expected answer: the next pass must notice.
        loop.oracle._rows[loop.queries[0]] = [("not", "the", "answer")]
        phase = loop.measure(0.0, min_ops=len(loop.queries))
        assert phase.failed == 1
        assert any("oracle mismatch" in f for f in loop.failures)
    finally:
        loop.close()
