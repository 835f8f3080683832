"""Self-tests of the benchmark.  They run the program for a few minutes:

    python3 -m pytest -q bench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (first, so that it pins BLAS threads)

import numpy as np  # noqa: E402

CLI, MODULES = run.import_program()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = (".calls", ".errors", "dict_elems_built", "dict_reuse_ratio",
                 "inclusion_checks_per_rung", "fock_dim_max",
                 "weyl_dense_bytes")


def bench(workload, seed, trace, root=run.ROOT):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)
    return done


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def one_pass(workload, seed, reference):
    with tempfile.TemporaryDirectory(prefix=".bench_out-",
                                     dir=run.ROOT) as tmp:
        checker = run.Checker(CLI, tmp, reference)
        run.run_pass(checker, run.parse_invocations(
            CLI, run.WORKLOADS[workload].invocations(seed)))
    return checker


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload at the reference seed 0."""
    return {w: [result(bench(w, 0, 1)) for _ in range(2)]
            for w in run.WORKLOADS}


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()}


def test_untraced_run_reports_every_end_to_end_metric():
    out = result(bench("fock_identities", 0, 0))
    assert out["correct"] and out["failed"] == 0
    assert {n: m["unit"] for n, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_traced_run_reports_every_per_layer_metric(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for runs in traced.values():
        for out in runs:
            assert out["correct"] and out["failed"] == 0
            assert {n: m["unit"] for n, m in out["metrics"].items()} == want


def test_count_metrics_repeat_exactly(traced):
    for first, second in traced.values():
        counts = [n for n in first["metrics"] if n.endswith(COUNT_METRICS)]
        assert len(counts) == 40
        for name in counts:
            assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload, largest", [
    ("check_all", "ccr_fock.weyl_operator.self_s"),
    ("k_sweep", "ads_model.dual_boundary_map.self_s"),
])
def test_largest_self_time(traced, workload, largest):
    metrics = traced[workload][0]["metrics"]
    self_s = {n: m["value"] for n, m in metrics.items()
              if n.endswith(".self_s")}
    assert max(self_s, key=self_s.get) == largest


def test_conjugated_dual_map_fails_the_gate(monkeypatch):
    reference = run.load_reference("k_sweep", 0)
    assert one_pass("k_sweep", 0, reference).failed == 0

    am = MODULES["ads_model"]
    dual = am.dual_boundary_map
    monkeypatch.setattr(am, "dual_boundary_map", lambda model, f: (
        am.OneParticleVector(np.conj(dual(model, f).coeffs))))
    checker = one_pass("k_sweep", 0, reference)
    assert checker.failed / checker.attempted > 0


def test_corrupted_reference_fails_the_gate():
    reference = run.load_reference("fock_identities", 0)
    assert one_pass("fock_identities", 0, reference).failed == 0

    reference["0:ccr-verify"]["ccr_verify.csv:value"][0] += 1e-11
    checker = one_pass("fock_identities", 0, reference)
    assert (checker.failed, checker.unverified, checker.attempted) == (1, 1, 2)


def test_program_check_failure_is_counted_but_verified():
    # seed 2 hits the K = 40 short-window monotonicity failure noted in run.py
    checker = one_pass("k_sweep", 2, run.load_reference("k_sweep", 2))
    assert (checker.failed, checker.unverified) == (1, 0)
    assert "residual_monotone" in checker.problems[0]


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory(prefix=".bench_out-",
                                     dir=run.ROOT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.ROOT / "bench", Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("fock_identities", 0, 0, root=tmp)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
