"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the
root of a checkout (about 15 seconds)."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import entropic_uncertainty.cli as cli  # noqa: E402
from gate import CheckFailed, check_output, load_golden  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, make_pass  # noqa: E402

GOLDEN = load_golden(ROOT / "tests" / "golden")


def _benchmark(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    for index in range(3):
        assert make_pass(workload, 11, index) == make_pass(workload, 11, index)
    seeded = [j for j in make_pass(workload, 11, 0) if j.seeded]
    assert seeded != [j for j in make_pass(workload, 12, 0) if j.seeded]
    assert seeded != [j for j in make_pass(workload, 11, 1) if j.seeded]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pass_shape_does_not_depend_on_seed(workload):
    shape = [(j.name, j.check, len(j.argv)) for j in make_pass(workload, 1, 0)]
    for seed in (2, 3):
        assert [(j.name, j.check, len(j.argv)) for j in make_pass(workload, seed, 5)] == shape


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_gate_catches_a_flipped_byte(name):
    job = next(j for w in WORKLOADS for j in make_pass(w, 1, 0) if j.name == name)
    text = GOLDEN[name]
    assert check_output(job, text, GOLDEN) == text.count("\n") - 1
    at = len(text) // 2
    flipped = text[:at] + chr(ord(text[at]) ^ 1) + text[at + 1:]
    with pytest.raises(CheckFailed, match=f"byte {at}"):
        check_output(job, flipped, GOLDEN)


def _seeded_output(job, tmp_path):
    path = tmp_path / "job.cfg"
    if job.config is not None:
        path.write_text(job.config, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([str(path) if a == "{config}" else a for a in job.argv]) == 0
    return out.getvalue()


def test_invariant_checks_reject_broken_outputs(tmp_path):
    bounds = next(j for j in make_pass("bounds-sweep", 3, 0) if j.check == "bounds")
    text = _seeded_output(bounds, tmp_path)
    assert check_output(bounds, text, GOLDEN) == bounds.expected()["points"]
    header, first, *rest = text.splitlines()
    cols = first.split(",")
    cols[7] = repr(float(cols[8]) + 1e-6)  # pati above adabi
    with pytest.raises(CheckFailed, match="pati"):
        check_output(bounds, "\n".join([header, ",".join(cols), *rest]) + "\n", GOLDEN)

    witness = next(j for j in make_pass("witness-capacity", 3, 0) if j.check == "witness")
    text = _seeded_output(witness, tmp_path)
    assert check_output(witness, text, GOLDEN) == 1
    broken = text.replace("window=[0, ", "window=[0, 9")
    with pytest.raises(CheckFailed, match="window"):
        check_output(witness, broken, GOLDEN)


def test_tracer_patches_every_module_and_restores():
    import entropic_uncertainty.channels as channels
    import entropic_uncertainty.sweep as sweep

    original = channels.apply_one_sided
    tracer = Tracer()
    tracer.install()
    try:
        assert channels.apply_one_sided is not original
        assert sweep.apply_one_sided is channels.apply_one_sided
    finally:
        tracer.uninstall()
    assert channels.apply_one_sided is original and sweep.apply_one_sided is original


def test_traced_self_times_sum_to_traced_wall_time(tmp_path):
    jobs = make_pass("witness-capacity", 4, 0)[1:5] + make_pass("steering-grid", 4, 0)[3:5]

    def run_all():
        start = time.perf_counter()
        for job in jobs:
            _seeded_output(job, tmp_path)
        return time.perf_counter() - start

    untraced = run_all()
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_all()
    finally:
        tracer.uninstall()
    self_total = sum(tracer.layer_self_s().values())
    assert set(tracer.layer_self_s()) == set(LAYERS)
    assert tracer.totals()["cli.main"][0] == len(jobs)
    assert self_total <= traced
    assert traced - self_total <= 0.02 * traced + max(0.0, traced - untraced)
    assert tracer.totals()["bounds.uncertainty_lhs"][2] >= 100 * 4  # per-solve evaluations


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize("trace", ("0", "1"))
def test_benchmark_reports_exactly_the_declared_metrics(trace):
    end_to_end, per_layer = _declared()
    proc = _benchmark("--workload", "witness-capacity", "--seed", "5", "--seconds", "1",
                      "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == (per_layer if trace == "1" else end_to_end)
    if trace == "1":
        assert result["metrics"]["applications.u_evals_per_solve"]["value"] > 0
        assert result["metrics"]["linalg.jacobi_share"]["value"] == 0


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _benchmark("--workload", "bounds-sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
