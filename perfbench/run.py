"""Benchmark of the ``eur`` command line on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bounds-sweep --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout and driven in-process
through ``entropic_uncertainty.cli.main(argv)``, one job after another, for
``--seconds`` seconds of whole workload passes.  Every output is checked
(``gate.py``), and every duration is scaled by a reference kernel timed
around it (``calibrate.py``).  With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` passes alternate between untraced and
traced, and it reports per-layer metrics of the traced passes (``spans.py``).
A run record, and with tracing the kept spans, go to ``.perfbench_out/``.
Exit code 0 when every output is correct, 1 when one is not, 2 when the
program under test is missing.
"""

from __future__ import annotations

import os

# One BLAS thread and the serial sweep default, before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("EUR_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

from calibrate import NOMINAL_S, kernel_seconds, scaled  # noqa: E402
from gate import CheckFailed, check_output, load_golden, sha256  # noqa: E402
from spans import LAYERS, PACKAGE, Tracer  # noqa: E402
from workloads import CONFIG_PATH, REFERENCE_KERNEL, WORKLOADS, Job, make_pass, warmup_jobs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it

_IMPORT_CHILD = (
    "import time\n"
    "t = time.perf_counter()\n"
    f"import {PACKAGE}.cli as m\n"
    "print(time.perf_counter() - t)\n"
    "print(m.__file__)\n"
)

# Per-layer metrics reported with --trace 1: the functions the workloads call
# and an optimisation is likely to move.
TRACED_FUNCTIONS = (
    "cli.main",
    "cli.parse_config_file",
    "cli.preset_rows",
    "sweep.run_sweep",
    "sweep.render_csv",
    "applications.witness_threshold",
    "applications.capacity_curves",
    "applications.channel_capacity",
    "bounds.uncertainty_lhs",
    "bounds.berta_bound",
    "bounds.complementarity_c",
    "measures.classical_correlation",
    "measures.min_conditional_entropy_over_measurements",
    "measures.holevo_quantity",
    "measures.mutual_information",
    "measures.conditional_entropy_after_measurement",
    "measures.post_measurement_state",
    "measures.quantum_conditional_entropy",
    "measures.von_neumann_entropy",
    "channels.ad_kraus",
    "channels.bpf_kraus",
    "channels.apply_one_sided",
    "channels.apply_steering",
    "channels.filter_op",
    "channels.weak_op",
    "channels.d_of_t",
    "linalg.validate_density",
    "linalg.density_spectrum",
    "linalg.hermitian_eigenvalues",
    "linalg.jacobi_eigenvalues",
    "linalg.as_matrix",
    "linalg.partial_trace",
    "linalg.conjugate_sandwich",
    "linalg.tensor_product",
    "states.bell_diagonal_density",
)
OPTIMIZERS = ("measures.classical_correlation",
              "measures.min_conditional_entropy_over_measurements")


class MissingProgram(Exception):
    """The checkout lacks the package or the golden files the benchmark needs."""


class JobResult(NamedTuple):
    job: Job
    seconds: float  # as measured
    scaled_s: float  # at the reference kernel's nominal speed
    rows: int
    sha256: str


class Pass(NamedTuple):
    traced: bool
    results: list[JobResult]

    def wall(self) -> float:
        return sum(r.scaled_s for r in self.results)

    def rows(self) -> int:
        return sum(r.rows for r in self.results)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure_setup() -> list[tuple[float, float]]:
    """Import time of ``PACKAGE.cli`` in fresh interpreters, timed inside each:
    (as measured, at the interpreter kernel's nominal speed) per sample.
    Importing is interpreter-bound work, whatever the workload."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    times = []
    before = kernel_seconds("interp")
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_CHILD], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=False)
        after = kernel_seconds("interp")
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2:
            raise MissingProgram(f"import in a fresh interpreter failed: {proc.stderr.strip()}")
        if not Path(lines[1]).resolve().is_relative_to(SRC):
            raise MissingProgram(f"child imported {lines[1]}, not the checkout's package")
        seconds = float(lines[0])
        times.append((seconds, scaled(seconds, "interp", before, after)))
        before = after
    return times


def import_cli():
    if not (SRC / PACKAGE / "cli.py").is_file():
        raise MissingProgram(f"no {PACKAGE} package under {SRC}")
    sys.path.insert(0, str(SRC))
    import entropic_uncertainty.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise MissingProgram(f"imported {cli.__file__}, not the checkout's package")
    return cli


class Runner:
    """Runs jobs through ``cli.main``, times them against the reference
    kernel and checks their outputs."""

    def __init__(self, cli, golden: dict[str, str], workdir: Path, kernel: str):
        self.cli = cli
        self.golden = golden
        self.workdir = workdir
        self.kernel = kernel
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, jobs, tracer: Tracer | None = None, first_job: int = 0) -> Pass:
        argvs = []
        for j, job in enumerate(jobs):
            path = None
            if job.config is not None:
                path = self.workdir / f"job{j}.cfg"
                path.write_text(job.config, encoding="utf-8")
            argvs.append([str(path) if a == CONFIG_PATH else a for a in job.argv])
        outputs = []
        kernel = [kernel_seconds(self.kernel)]
        if tracer is not None:
            tracer.install()
        try:
            for j, argv in enumerate(argvs):
                if tracer is not None:
                    tracer.job = first_job + j
                outputs.append(self._call(argv))
                kernel.append(kernel_seconds(self.kernel))
        finally:
            if tracer is not None:
                tracer.uninstall()
        results = []
        for j, (job, (seconds, rc, text, err)) in enumerate(zip(jobs, outputs)):
            self.attempted += 1
            rows = 0
            try:
                if rc != 0:
                    raise CheckFailed(f"exit {rc}: {err.strip()}")
                rows = check_output(job, text, self.golden)
            except CheckFailed as exc:
                self.failures.append(f"{job.name} {list(job.argv)}: {exc}")
            results.append(JobResult(
                job, seconds, scaled(seconds, self.kernel, kernel[j], kernel[j + 1]), rows,
                sha256(text)))
        return Pass(tracer is not None, results)

    def _call(self, argv):
        """(seconds, exit code or the exception raised, stdout, stderr) of one call."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed job, not a stop
                rc = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        return seconds, rc, out.getvalue(), err.getvalue()


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark; return (result line, run record)."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # jobs, kernel and import children share one CPU
    cli = import_cli()
    golden = load_golden(ROOT / "tests" / "golden")
    setup = measure_setup()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        runner = Runner(cli, golden, workdir, REFERENCE_KERNEL[workload])
        runner.run_pass(warmup_jobs())  # checked and counted, not timed
        tracer = Tracer() if trace else None
        passes: list[Pass] = []
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(passes) % 2 == 1
            passes.append(runner.run_pass(
                make_pass(workload, seed, len(passes)),
                tracer if traced else None,
                first_job=sum(len(p.results) for p in passes),
            ))
            if time.perf_counter() >= deadline and not (trace and len(passes) % 2 == 1):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p.traced]
    walls = [p.wall() for p in plain]
    rates = [p.rows() / p.wall() for p in plain]
    latencies = [r.scaled_s for p in plain for r in p.results if r.job.seeded]
    tail_value, tail_pct = tail(latencies)
    attempted, failed = runner.attempted, len(runner.failures)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "reference_kernel": REFERENCE_KERNEL[workload],
        "kernel_nominal_s": NOMINAL_S,
        "setup_import_s": [{"seconds": s, "scaled_s": x} for s, x in setup],
        "passes": [
            {"traced": p.traced, "wall_s": sum(r.seconds for r in p.results),
             "scaled_wall_s": p.wall(), "rows": p.rows()}
            for p in passes
        ],
        "job_tail": {"percentile": tail_pct, "samples": len(latencies)},
        "attempted": attempted,
        "failed": failed,
        "failures": runner.failures,
        "outputs": [
            {"pass": i, "job": r.job.name, "rows": r.rows, "seconds": r.seconds,
             "scaled_s": r.scaled_s, "sha256": r.sha256}
            for i, p in enumerate(passes)
            for r in p.results
        ],
    }
    if not trace:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "rows_per_s": (statistics.median(rates), "rows/s"),
            "job_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "job_tail_ms": (1e3 * tail_value, "ms"),
            "setup_s": (statistics.median([x for _, x in setup]), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        metrics, summary = layer_metrics(tracer, [p for p in passes if p.traced], walls)
        record["trace_summary"] = summary
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.csv"
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["spans_kept"] = tracer.write_spans(spans_path)
        record["spans_dropped"] = tracer.dropped_spans
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    return result, record


def layer_metrics(tracer: Tracer, traced_passes, plain_walls):
    """Per-pass call counts and self times, layer self times and the ratios."""
    totals = tracer.totals()
    n = len(traced_passes)
    rows = sum(p.rows() for p in traced_passes)
    metrics = {}
    for name in TRACED_FUNCTIONS:
        calls, self_s, _ = totals[name]
        metrics[f"{name}.calls"] = (calls / n, "calls/pass")
        metrics[f"{name}.self_s"] = (self_s / n, "s/pass")
    layer_self = tracer.layer_self_s()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer] / n, "s/pass")
    herm = totals["linalg.hermitian_eigenvalues"][0]
    solves = totals["applications.witness_threshold"][0]
    traced_walls = [p.wall() for p in traced_passes]
    metrics["measures.optimizer_calls_per_row"] = (
        sum(totals[name][0] for name in OPTIMIZERS) / rows, "calls/row")
    metrics["linalg.density_spectrum.calls_per_row"] = (
        totals["linalg.density_spectrum"][0] / rows, "calls/row")
    metrics["linalg.jacobi_share"] = (
        totals["linalg.jacobi_eigenvalues"][0] / herm if herm else 0.0, "ratio")
    metrics["applications.u_evals_per_solve"] = (
        totals["bounds.uncertainty_lhs"][2] / solves if solves else 0.0, "calls/solve")
    metrics["trace_overhead_frac"] = (statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "ratio")
    summary = {
        "traced_passes": n,
        "traced_job_s": sum(r.seconds for p in traced_passes for r in p.results),
        "traced_self_s": sum(layer_self.values()),
        "untraced_pass_s": statistics.median(plain_walls),
        "traced_pass_s": statistics.median(traced_walls),
        "functions": {
            name: {"calls": c, "self_s": s, "calls_in_witness_solves": w}
            for name, (c, s, w) in totals.items() if c
        },
    }
    return metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (MissingProgram, FileNotFoundError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    record_path = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in record["failures"][:20]:
        print(f"FAILED {failure}")
    tail_info = record["job_tail"]
    print(
        f"{args.workload} seed {args.seed}: {len(record['passes'])} passes, "
        f"failed {record['failed']}/{record['attempted']} jobs "
        f"(failed_frac {record['failed'] / record['attempted']:g}); "
        f"job_tail_ms is p{tail_info['percentile']:.1f} of {tail_info['samples']} seeded jobs; "
        f"python {record['python']}, numpy {record['numpy']}, nproc {record['nproc']}; "
        f"record {record_path.relative_to(ROOT)}"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
