#!/usr/bin/env python3
"""pcptest benchmark: time one CLI workload end to end, or trace its layers.

    python3 benchmarks/run.py --workload report-demo12-boosted --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 35 --trace 0

Runs from a source checkout: the package is imported from ``src/`` next to
this directory, and the run exits with an error when it is missing.  One
workload runs at a time, in this process, as a closed loop: each command
invocation starts when the previous one has ended.  BLAS is pinned to one
thread: on these matrix sizes a second thread did not shorten any workload,
and with one thread any parallelism measured is the program's own.

With ``--trace 0`` the run repeats the workload's command while another
invocation still fits in ``--seconds`` (at least once) and reports the
end-to-end metrics:

- ``run_s``: median seconds of one invocation;
- ``setup_s``: seconds to import the package plus the median of
  SETUP_REPEATS rounds of sampling the dataset and writing the CSV, schema
  and config;
- ``peak_rss_mb``: peak resident memory of the process.

Both times are converted to a reference host speed with reference_s(),
timed before and after every invocation; the measured wall times go to
stderr.  With ``--trace 1`` the run invokes the
command once plain and once under the tracer and reports the per-layer
metrics, in measured seconds.  Every invocation's
outputs are checked; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in its own child process, one after
another, and prints each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

WORKLOAD_NAMES = ("report-demo12-boosted", "report-default8-boosted", "hyperopt-default8-netgrid")

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("data.self_s", "s"),
    ("synth.self_s", "s"),
    ("functionals.self_s", "s"),
    ("network.self_s", "s"),
    ("trees.self_s", "s"),
    ("learners.self_s", "s"),
    ("inference.self_s", "s"),
    ("cli.self_s", "s"),
    ("trees.fit_boosted_s", "s"),
    ("trees.fit_boosted.calls", "count"),
    ("trees.round_ms", "ms"),
    ("trees.nodes", "count"),
    ("trees.predict_s", "s"),
    ("network.fit_s", "s"),
    ("network.fits", "count"),
    ("network.epochs", "count"),
    ("network.epoch_ms", "ms"),
    ("network.forward_probs_s", "s"),
    ("learners.cross_fit_predict_s", "s"),
    ("learners.cross_fit_predict.calls", "count"),
    ("learners.hyperopt_network_s", "s"),
    ("learners.train_any.calls", "count"),
    ("inference.intersection_test_s", "s"),
    ("inference.intersection_test.calls", "count"),
    ("inference.mc_normals", "count"),
    ("inference.sorted_split_s", "s"),
    ("functionals.per_obs_stats_s", "s"),
    ("functionals.debiased_group_correlation_s", "s"),
    ("functionals.debiased_group_correlation.calls", "count"),
    ("data.load_csv_s", "s"),
    ("data.one_hot_encode_s", "s"),
    ("data.one_hot_encode.calls", "count"),
    ("synth.sample_dataset_s", "s"),
    ("cli.write_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("process.cpu_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
)

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

# Time metrics are converted to a host on which reference_s() takes
# REFERENCE_AT_S seconds; it took 0.9 to 1.6 s on the 2-vCPU machine the
# baseline was measured on.
REFERENCE_LOOPS = 3000
REFERENCE_AT_S = 1.0

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def reference_s() -> float:
    """Seconds for a fixed loop of the kinds of work the program does: plain
    Python, row gathers, sorts and small matrix products.

    On a shared virtual machine the same work ran from 21 to 36 s within
    the hour, with CPU time equal to wall time: the host, not the
    program, set the pace.  Timing this loop next to the measurement, in
    a phase of its own so the program's cache use cannot touch it, gives
    the host's speed at that time.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    X, W = rng.random((4000, 49)), rng.random((49, 24))
    rows = rng.integers(0, 4000, (64, 1500))
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_LOOPS):
        sub = X[rows[i % 64]]
        acc += float(np.sort(sub[:, i % 49])[700]) + float((sub[:64] @ W).max())
        acc += sum(j * 0.5 for j in range(3000))
    return time.perf_counter() - t0


class Run:
    """One workload and seed: inputs, invocations, checks and metrics."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.manifest: dict | None = None

    def setup(self) -> float:
        """Write the inputs SETUP_REPEATS times; return the median seconds."""
        import workloads

        times, digests = [], set()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.inputs = workloads.write_inputs(self.workload, self.seed, str(self.workdir))
            times.append(time.perf_counter() - t0)
            digests.add(self.inputs.digest)
        if len(digests) != 1:
            self.problems.append("the same seed wrote different input files")
        self.expected = workloads.expected_group_correlations(self.inputs)
        return statistics.median(times)

    def invoke(self, tracer: Tracer | None = None) -> tuple[float, float, bool]:
        """Run the command once, under ``tracer`` if one is given, and check
        its outputs; return (wall s, CPU s, passed)."""
        import pcptest.cli as cli
        import workloads

        shutil.rmtree(self.inputs.out_dir, ignore_errors=True)
        self.attempted += 1
        error = None
        with tracer if tracer is not None else contextlib.nullcontext():
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                cli.run_command(self.workload.command, cli.load_config(self.inputs.config_path))
            except Exception:
                error = traceback.format_exc()
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - c0
        if error is not None:
            problems = [f"command raised:\n{error}"]
        else:
            manifest, problems = workloads.check_outputs(self.workload, self.inputs, self.expected)
            if manifest is not None:
                if self.manifest is None:
                    self.manifest = manifest
                    problems += self.stored_manifest_problems(manifest)
                elif manifest != self.manifest:
                    problems.append("manifest differs from the previous invocation's")
        self.record(problems)
        return wall, cpu, not problems

    def record(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems += problems
            for p in problems:
                print(f"check failed [{self.workload.name} seed {self.seed}]: {p}", file=sys.stderr)

    def stored_manifest_problems(self, manifest: dict) -> list[str]:
        """Compare with the manifest an earlier process wrote for the same
        program, workload, seed and inputs; store it if there is none."""
        key = hashlib.sha256(
            f"{source_digest()}|{self.workload.name}|{self.seed}|{self.inputs.digest}".encode()
        ).hexdigest()[:24]
        path = WORK / "manifests" / f"{key}.json"
        if path.is_file():
            if json.loads(path.read_text()) != manifest:
                return [f"manifest differs from the one an earlier run stored in {path.name}"]
            return []
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(manifest, sort_keys=True))
        os.replace(tmp, path)
        return []

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def measure(workload, seed: int, seconds: float, trace: bool, import_s: float = 0.0) -> dict:
    """Run one workload for one seed and return the result object."""
    workdir = WORK / "work" / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        run = Run(workload, seed, workdir)
        if trace:
            with Tracer() as setup_tracer:
                run.setup()
            metrics = traced_metrics(run, setup_tracer)
        else:
            metrics = timed_metrics(run, seconds, import_s + run.setup())
        return run.result(metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_metrics(run: Run, seconds: float, setup_s: float) -> dict:
    """Invocations while another fits in ``seconds``, each between two
    reference loops; times are converted to the reference host speed."""
    start = time.perf_counter()
    references = [reference_s()]
    walls, scaled, ok_scaled = [], [], []
    while True:
        wall, _, ok = run.invoke()
        references.append(reference_s())
        walls.append(wall)
        scaled.append(wall * REFERENCE_AT_S / statistics.fmean(references[-2:]))
        if ok:
            ok_scaled.append(scaled[-1])
        if time.perf_counter() - start + max(walls) + references[-1] > seconds:
            break
    samples = ok_scaled or scaled
    run_s = statistics.median(samples)
    setup_s *= REFERENCE_AT_S / references[0]
    print(f"run_s samples: {len(samples)}, measured median {statistics.median(walls):.4f} s, "
          f"reference loops {' '.join(f'{r:.3f}' for r in references)} s, "
          f"error_rate {run.failed / run.attempted:g}", file=sys.stderr)
    tail = tail_percentile(samples)
    if tail is not None:
        print(f"run_s p{tail[0]}: {tail[1]:.4f} s", file=sys.stderr)
    values = {"run_s": run_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_metrics(run: Run, setup_tracer: Tracer) -> dict:
    """One plain and one traced invocation; the set-up was traced too."""
    plain_wall, plain_cpu, _ = run.invoke()
    tr = Tracer()
    traced_wall, _, _ = run.invoke(tr)

    values = {f"{layer}.self_s": s for layer, s in tr.self_by_layer().items()}
    fit_s = tr.inclusive_s("trees.fit_boosted")
    rounds = tr.counts["trees.rounds"]
    net_s = tr.inclusive_s("network.fit_softmax_network")
    epochs = tr.counts["network.epochs"]
    splits = tr.counts["inference.sorted_splits"]
    bytes_written = 0
    if run.manifest is not None:
        for entry in run.manifest["files"] + [{"name": "manifest.json"}]:
            bytes_written += os.path.getsize(os.path.join(run.inputs.out_dir, entry["name"]))
    values.update({
        "trees.fit_boosted_s": fit_s,
        "trees.fit_boosted.calls": tr.calls("trees.fit_boosted"),
        "trees.round_ms": 1000.0 * fit_s / rounds if rounds else 0.0,
        "trees.nodes": tr.counts["trees.nodes"],
        "trees.predict_s": tr.inclusive_s("trees.BoostModel.predict_probs")
        + tr.inclusive_s("trees.ForestModel.predict_probs"),
        "network.fit_s": net_s,
        "network.fits": tr.calls("network.fit_softmax_network"),
        "network.epochs": epochs,
        "network.epoch_ms": 1000.0 * net_s / epochs if epochs else 0.0,
        "network.forward_probs_s": tr.inclusive_s("network.forward_probs"),
        "learners.cross_fit_predict_s": tr.inclusive_s("learners.cross_fit_predict"),
        "learners.cross_fit_predict.calls": tr.calls("learners.cross_fit_predict"),
        "learners.hyperopt_network_s": tr.inclusive_s("learners.hyperopt_network"),
        "learners.train_any.calls": tr.calls("learners.train_any"),
        "inference.intersection_test_s": tr.inclusive_s("inference.intersection_test"),
        "inference.intersection_test.calls": tr.calls("inference.intersection_test"),
        "inference.mc_normals": tr.counts["inference.mc_normals"],
        "inference.sorted_split_s": tr.inclusive_s("inference.sorted_groups_run") / splits
        if splits else 0.0,
        "functionals.per_obs_stats_s": tr.inclusive_s("functionals.per_obs_stats"),
        "functionals.debiased_group_correlation_s":
            tr.inclusive_s("functionals.debiased_group_correlation"),
        "functionals.debiased_group_correlation.calls":
            tr.calls("functionals.debiased_group_correlation"),
        "data.load_csv_s": tr.inclusive_s("data.load_csv"),
        "data.one_hot_encode_s": tr.inclusive_s("data.one_hot_encode"),
        "data.one_hot_encode.calls": tr.calls("data.one_hot_encode"),
        "synth.sample_dataset_s": setup_tracer.inclusive_s("synth.sample_dataset") / SETUP_REPEATS,
        "cli.write_s": tr.inclusive_s("cli.write_table") + tr.inclusive_s("cli.write_density"),
        "cli.bytes_written": bytes_written,
        "process.cpu_s": plain_cpu,
        "trace.run_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def run_all(args) -> int:
    """Each workload in a child process; print every metric with its unit."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"error_rate {res['failed'] / res['attempted']:g}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:46s} {v['value']:>14.6g} {v['unit']}")
            combined["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pcptest" / "__init__.py").is_file():
        print(f"error: no pcptest sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import pcptest.cli  # noqa: F401  (timed: part of set-up)

    import_s = time.perf_counter() - t0
    import workloads

    print(f"nproc {nproc}, BLAS threads {blas_threads()}, python {sys.version.split()[0]}, "
          f"numpy {sys.modules['numpy'].__version__}", file=sys.stderr)
    res = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
