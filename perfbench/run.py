"""End-to-end benchmark of `cvplab verify-all`, with an optional traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload ring-minimize --seed 0 --seconds 35 --trace 0

One client runs the workload's configs through `cvplab.cli.run("verify-all",
...)` in a closed loop: each config starts after the previous one returns.
Passes over the configs repeat while another pass of average length
still ends within `--seconds` (at least one pass runs), and a config's
time is its fastest run (see `_best_seconds`).  Every run's outputs are
checked (see `check.py`).

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics of
traced passes, which alternate with untraced ones to give the tracing
overhead.  Details (provenance, every run, spans) go to `.bench_run/`.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import check
import tracer
import workloads

ROOT = Path.cwd()
RUN_DIR = ROOT / ".bench_run"
SETUP_SAMPLES = 5
SUBPROCESS_TIMEOUT_S = 120


def _import_cvplab():
    """Import `cvplab` from this checkout's `src/`, never an installed copy."""
    package = ROOT / "src" / "cvplab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cvplab sources at {package}; "
                         "run from the repository root")
    sys.path.insert(0, str(ROOT / "src"))
    import cvplab
    import cvplab.cli

    if Path(cvplab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported cvplab from {cvplab.__file__}")
    return cvplab


def _openblas():
    """numpy's bundled OpenBLAS as (get_num_threads, set_num_threads), or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("scipy_openblas_", ""), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def _provenance(workload: str, seed: int) -> dict:
    """Environment of the run; BLAS threads are lowered to nproc if above it."""
    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    calls = _openblas()
    if calls is not None:
        threads = calls[0]()
        if threads > nproc:
            calls[1](nproc)
            threads = calls[0]()
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
        commit = out.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cvplab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": threads, "nproc": nproc,
            "machine": platform.machine(), "git_commit": commit,
            "src_sha256": src.hexdigest()}


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Interpreter start to configs loaded, measured in fresh interpreters."""
    samples = []
    for k in range(SETUP_SAMPLES):
        directory = RUN_DIR / f"setup-{k}"
        shutil.rmtree(directory, ignore_errors=True)
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(Path(workloads.__file__).resolve()),
             workload, str(seed), str(directory)],
            cwd=ROOT, text=True, capture_output=True, check=True,
            timeout=SUBPROCESS_TIMEOUT_S)
        samples.append(float(out.stdout.split()[-1]) - start)
        shutil.rmtree(directory)
    return samples


def _run_pass(cvplab, configs, pass_index: int, trace: tracer.Tracer | None):
    """Run every config once; check outputs after the pass, untimed."""
    cli = sys.modules["cvplab.cli"]
    outs = []
    if trace is not None:
        trace.install()
    try:
        for k, (label, path) in enumerate(configs):
            out_dir = RUN_DIR / f"out-{k:02d}"
            shutil.rmtree(out_dir, ignore_errors=True)
            start = time.perf_counter()
            try:
                code = cli.run("verify-all", str(path), str(out_dir), quiet=True)
            except Exception:  # a run that raises is counted as failed
                code = "raised: " + traceback.format_exc()
            outs.append((label, path, out_dir, code, time.perf_counter() - start))
    finally:
        if trace is not None:
            trace.restore()
    records = []
    for label, path, out_dir, code, seconds in outs:
        problems, failing = check.check_run(cvplab, path, out_dir, code)
        shutil.rmtree(out_dir, ignore_errors=True)
        records.append({"config": label, "pass": pass_index,
                        "traced": trace is not None, "seconds": seconds,
                        "exit_code": code, "failing_verdicts": failing,
                        "problems": problems})
    return records


def _best_seconds(passes) -> dict[str, float]:
    """Each config's fastest run over the passes.

    Other load on a shared machine only ever adds time, and its slow
    spells can last a whole run, so the fastest of many short runs is the
    steadiest estimate of a config's cost (the rule `timeit` follows).
    """
    best = {}
    for records in passes:
        for r in records:
            best[r["config"]] = min(best.get(r["config"], np.inf), r["seconds"])
    return best


def _tail(samples: list[float]) -> tuple[str, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            return f"p{q}", cuts[q - 1]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + (workloads.TINY,))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cvplab = _import_cvplab()
    RUN_DIR.mkdir(exist_ok=True)
    provenance = _provenance(args.workload, args.seed)
    setup = _setup_seconds(args.workload, args.seed)
    configs = workloads.write_configs(args.workload, args.seed,
                                      RUN_DIR / "configs")
    # Warm-up: lazy imports and first-call costs stay out of the timed passes.
    warm = workloads.write_configs(workloads.TINY, 0, RUN_DIR / "warm-up")
    records = _run_pass(cvplab, warm, -1, None)

    passes, traces = [], []
    start = time.monotonic()
    rounds = 0
    while True:
        passes.append(_run_pass(cvplab, configs, len(passes), None))
        if args.trace:
            traces.append((len(passes), tracer.Tracer()))
            passes.append(_run_pass(cvplab, configs, *traces[-1]))
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break  # another round of average length would overrun
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records += [r for p in passes for r in p]
    untraced = [p for p in passes if not p[0]["traced"]]
    seconds = [r["seconds"] for p in untraced for r in p]
    verified = sum(r["exit_code"] == 0 and not r["problems"]
                   for p in untraced for r in p)
    failed = sum(bool(r["problems"]) for r in records)
    summary = {"run_s.count": len(seconds), "failed_share": 1 - verified / len(seconds),
               "setup_s.samples": setup, "passes": len(passes)}
    tail = _tail(seconds)
    if tail is not None:
        summary[f"run_s.{tail[0]}"] = tail[1]

    if args.trace:
        per_pass = [tracer.layer_metrics(t) for _, t in traces]
        metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
                   for name, (_, unit) in per_pass[0].items()}
        untraced_wall = sum(_best_seconds(untraced).values())
        traced_wall = sum(_best_seconds(
            p for p in passes if p[0]["traced"]).values())
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        metrics["trace.overhead_share"] = (
            (traced_wall - untraced_wall) / untraced_wall, "ratio")
        with gzip.open(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz",
                       "wt") as handle:
            handle.write("pass,id,parent,name,start,end\n")
            for pass_index, t in traces:
                t.write_spans(handle, str(pass_index))
    else:
        best = _best_seconds(untraced).values()
        metrics = {
            "wall_s": (sum(best), "s"),
            "run_s.p50": (statistics.median(best), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "verified_share": (verified / len(seconds), "ratio"),
        }

    shutil.rmtree(RUN_DIR / "configs", ignore_errors=True)
    shutil.rmtree(RUN_DIR / "warm-up", ignore_errors=True)
    printed = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    detail = {"provenance": provenance, "summary": summary, "metrics": printed,
              "runs": records}
    (RUN_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1))

    print("provenance " + json.dumps(provenance))
    for name, value in summary.items():
        print(f"{name} {value}")
    for r in records:
        if r["problems"]:
            print(f"FAILED {r['config']} pass {r['pass']}: {r['problems']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
