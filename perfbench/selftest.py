"""Self-test of the benchmark harness at a tiny size.

Run from the repository root:  python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json prints with its unit,
that counts repeat exactly across two traced runs at one seed, that
traced and untraced runs give identical verdicts, and that the tracer
wraps `pair_tables` wherever it is bound and restores every original.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import tracer

ROOT = Path.cwd()
SEED = 3
EXACT_UNITS = ("count", "B")


def _bench(trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
         "--workload", "tiny", "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, text=True, capture_output=True, check=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".bench_run" /
                         f"result-tiny-seed{SEED}-trace{trace}.json").read_text())
    return result, detail


def _check_metrics(result: dict, declared: list[dict], errors: list[str]) -> None:
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    if printed != wanted:
        errors.append(f"printed metrics {printed} differ from declared {wanted}")
    if not result["correct"] or result["failed"]:
        errors.append(f"harness output check failed: {result}")


def _check_tracer(errors: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import cvplab  # noqa: F401  (loads every module into sys.modules)

    modules = {n: m for n, m in sys.modules.items() if n.startswith("cvplab")}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    original = sys.modules["cvplab.kernels"].pair_tables
    t = tracer.Tracer()
    t.install()
    try:
        for name in ("optimizer", "action", "jets", "linfield", "kernels"):
            if sys.modules[f"cvplab.{name}"].pair_tables is original:
                errors.append(f"pair_tables is not wrapped in cvplab.{name}")
    finally:
        t.restore()
    for n, m in modules.items():
        changed = [k for k, v in vars(m).items() if before[n].get(k) is not v]
        if changed:
            errors.append(f"{n} not restored: {changed}")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []
    plain, _ = _bench(0)
    _check_metrics(plain, declared["end_to_end"], errors)
    first, detail = _bench(1)
    second, _ = _bench(1)
    for result in (first, second):
        _check_metrics(result, declared["per_layer"], errors)
    for name, m in first["metrics"].items():
        if m["unit"] in EXACT_UNITS and m != second["metrics"][name]:
            errors.append(f"{name} differs across runs: {m} vs "
                          f"{second['metrics'][name]}")
    verdicts = {}
    for r in detail["runs"]:
        if r["pass"] >= 0:
            verdicts.setdefault(r["traced"], set()).add(
                (r["config"], str(r["exit_code"]), tuple(r["failing_verdicts"])))
    if len(verdicts) != 2 or verdicts[True] != verdicts[False]:
        errors.append(f"traced and untraced verdicts differ: {verdicts}")
    _check_tracer(errors)
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
