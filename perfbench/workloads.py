"""Benchmark workloads: `cvplab` configs generated from a workload seed.

Every workload does the same amount of work at every seed, so that a
change in a metric comes from the code and not from the seed:

- ``ring-osi`` and ``lattice-2d``: the seed applies a global translation
  and a permutation of the point order to an exact equilibrium.  Their
  probe seed is fixed, because with few trials the probe's random
  fragment counts change the work (and the peak memory).
- ``ring-minimize``: the starts are the fixed seeded random starts of
  ``RING_MINIMIZE``; the seed draws each config's probe seed.  Moving a
  start by a symmetry changes rounding, and that alone can flip a run
  between converged and budget-exhausted (ROADMAP Open item 3).

Each config runs in well under a second, so that one run of the benchmark
repeats it many times (see ``run.py`` for why that matters).

Run as a script, this module is the set-up probe of ``run.py``: it imports
``cvplab``, writes the workload's configs, loads each with
``load_config`` and prints the monotonic clock when done.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("ring-minimize", "ring-osi", "lattice-2d")
# Not listed in BENCHMARK.json: one README-sized config for the self-test.
TINY = "tiny"

_README_KERNEL = {"family": "compact-support-power",
                  "params": {"radius": math.sqrt(2.0), "power": 3}}
_GAUSSIAN_KERNEL = {"family": "gaussian", "params": {"sigma": 1.0}}
_TAU_GRID = [-0.02, -0.01, 0.01, 0.02]

# (label, kernel, count, period, generator seed of the start).  These are
# the README family at counts 5, 8 and 12, the criterion-1 Gaussian ring
# and the n=40 rung of the ROADMAP ladder.
RING_MINIMIZE = (
    [(f"readme-n{n}-s{s}", _README_KERNEL, n, float(n), s)
     for n in (5, 8, 12) for s in range(6)]
    + [(f"gauss-n5-s{s}", _GAUSSIAN_KERNEL, 5, 2.0 * math.pi, s)
       for s in range(3)]
    + [("readme-n40-s0", _README_KERNEL, 40, 40.0, 0)])
# Every converging start needs at most 594 iterations.
RING_MINIMIZE_MAX_ITERATIONS = 1_000
# Fewer than the README's 100 trials, so that minimize (ring-minimize) and
# the surface-layer integrals (ring-osi) stay the main cost.
RING_PROBE_TRIALS = 20

RING_OSI_COUNT = 40
LATTICE_SIDE = 10
LATTICE_KERNEL = {"family": "compact-support-power",
                  "params": {"radius": 1.2, "power": 3}}
LATTICE_PROBE_TRIALS = 8


def _config(kernel: dict, periods: list[float], points: np.ndarray,
            weights: np.ndarray, probe_seed: int, trials: int,
            max_iterations: int | None = None) -> dict:
    optimizer = {"tolerance_weak_el": 1e-6}
    if max_iterations is not None:
        optimizer["max_iterations"] = max_iterations
    return {
        "schema_version": 1,
        "manifold": {"kind": "torus", "dim": len(periods), "periods": periods},
        "lagrangian": kernel,
        "initial_measure": {"points": points.tolist(),
                            "weights": weights.tolist()},
        "optimizer": optimizer,
        "probe": {"fragments": 3, "trials": trials, "tau_grid": _TAU_GRID,
                  "seed": probe_seed},
    }


def _moved(rng: np.random.Generator, points: np.ndarray, weights: np.ndarray,
           periods: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Translate all points by one random vector and shuffle their order."""
    shift = rng.uniform(0.0, periods)
    order = rng.permutation(points.shape[0])
    return np.mod(points[order] + shift, periods), weights[order]


def _random_start(count: int, period: float, seed: int):
    """The start `random_measure` draws for a 1-D torus generator config.

    Written out here so that the workload stays fixed if `cvplab` changes
    its generator.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, period, size=(count, 1))
    w = rng.uniform(0.5, 1.5, count)
    return pts, w * (count / w.sum())


def _ring_minimize(rng: np.random.Generator) -> list[tuple[str, dict]]:
    out = []
    for label, kernel, count, period, start_seed in RING_MINIMIZE:
        pts, w = _random_start(count, period, start_seed)
        out.append((label, _config(
            kernel, [period], pts, w, probe_seed=int(rng.integers(2**31)),
            trials=RING_PROBE_TRIALS,
            max_iterations=RING_MINIMIZE_MAX_ITERATIONS)))
    return out


def _ring_osi(rng: np.random.Generator) -> list[tuple[str, dict]]:
    n = RING_OSI_COUNT
    pts, w = _moved(rng, np.arange(n, dtype=float)[:, None], np.ones(n),
                    np.array([float(n)]))
    return [(f"ring-n{n}", _config(_README_KERNEL, [float(n)], pts, w,
                                   probe_seed=0, trials=RING_PROBE_TRIALS))]


def _lattice_2d(rng: np.random.Generator) -> list[tuple[str, dict]]:
    side = LATTICE_SIDE
    i, j = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    periods = np.array([float(side), side * math.sqrt(3.0) / 2.0])
    pts = np.stack([(i + 0.5 * j).ravel() % side,
                    (j * math.sqrt(3.0) / 2.0).ravel()], axis=1)
    pts, w = _moved(rng, pts, np.ones(side * side), periods)
    return [(f"triangular-{side}x{side}", _config(
        LATTICE_KERNEL, periods.tolist(), pts, w, probe_seed=0,
        trials=LATTICE_PROBE_TRIALS))]


def _tiny(rng: np.random.Generator) -> list[tuple[str, dict]]:
    pts, w = _random_start(5, 5.0, 0)
    pts, w = _moved(rng, pts, w, np.array([5.0]))
    return [("readme-n5-s0", _config(_README_KERNEL, [5.0], pts, w,
                                     probe_seed=0, trials=4))]


_GENERATORS = {"ring-minimize": _ring_minimize, "ring-osi": _ring_osi,
               "lattice-2d": _lattice_2d, TINY: _tiny}


def generate(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's (label, config) pairs; the same seed gives the same configs."""
    return _GENERATORS[workload](np.random.default_rng([seed, 7919]))


def write_configs(workload: str, seed: int, directory: Path) -> list[tuple[str, Path]]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, (label, cfg) in enumerate(generate(workload, seed)):
        path = directory / f"{k:02d}-{label}.json"
        path.write_text(json.dumps(cfg))
        paths.append((label, path))
    return paths


def _setup_probe(workload: str, seed: int, directory: str) -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from cvplab import load_config

    for _, path in write_configs(workload, seed, Path(directory)):
        load_config(path)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    _setup_probe(sys.argv[1], int(sys.argv[2]), sys.argv[3])
