"""Command-line pipeline: minimize, diagnose, and verify configurations.

Exit codes: 0 = success with all verdicts passing, 2 = completed but some
verdict failed (e.g. a PSD check), 1 = operational error (a malformed
command line, bad config, unreadable paths, numerical breakdown).
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from pathlib import Path

import numpy as np

from .action import el_report
from .config import (ExperimentConfig, RunState, load_config, load_state,
                     save_state)
from .errors import CvpError, DimensionMismatchError, SchemaError, number
from .jets import (BASIS_FULL, BASIS_SCALAR, FORM_Q1, FORM_SP1, TAU_PSD,
                   FormEvaluator, gram_spectrum, nonnegative)
from .linfield import (arc_label, arc_osi, linfield_operator, linfield_residual,
                       osi_report, random_regions, solve_linfield)
from .measure import DiscreteMeasure
from .optimizer import minimize
from .variations import stability_probe

log = logging.getLogger(__name__)
log.setLevel(logging.INFO)
log.propagate = False   # run's own handler prints each line once

STAGES = ("minimize", "report", "spectrum", "fragment", "linfield", "osi",
          "verify-all")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvplab",
        description="Numerical laboratory for causal variational principles.")
    parser.add_argument("stage", choices=STAGES)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seeds")
    parser.add_argument("--quiet", action="store_true")
    # a malformed command line exits 1 with one line, not 2: exit 2 is a verdict
    parser.error = lambda message: parser.exit(1, f"error: {message}\n")
    return parser


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _get_measure(cfg: ExperimentConfig, out_dir: Path, state: RunState,
                 seed: int | None, reuse: bool = True) -> DiscreteMeasure:
    """Reuse a previously minimized measure, with its optimizer verdict and
    section, if one matches the config and the seed; minimize otherwise.
    A state or a measure that does not load is read as absent."""
    state_path = out_dir / "state.json"
    if reuse and state_path.exists():
        try:
            prior = load_state(state_path, expected_config=cfg)
            rho = DiscreteMeasure.from_dict(prior.measure)   # None raises too
        except (SchemaError, DimensionMismatchError):
            rho = None
        if (rho is not None and rho.manifold == cfg.manifold
                and prior.seed == seed
                and "optimizer_converged" in prior.verdicts):
            log.info("reusing minimized measure from state.json")
            state.verdicts["optimizer_converged"] = \
                prior.verdicts["optimizer_converged"]
            state.optimizer = prior.optimizer
            return rho
    rho0 = cfg.initial_measure(seed_override=seed)
    rho, trace = minimize(rho0, cfg.kernel, cfg.optimizer)
    _write_csv(out_dir / "trace.csv", ["iteration", "action", "weak_residual", "step"],
               trace.rows)
    state.verdicts["optimizer_converged"] = trace.status == "converged"
    state.optimizer = trace.to_dict()
    log.info(f"minimize: status={trace.status} after {trace.rows[-1][0]} iterations "
             f"({trace.newton_steps} Newton, {trace.trials} trials), "
             f"pruned atoms {trace.pruned_points}, "
             f"merged atoms {trace.merged_points}")
    return rho


def _stage_report(cfg, ev, state):
    rep = el_report(ev)
    state.nu = ev.nu
    state.el_report = rep
    ok = rep["weak_residual"] <= cfg.optimizer.tolerance_weak_el
    state.verdicts["weak_el"] = bool(ok)
    log.info(f"report: weak residual {rep['weak_residual']:.3e} "
             f"({'pass' if ok else 'FAIL'})")


def _stage_spectrum(ev, state):
    for form_id, basis in ((FORM_Q1, BASIS_FULL), (FORM_SP1, BASIS_FULL),
                           (FORM_SP1, BASIS_SCALAR)):
        rep = gram_spectrum(ev, form_id, basis)
        state.gram_reports.append(rep.to_dict())
        key = f"{form_id.lower()}_{basis}_psd"
        state.verdicts[key] = rep.psd
        log.info(f"spectrum: {form_id}/{basis} min eig {rep.min_eigenvalue:.3e} "
                 f"({'pass' if rep.psd else 'FAIL'})")


def _stage_fragment(cfg, ev, state, out_dir, seed):
    probe = cfg.probe
    rep = stability_probe(
        ev, fragments=probe["fragments"], tau_grid=probe["tau_grid"],
        trials=probe["trials"], seed=probe["seed"] if seed is None else seed)
    _write_csv(out_dir / "probe.csv", ["trial", "tau", "delta_action"], rep.rows)
    state.probe_summary = rep.to_dict()
    stable = rep.min_delta >= -1e-12 * abs(rep.base_action)
    state.verdicts["probe_stable"] = bool(stable)
    log.info(f"fragment: min delta {rep.min_delta:.3e}, worst quadratic-fit "
             f"deviation {rep.max_fit_deviation:.3%} ({'pass' if stable else 'FAIL'})")


def _stage_linfield(ev, state, out_dir):
    """Solve the linearized field equations: the kernel jets and, as a list,
    each one's residual, which the OSI stage reads; the spectrum stage
    records the SP1 eigenvalues the kernel was cut from."""
    jets, threshold = solve_linfield(ev)
    residuals = linfield_residual(ev, jets).tolist()
    state.linfield_summary = {
        "dimension": len(jets), "threshold": threshold, "residuals": residuals,
        "lattice": ev.lattice,
        "solutions": [{"scalar": u[:, 0].tolist(), "vector": u[:, 1:].tolist()}
                      for u in jets]}
    state.verdicts["linfield_kernel_nonempty"] = len(jets) >= 1
    np.save(out_dir / "linfield_operator.npy", linfield_operator(ev))
    path = "dense" if ev.lattice is None else f"lattice symbols, factors {ev.lattice}"
    log.info(f"linfield: kernel dimension {len(jets)} ({path}), "
             f"max |eigenvalue| {np.abs(ev.sp1_eigenvalues).max():.3e}")
    return jets, residuals


# residual below which a kernel jet counts as a solution of the linearized
# field equations, so that its surface-layer integrals are expected positive
OSI_SOLUTION_TOLERANCE = 1e-6


# the region family of a measure that is not one-dimensional
RANDOM_REGIONS = {"count": 32, "seed": 0}


def _stage_osi(ev, jets, residuals, state, out_dir):
    """Surface-layer integrals of the kernel jets over every proper arc of a
    one-dimensional (or one-point) measure, or over seeded random regions:
    the (k, R) table goes to osi.npy, each row's least value to its report."""
    rho, n = ev.rho, ev.rho.count
    regions = None   # on arcs: arc_osi's table, arc_label's labels
    if rho.manifold.dim == 1 or n < 2:   # a one-point measure has no arc
        family = {"kind": "arcs", "count": n * (n - 1)}
    else:
        family = {"kind": "random", **RANDOM_REGIONS}
        regions = random_regions(rho, **RANDOM_REGIONS)

    def label(index: int) -> str:
        return arc_label(n, index) if regions is None else regions[1][index]

    # with no region or no solution jet nothing is checked, so the verdict fails
    if not (family["count"] and len(jets)):
        values = np.empty((0, 0))
    elif regions is None:
        values = arc_osi(ev, jets)
    else:
        values = osi_report(ev, jets, regions)
    np.save(out_dir / "osi.npy", values)   # row k is jet k, in the family's order
    worst = float(values.min()) if values.size else None
    scale = float(np.abs(values).max(initial=0.0))
    ok = worst is not None and nonnegative(worst, scale)
    # the first region within the verdict's band of its row's minimum: the
    # OSI of a solution is conserved, so on a ring every arc ties to rounding
    reports = [{"solution_index": k, "min_value": float(row.min()),
                "min_region": label(int(np.argmax(row <= row.min() + TAU_PSD * scale))),
                "solution_hypothesis": residual <= OSI_SOLUTION_TOLERANCE,
                "all_positive": float(row.min()) > 0.0}
               for k, (row, residual) in enumerate(zip(values, residuals))]
    state.osi_summary = {"region_family": family, "min_value": worst,
                         "reports": reports}
    state.verdicts["osi_nonnegative"] = bool(ok)
    log.info(f"osi: {len(jets)} solution jet(s), minimum value "
             f"{'none' if worst is None else f'{worst:.3e}'} "
             f"({'pass' if ok else 'FAIL'})")


def run(stage: str, config_path: str, out_dir: str, seed: int | None = None,
        quiet: bool = False) -> int:
    handler = logging.NullHandler() if quiet else logging.StreamHandler(sys.stdout)
    log.addHandler(handler)
    try:
        if seed is not None:
            number(seed, "--seed", integer=True, least=0)
        cfg = load_config(config_path)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        state = RunState(config_hash=cfg.hash, seed=seed)
        rho = _get_measure(cfg, out, state, seed, reuse=stage != "minimize")
        state.measure = rho.to_dict()
        ev = FormEvaluator(rho, cfg.kernel)  # for report and every later stage
        _stage_report(cfg, ev, state)
        # linfield and osi record the SP1 spectrum they cut the kernel from
        if stage in ("spectrum", "linfield", "osi", "verify-all"):
            _stage_spectrum(ev, state)
        if stage in ("fragment", "verify-all"):
            _stage_fragment(cfg, ev, state, out, seed)
        if stage in ("linfield", "osi", "verify-all"):
            jets, residuals = _stage_linfield(ev, state, out)
        if stage in ("osi", "verify-all"):
            _stage_osi(ev, jets, residuals, state, out)
        save_state(state, out / "state.json")
        if not state.all_verdicts_pass():
            failing = sorted(k for k, v in state.verdicts.items() if not v)
            log.info(f"failing verdicts: {failing}")
            return 2
        return 0
    except (CvpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return run(args.stage, args.config, args.out, seed=args.seed,
               quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
