"""Command-line pipeline: minimize, diagnose, and verify configurations.

Exit codes: 0 = success with all verdicts passing, 2 = completed but some
verdict failed (e.g. a PSD check), 1 = operational error (bad config,
unreadable paths, numerical breakdown).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .action import el_report
from .config import (ExperimentConfig, RunState, load_config, load_state,
                     save_state)
from .errors import CvpError, SchemaError
from .jets import (BASIS_FULL, BASIS_SCALAR, FORM_Q1, FORM_SP1, FormEvaluator,
                   gram_spectrum)
from .linfield import (arc_regions, assemble_linfield, osi_report,
                       random_regions, solve_linfield)
from .measure import DiscreteMeasure
from .optimizer import minimize
from .variations import stability_probe

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
    return parser


def _get_measure(cfg: ExperimentConfig, out_dir: Path, state: RunState,
                 seed: int | None, log, reuse: bool = True) -> DiscreteMeasure:
    """Reuse a previously minimized measure, with its optimizer verdict, if
    one matches the config and the seed; minimize otherwise."""
    state_path = out_dir / "state.json"
    if reuse and state_path.exists():
        try:
            prior = load_state(state_path, expected_config=cfg)
        except SchemaError:
            prior = None
        if (prior is not None and prior.measure is not None
                and prior.seed == seed
                and "optimizer_converged" in prior.verdicts):
            log("reusing minimized measure from state.json")
            state.verdicts["optimizer_converged"] = \
                prior.verdicts["optimizer_converged"]
            return DiscreteMeasure.from_dict(prior.measure)
    rho0 = cfg.initial_measure(seed_override=seed)
    rho, trace = minimize(rho0, cfg.kernel, cfg.optimizer)
    trace.write_csv(out_dir / "trace.csv")
    state.verdicts["optimizer_converged"] = trace.status == "converged"
    log(f"minimize: status={trace.status} after {trace.rows[-1][0]} iterations "
        f"({trace.newton_steps} Newton), pruned atoms {trace.pruned_points}")
    return rho


def _stage_report(cfg, ev, state, out_dir, log):
    rep = el_report(ev)
    rep.write_csv(out_dir / "el_report.csv")
    state.nu = rep.nu
    state.el_report = rep.to_dict()
    ok = rep.weak_residual <= cfg.tolerances["tol_weak_el"]
    state.verdicts["weak_el"] = bool(ok)
    log(f"report: weak residual {rep.weak_residual:.3e} "
        f"({'pass' if ok else 'FAIL'})")


def _stage_spectrum(cfg, ev, state, out_dir, log):
    tau = cfg.tolerances["tau_psd"]
    rows = []
    for form_id, basis in ((FORM_Q1, BASIS_FULL), (FORM_SP1, BASIS_FULL),
                           (FORM_SP1, BASIS_SCALAR)):
        rep = gram_spectrum(ev, form_id, basis, tau_psd=tau)
        state.gram_reports.append(rep.to_dict())
        key = f"{form_id.lower()}_{basis}_psd"
        state.verdicts[key] = rep.psd
        log(f"spectrum: {form_id}/{basis} min eig {rep.min_eigenvalue:.3e} "
            f"({'pass' if rep.psd else 'FAIL'})")
        for k, lam in enumerate(rep.eigenvalues):
            rows.append((form_id, basis, k, lam))
    with (out_dir / "spectrum.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["form", "basis", "index", "eigenvalue"])
        for form_id, basis, k, lam in rows:
            writer.writerow([form_id, basis, k, repr(float(lam))])


def _stage_fragment(cfg, ev, state, out_dir, seed, log):
    probe = cfg.probe
    rep = stability_probe(
        ev,
        fragments=probe["fragments"],
        tau_grid=probe["tau_grid"],
        trials=probe["trials"],
        seed=probe["seed"] if seed is None else seed,
        jet_scale=float(probe.get("jet_scale", 1.0)))
    rep.write_csv(out_dir / "probe.csv")
    state.probe_summary = rep.to_dict()
    stable = rep.min_delta >= -1e-12 * abs(rep.base_action)
    state.verdicts["probe_stable"] = bool(stable)
    log(f"fragment: min delta {rep.min_delta:.3e}, worst quadratic-fit "
        f"deviation {rep.max_fit_deviation:.3%} ({'pass' if stable else 'FAIL'})")


def _stage_linfield(op, state, out_dir, log):
    sol = solve_linfield(op)
    state.linfield_summary = sol.to_dict()
    ok = sol.dimension >= 1
    state.verdicts["linfield_kernel_nonempty"] = bool(ok)
    np.save(out_dir / "linfield_operator.npy", op.matrix)
    log(f"linfield: kernel dimension {sol.dimension}, "
        f"max |eigenvalue| {np.abs(sol.eigenvalues).max():.3e}")
    return sol


def _stage_osi(cfg, op, sol, state, log):
    rho = op.rho
    if rho.manifold.dim == 1 or rho.count < 2:
        regions = arc_regions(rho)    # a one-point measure has none
    else:
        regions = random_regions(rho, count=32, seed=0)
    labels = regions[1]
    # with no region or no solution jet nothing is checked, so the verdict fails
    reports = [{"solution_index": k, **osi_report(op, u, regions).to_dict()}
               for k, u in enumerate(sol.solutions) if labels]
    worst = min((r["min_value"] for r in reports), default=None)
    scale = max(1.0, max((abs(v) for r in reports for v in r["osi"]),
                         default=0.0))
    ok = worst is not None and worst >= -cfg.tolerances["tau_psd"] * scale
    # the region labels once; each report holds its values in their order
    state.osi_summary = {"regions": labels, "reports": reports,
                         "min_value": worst}
    state.verdicts["osi_nonnegative"] = bool(ok)
    log(f"osi: {len(sol.solutions)} solution jet(s), minimum value "
        f"{'none' if worst is None else f'{worst:.3e}'} "
        f"({'pass' if ok else 'FAIL'})")


def run(stage: str, config_path: str, out_dir: str, seed: int | None = None,
        quiet: bool = False) -> int:
    def log(msg):
        if not quiet:
            print(msg)

    try:
        if seed is not None and seed < 0:
            raise SchemaError(f"--seed must be an integer >= 0, not {seed}")
        cfg = load_config(config_path)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        state = RunState(config_hash=cfg.hash, seed=seed)
        rho = _get_measure(cfg, out, state, seed, log,
                           reuse=stage != "minimize")
        state.measure = rho.to_dict()
        ev = FormEvaluator(rho, cfg.kernel)  # for report and every later stage
        _stage_report(cfg, ev, state, out, log)
        if stage in ("spectrum", "verify-all"):
            _stage_spectrum(cfg, ev, state, out, log)
        if stage in ("fragment", "verify-all"):
            _stage_fragment(cfg, ev, state, out, seed, log)
        if stage in ("linfield", "osi", "verify-all"):
            op = assemble_linfield(ev)
            if stage == "osi":
                sol = solve_linfield(op)
            else:
                sol = _stage_linfield(op, state, out, log)
        if stage in ("osi", "verify-all"):
            _stage_osi(cfg, op, sol, state, log)
        save_state(state, out / "state.json")
    except CvpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not state.all_verdicts_pass():
        failing = sorted(k for k, v in state.verdicts.items() if not v)
        log(f"failing verdicts: {failing}")
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return run(args.stage, args.config, args.out, seed=args.seed,
               quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
