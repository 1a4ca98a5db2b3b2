"""Output check of one `verify-all` run, independent of `cvplab`'s own tables.

The action and the weak Euler-Lagrange residual of the saved measure are
recomputed here with a direct double sum over the kernel profiles (not
`pair_tables`) and compared with `state.json`, which is loaded through
`load_state` against the config's hash.
"""

from __future__ import annotations

import numpy as np

# Every stage of verify-all sets these; a missing one means a stage was skipped.
EXPECTED_VERDICTS = frozenset({
    "optimizer_converged", "weak_el", "q1_full_psd", "sp1_full_psd",
    "sp1_scalar_only_psd", "probe_stable", "linfield_kernel_nonempty",
    "osi_nonnegative"})
# Relative tolerance of the recomputed sums against the saved ones.
REL_TOL = 1e-9


def _profile(lagrangian: dict):
    """g(s) and g'(s) of the radial kernel, s the squared distance."""
    family, p = lagrangian["family"], lagrangian["params"]
    if family == "gaussian":
        s2 = float(p["sigma"]) ** 2
        return (lambda s: np.exp(-s / s2)), (lambda s: -np.exp(-s / s2) / s2)
    if family == "compact-support-power":
        r2, k = float(p["radius"]) ** 2, int(p["power"])
        return ((lambda s: np.maximum(0.0, r2 - s) ** k),
                (lambda s: -k * np.maximum(0.0, r2 - s) ** (k - 1)))
    raise ValueError(f"no reference profile for the {family!r} family")


def direct_sums(raw_config: dict, measure: dict) -> tuple[float, float, float]:
    """(action, nu, weak residual) of a saved torus measure, by direct double sum."""
    g, g1 = _profile(raw_config["lagrangian"])
    x = np.asarray(measure["points"], dtype=float)
    w = np.asarray(measure["weights"], dtype=float)
    periods = np.asarray(measure["manifold"]["periods"], dtype=float)
    rows = np.empty(len(w))
    grads = np.empty_like(x)
    for i in range(len(w)):
        d = x[i] - x
        d -= periods * np.round(d / periods)
        s = (d * d).sum(axis=1)
        rows[i] = w @ g(s)
        grads[i] = 2.0 * (w * g1(s)) @ d
    values = rows - rows.min()
    weak = max(float(np.abs(values).max()), float(np.abs(grads).max()))
    return float(w @ rows), 2.0 * float(rows.min()), weak


def check_run(cvplab, config_path, out_dir, exit_code) -> tuple[list[str], list[str]]:
    """Problems found in one run's outputs, and the run's failing verdicts."""
    if exit_code not in (0, 2):
        return [f"exit code {exit_code}"], []
    try:
        cfg = cvplab.load_config(config_path)
        state = cvplab.load_state(out_dir / "state.json", expected_config=cfg)
    except cvplab.CvpError as exc:
        return [f"state does not load: {exc}"], []
    failing = sorted(k for k, v in state.verdicts.items() if not v)
    problems = []
    missing = EXPECTED_VERDICTS - set(state.verdicts)
    if missing:
        problems.append(f"verdicts missing: {sorted(missing)}")
    if (exit_code == 0) != (not failing):
        problems.append(f"exit code {exit_code} with failing verdicts {failing}")
    action, nu, weak = direct_sums(cfg.raw, state.measure)
    scale = abs(nu) / 2.0
    try:
        saved = {"action": (state.probe_summary["base_action"], action, abs(action)),
                 "nu": (state.nu, nu, scale),
                 "weak residual": (state.el_report["weak_residual"], weak, scale)}
    except (KeyError, TypeError) as exc:
        return problems + [f"state lacks a checked field: {exc!r}"], failing
    for name, (theirs, ours, size) in saved.items():
        if not abs(theirs - ours) <= REL_TOL * max(size, 1.0):
            problems.append(f"{name} {theirs!r} differs from the direct sum {ours!r}")
    return problems, failing
