#!/usr/bin/env bash
# End-to-end checks of the cvplab command line on the README config and its
# variants: outputs, exit codes and error lines.  Runs the command named by
# CVPLAB (default: the installed console script `cvplab`) in a fresh
# temporary directory, which it removes on exit.
#
#   bash .github/console_script.sh                     # after `pip install .`
#   CVPLAB="python -m cvplab.cli" PYTHONPATH=src bash .github/console_script.sh
set -eu

CVPLAB=${CVPLAB:-cvplab}   # split into words where it is used: it may be a command line
# relative PYTHONPATH entries, such as src in a checkout, still hold after the cd
if [ -n "${PYTHONPATH:-}" ]; then
  PYTHONPATH=$(python -c 'import os, sys; print(os.pathsep.join(map(os.path.abspath, sys.argv[1].split(os.pathsep))))' "$PYTHONPATH")
  export PYTHONPATH
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

cat > config.json <<'EOF'
{
  "schema_version": 1,
  "manifold": {"kind": "torus", "dim": 1, "periods": [5.0]},
  "lagrangian": {"family": "compact-support-power",
                 "params": {"radius": 1.4142135623730951, "power": 3}},
  "initial_measure": {"generator": {"count": 5, "seed": 0, "total_volume": 5.0}},
  "optimizer": {"tolerance_weak_el": 1e-6},
  "probe": {"fragments": 3, "trials": 100, "tau_grid": [-0.02, -0.01, 0.01, 0.02], "seed": 0}
}
EOF
$CVPLAB verify-all --config config.json --out results
python - <<'PY'
import csv
import json
from pathlib import Path

import numpy as np

out = Path("results")
for name in ("state.json", "trace.csv", "probe.csv", "linfield_operator.npy"):
    assert (out / name).is_file(), f"missing output {name}"
# state.json holds the ell jet and the spectra: no CSV copies them
for name in ("el_report.csv", "spectrum.csv"):
    assert not (out / name).exists(), f"unexpected output {name}"
op = np.load(out / "linfield_operator.npy")
# the 5 atoms converge to a ring of 4: atom 3 merged into its twin
assert op.dtype == np.float64 and op.shape == (8, 8), (op.dtype, op.shape)
state = json.loads((out / "state.json").read_text())
# the optimizer's stop reason and counters: each iteration built
# at least one trial's pair tables
optimizer = state["optimizer"]
assert optimizer["status"] == "converged", optimizer
assert 0 < optimizer["iterations"] <= optimizer["trials"], optimizer
assert optimizer["merged_points"] == [3], optimizer
summary = state["linfield_summary"]
# the translation alone: no weight-exchange jet between coincident atoms
assert summary["dimension"] == 1, summary
assert summary["lattice"] is None, summary   # unequal weights: dense
# one SP1 solve feeds both outputs: the kernel is cut from the
# SP1/full spectrum, at 1e-10 of its largest |eigenvalue|
(sp1,) = [r["eigenvalues"] for r in state["gram_reports"]
          if (r["form_id"], r["basis"]) == ("SP1", "full")]
magnitude = np.abs(sp1)
assert summary["threshold"] == 1e-10 * magnitude.max(), summary["threshold"]
assert summary["dimension"] == np.count_nonzero(magnitude <= summary["threshold"])
# the operator is W^-1 SP1: times the point weights it is the
# symmetric SP1 Gram, whose spectrum gram_reports holds
weights = np.asarray(state["measure"]["weights"])
gram = np.repeat(weights, op.shape[0] // weights.size)[:, None] * op
scale = np.abs(gram).max()
assert np.abs(gram - gram.T).max() <= 1e-12 * scale
drift = np.abs(np.linalg.eigvalsh(gram) - sp1).max()
assert drift <= 1e-12 * scale, (drift, scale)
# each solution jet: n scalars and an n x m vector block
for jet in summary["solutions"]:
    assert len(jet["scalar"]) == 4 and np.shape(jet["vector"]) == (4, 1), jet
# the 12 proper arcs of 4 points, one value per arc in each report
osi = state["osi_summary"]
assert len(osi["regions"]) == 12, osi["regions"]
assert all(len(r["osi"]) == 12 for r in osi["reports"]), osi["reports"]
# one report per solution jet, flagged a solution from that jet's
# residual in the linfield summary, with the minimum of its own values
assert len(osi["reports"]) == summary["dimension"], osi["reports"]
for k, report in enumerate(osi["reports"]):
    assert "residual" not in report, (k, report)
    hypothesis = summary["residuals"][k] <= 1e-6
    assert report["solution_hypothesis"] is hypothesis, (k, report)
    assert report["min_value"] == min(report["osi"]), (k, report)
cfg = json.loads(Path("config.json").read_text())
# one row per trial and tau; the summary's minimum is the column's
with (out / "probe.csv").open(newline="") as handle:
    rows = [(int(row["trial"]), float(row["tau"]), float(row["delta_action"]))
            for row in csv.DictReader(handle)]
deltas = [ds for _, _, ds in rows]
assert len(deltas) == cfg["probe"]["trials"] * len(cfg["probe"]["tau_grid"]) == 400
assert state["probe_summary"]["min_delta"] == min(deltas), (
    state["probe_summary"]["min_delta"], min(deltas))
# each fit is the least-squares tau^2 coefficient of its own trial's rows
fits = state["probe_summary"]["fits"]
assert [fit["trial"] for fit in fits] == list(range(100)), fits
for fit in fits:
    mine = [(tau, ds) for trial, tau, ds in rows if trial == fit["trial"]]
    assert [tau for tau, _ in mine] == cfg["probe"]["tau_grid"], mine
    fitted = (sum(tau**2 * ds for tau, ds in mine)
              / sum(tau**4 for tau, _ in mine))
    assert abs(fit["fitted"] - fitted) <= 1e-12 * abs(fitted), (fit, fitted)
# every prediction is finite, and the summary's deviation is the
# largest relative gap between a fit and its non-zero prediction
assert all(np.isfinite(fit["predicted"]) for fit in fits), fits
gaps = [abs(fit["fitted"] - fit["predicted"]) / abs(fit["predicted"])
        for fit in fits if fit["predicted"] != 0]
deviation = state["probe_summary"]["max_fit_deviation"]
assert abs(max(gaps, default=0.0) - deviation) <= 1e-12 * deviation, (
    max(gaps, default=0.0), deviation)
cfg["probe"]["trials"] = 0
Path("no-trials.json").write_text(json.dumps(cfg))
cfg["probe"]["trials"] = 3
cfg["optimizer"] = {"tolerance_weak_el": 1e-14, "max_iterations": 300}
Path("no-convergence.json").write_text(json.dumps(cfg))
cfg = json.loads(Path("config.json").read_text())
cfg["manifold"]["periods"] = [40.0]
cfg["initial_measure"]["generator"].update(count=40, total_volume=40.0)
Path("n40.json").write_text(json.dumps(cfg))
PY
# the osi stage on its own runs the spectrum stage and the linfield
# step first, so its spectra, its linearized-field records and its
# OSI summary are verify-all's
$CVPLAB osi --config config.json --out osi-alone
python - <<'PY'
import json
from pathlib import Path

alone = json.loads(Path("osi-alone/state.json").read_text())
full = json.loads(Path("results/state.json").read_text())
for key in ("gram_reports", "linfield_summary", "osi_summary"):
    assert json.dumps(alone[key]) == json.dumps(full[key]), key
for verdict in ("q1_full_psd", "sp1_full_psd", "sp1_scalar_only_psd",
                "linfield_kernel_nonempty"):
    assert alone["verdicts"][verdict] is full["verdicts"][verdict] is True
op = "linfield_operator.npy"
assert (Path("osi-alone", op).read_bytes()
        == Path("results", op).read_bytes()), "operators differ"
PY
# count and period 40: converges once its floor atom is pruned, and
# returns 34 atoms once five coincident pairs are merged
$CVPLAB verify-all --config n40.json --out n40
python - <<'PY'
import json
from pathlib import Path

state = json.loads(Path("n40/state.json").read_text())
assert len(state["measure"]["weights"]) == 34, "expected 39 - 5 merged atoms"
assert state["optimizer"]["pruned_points"] == [23], state["optimizer"]
summary = state["osi_summary"]
assert all(len(r["osi"]) == len(summary["regions"]) for r in summary["reports"])
PY
# an exact 6 x 6 triangular lattice on its sheared torus takes its
# SP1 spectrum from the symbols of its translation group
python - <<'PY'
import json
import math
from pathlib import Path

side = 6
cfg = json.loads(Path("config.json").read_text())
cfg["manifold"]["dim"] = 2
cfg["manifold"]["periods"] = [float(side), side * math.sqrt(3.0) / 2.0]
cfg["lagrangian"]["params"]["radius"] = 1.2
cfg["initial_measure"] = {
    "points": [[(i + 0.5 * j) % side, j * math.sqrt(3.0) / 2.0]
               for i in range(side) for j in range(side)],
    "weights": [1.0] * side**2}
Path("lattice.json").write_text(json.dumps(cfg))
PY
$CVPLAB verify-all --config lattice.json --out lattice
python - <<'PY'
import json
from pathlib import Path

import numpy as np

out = Path("lattice")
state = json.loads((out / "state.json").read_text())
summary = state["linfield_summary"]
assert summary["lattice"] == [3, 12], summary["lattice"]
assert summary["dimension"] == 2, summary["dimension"]   # the translations
# the symbols' one solve feeds both outputs: the kernel is cut from
# the SP1/full spectrum, at 1e-10 of its largest |eigenvalue|
(sp1,) = [r["eigenvalues"] for r in state["gram_reports"]
          if (r["form_id"], r["basis"]) == ("SP1", "full")]
magnitude = np.abs(sp1)
assert summary["threshold"] == 1e-10 * magnitude.max(), summary["threshold"]
assert summary["dimension"] == np.count_nonzero(magnitude <= summary["threshold"])
osi = state["osi_summary"]
assert len(osi["reports"]) == summary["dimension"], osi["reports"]
for k, report in enumerate(osi["reports"]):
    hypothesis = summary["residuals"][k] <= 1e-6
    assert report["solution_hypothesis"] is hypothesis, (k, report)
# the symbols' spectrum against the dense operator W^-1 SP1
op = np.load(out / "linfield_operator.npy")
weights = np.asarray(state["measure"]["weights"])
gram = np.repeat(weights, op.shape[0] // weights.size)[:, None] * op
scale = np.abs(gram).max()
drift = np.abs(np.linalg.eigvalsh(gram) - sp1).max()
assert drift <= 1e-12 * scale, (drift, scale)
# the kernel jets, mapped from the symbols alone, are orthonormal
# solutions of the dumped operator
u = np.array([np.column_stack([jet["scalar"], jet["vector"]]).ravel()
              for jet in summary["solutions"]])
assert np.abs(u @ u.T - np.eye(len(u))).max() <= 1e-12, u @ u.T
defect = np.abs(op @ u.T).max()
assert defect <= 1e-12 * np.abs(op).max(), (defect, np.abs(op).max())
# the operator is the evaluator's one SP1 Gram over the weights, bit for bit
from cvplab import DiscreteMeasure, FormEvaluator, load_config

rho = DiscreteMeasure.from_dict(state["measure"])
ev = FormEvaluator(rho, load_config("lattice.json").kernel)
rows = np.repeat(rho.weights, op.shape[0] // rho.count)[:, None]
assert op.tobytes() == (ev.sp1_gram / rows).tobytes()
PY
code=0
$CVPLAB verify-all --config no-trials.json --out rejected || code=$?
test "$code" -eq 1
code=0
$CVPLAB verify-all --config config.json --out negative-seed --seed -1 2> seed.err || code=$?
test "$code" -eq 1
grep -q "^error: --seed" seed.err   # a message, not a traceback
# a malformed command line is an operational error too: exit 2 is a
# failing verdict, and argparse's usage block is not printed
code=0
$CVPLAB verify-all --config config.json --out float-seed --seed 1.5 2> float-seed.err || code=$?
test "$code" -eq 1
head -n 1 float-seed.err | grep -q "^error: argument --seed"
test "$(wc -l < float-seed.err)" -eq 1
# verify-all reuses the minimized measure and keeps its failed verdict
code=0
$CVPLAB minimize --config no-convergence.json --out reused || code=$?
test "$code" -eq 2
code=0
$CVPLAB verify-all --config no-convergence.json --out reused || code=$?
test "$code" -eq 2
# a lagrangian parameter that the family does not have is rejected
python - <<'PY'
import json
from pathlib import Path

cfg = json.loads(Path("config.json").read_text())
cfg["lagrangian"]["params"]["sigma"] = 1.0
Path("unknown-param.json").write_text(json.dumps(cfg))
cfg = json.loads(Path("config.json").read_text())
cfg["optimizer"] = {"armijo_slope": -10}
Path("armijo-slope.json").write_text(json.dumps(cfg))
cfg = json.loads(Path("config.json").read_text())
cfg["lagrangian"]["params"]["radius"] = 10**400
Path("huge-radius.json").write_text(json.dumps(cfg))
cfg = json.loads(Path("config.json").read_text())
cfg["initial_measure"] = {"points": [[0.0], [1.0], [2.0], [3.0], [True]],
                          "weights": [1.0] * 5}
Path("true-point.json").write_text(json.dumps(cfg))
cfg = json.loads(Path("config.json").read_text())
cfg["probe"]["jet_scale"] = 1.0
Path("jet-scale.json").write_text(json.dumps(cfg))
cfg = json.loads(Path("config.json").read_text())
cfg["probe"]["trials"] = 10**9
Path("huge-probe.json").write_text(json.dumps(cfg))
# each named by the key that must be rejected
cfg = json.loads(Path("config.json").read_text())
cfg["optimiser"] = cfg.pop("optimizer")
Path("optimiser.json").write_text(json.dumps(cfg))
cfg = json.loads(Path("config.json").read_text())
cfg["schema_version"] = True
Path("schema_version.json").write_text(json.dumps(cfg))
cfg = json.loads(Path("config.json").read_text())
cfg["initial_measure"].update(points=[[0.0], [1.0], [2.0], [3.0], [4.0]],
                              weights=[1.0] * 5)
Path("generator.json").write_text(json.dumps(cfg))
# a torus samples its cell, so its generator takes no box
cfg = json.loads(Path("config.json").read_text())
cfg["initial_measure"]["generator"]["box"] = [[0.0], [1.0]]
Path("box.json").write_text(json.dumps(cfg))
# the positivity bound is cvplab.jets.TAU_PSD: a tolerances section is unknown
cfg = json.loads(Path("config.json").read_text())
cfg["tolerances"] = {"tau_psd": 1e-8}
Path("tolerances.json").write_text(json.dumps(cfg))
PY
code=0
$CVPLAB verify-all --config unknown-param.json --out unknown-param 2> param.err || code=$?
test "$code" -eq 1
grep -q "^error: " param.err   # a message, not a traceback
# the line-search constants are not optimizer settings
code=0
$CVPLAB verify-all --config armijo-slope.json --out armijo-slope 2> armijo.err || code=$?
test "$code" -eq 1
head -n 1 armijo.err | grep -q "^error: .*armijo_slope"
# a number that no float holds is rejected with a message
code=0
$CVPLAB verify-all --config huge-radius.json --out huge-radius 2> huge.err || code=$?
test "$code" -eq 1
head -n 1 huge.err | grep -q "^error: "
test "$(wc -l < huge.err)" -eq 1   # one line, no traceback
# JSON true is not the number 1.0
code=0
$CVPLAB verify-all --config true-point.json --out true-point 2> true.err || code=$?
test "$code" -eq 1
head -n 1 true.err | grep -q "^error: .*boolean"
test "$(wc -l < true.err)" -eq 1
# the probe draws unit jets: a jet scale is an unknown probe field
code=0
$CVPLAB verify-all --config jet-scale.json --out jet-scale 2> jet.err || code=$?
test "$code" -eq 1
head -n 1 jet.err | grep -q "^error: .*jet_scale"
# a probe that memory cannot hold is rejected before anything is drawn
code=0
$CVPLAB verify-all --config huge-probe.json --out huge-probe 2> probe.err || code=$?
test "$code" -eq 1
head -n 1 probe.err | grep -q "^error: probe of "
test "$(wc -l < probe.err)" -eq 1
# a misspelled section, a schema_version of JSON true, a generator next to
# explicit points, a box on a torus and the removed tolerances section:
# one message naming the key, no section dropped
for key in optimiser schema_version generator box tolerances; do
  code=0
  $CVPLAB verify-all --config "$key.json" --out "$key" 2> "$key.err" || code=$?
  test "$code" -eq 1
  head -n 1 "$key.err" | grep -q "^error: .*$key"
  test "$(wc -l < "$key.err")" -eq 1
done
# a state.json with malformed verdicts is read as absent: minimize again
python - <<'PY'
import json
from pathlib import Path

path = Path("results/state.json")
state = json.loads(path.read_text())
state["verdicts"] = "optimizer_converged"
path.write_text(json.dumps(state))
Path("results/trace.csv").unlink()
PY
$CVPLAB report --config config.json --out results
test -s results/trace.csv
# so is a state.json whose measure does not build
python - <<'PY'
import json
from pathlib import Path

path = Path("results/state.json")
state = json.loads(path.read_text())
state["measure"]["points"] = "x"
path.write_text(json.dumps(state))
Path("results/trace.csv").unlink()
PY
$CVPLAB report --config config.json --out results
test -s results/trace.csv
# so is a state.json whose measure holds a number that no float holds
python - <<'PY'
import json
from pathlib import Path

path = Path("results/state.json")
state = json.loads(path.read_text())
state["measure"]["points"][0] = [10**400]
path.write_text(json.dumps(state))
Path("results/trace.csv").unlink()
PY
$CVPLAB report --config config.json --out results
test -s results/trace.csv
# and a state.json whose root is not an object
echo '[]' > results/state.json
rm results/trace.csv
$CVPLAB report --config config.json --out results
test -s results/trace.csv
