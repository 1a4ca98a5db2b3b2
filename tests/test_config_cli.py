from __future__ import annotations

import csv
import importlib
import json
import logging
import sys

import numpy as np
import pytest

from cvplab import (DimensionMismatchError, DiscreteMeasure, FormEvaluator,
                    SchemaError, arc_regions, load_config, load_state,
                    pair_tables, parse_config, save_state)
from cvplab.cli import OSI_SOLUTION_TOLERANCE, _stage_osi, main, run
from cvplab.config import (_PROBE_VALUES_CAP, ExperimentConfig, RunState,
                           config_hash)
from cvplab.jets import jet_pair_block, translation
from cvplab.linfield import KERNEL_THRESHOLD_REL, linfield_residual

HUGE = 10**400   # an integer that no float holds
# json reads no integer of more than 4300 digits, so it is written as text
DIGITS = "1" + "0" * 5000

BASE_CONFIG = {
    "schema_version": 1,
    "manifold": {"kind": "torus", "dim": 1, "periods": [5.0]},
    "lagrangian": {"family": "compact-support-power",
                   "params": {"radius": 1.4142135623730951, "power": 3}},
    "initial_measure": {"points": [[0.05], [1.02], [1.97], [3.01], [4.04]],
                        "weights": [1.1, 0.95, 1.0, 0.9, 1.05]},
    "optimizer": {},
    "probe": {"fragments": 2, "trials": 5,
              "tau_grid": [-0.02, 0.02], "seed": 1},
}


def _write_config(tmp_path, data=None, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data if data is not None else BASE_CONFIG))
    return str(path)


def test_parse_config_happy_path():
    cfg = parse_config(BASE_CONFIG)
    assert cfg.manifold.kind == "torus"
    assert cfg.kernel.family == "compact-support-power"
    rho = cfg.initial_measure()
    assert rho.count == 5
    assert cfg.hash == config_hash(BASE_CONFIG)


def test_parse_config_generator_and_seed_override():
    data = dict(BASE_CONFIG)
    data["initial_measure"] = {"generator": {"count": 4, "seed": 3,
                                             "total_volume": 4.0}}
    cfg = parse_config(data)
    a = cfg.initial_measure()
    b = cfg.initial_measure(seed_override=3)
    assert np.array_equal(a.points, b.points)
    c = cfg.initial_measure(seed_override=4)
    assert not np.array_equal(a.points, c.points)


def _generator_box(box, dim=None) -> dict:
    """Config sections with a generator of this box, on the base torus or,
    with dim, on a euclidean chart."""
    sections = {"initial_measure": {"generator": {
        "count": 5, "seed": 0, "total_volume": 5.0, "box": box}}}
    if dim is not None:
        sections["manifold"] = {"kind": "euclidean", "dim": dim}
    return sections


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("manifold"),
    lambda d: d.pop("lagrangian"),
    lambda d: d.pop("initial_measure"),
    lambda d: d.update(schema_version=99),
    lambda d: d.update(lagrangian={"family": "nope", "params": {}}),
    lambda d: d.update(initial_measure={"points": [[0.0]]}),
    # the positivity bound is jets.TAU_PSD, not a setting: the section is unknown
    lambda d: d.update(tolerances={"tau_psd": 1e-8}),
    lambda d: d.update(optimizer={"bogus_knob": 2}),
    lambda d: d["probe"].update(trials=0),
    lambda d: d["probe"].update(fragments=0),
    lambda d: d["probe"].update(fragments=2.5),
    lambda d: d["probe"].update(seed=-1),
    lambda d: d["probe"].update(tau_grid=[]),
    lambda d: d["probe"].update(tau_grid=[0.0]),
    lambda d: d["probe"].update(tau_grid=[0.02, float("nan")]),
    lambda d: d["probe"].update(jet_scale=0.0),
    lambda d: d["probe"].update(jet_scale=float("inf")),
    # beyond half the period 5 the wrapped kernel has a kink
    lambda d: d["lagrangian"]["params"].update(radius=2.6),
    lambda d: d.update(optimizer={"max_iterations": "10"}),
    lambda d: d.update(optimizer={"max_iterations": 10.5}),
    lambda d: d.update(optimizer={"tolerance_weak_el": True}),
    lambda d: d.update(optimizer={"step_size_initial": float("nan")}),
    lambda d: d.update(initial_measure={"generator": 5}),
    lambda d: d.update(initial_measure={"generator": {
        "count": 5, "seed": -3, "total_volume": 5.0}}),
    lambda d: d.update(initial_measure={"generator": {
        "count": "five", "seed": 0, "total_volume": 5.0}}),
    lambda d: d.update(initial_measure={"generator": {
        "count": 0, "seed": 0, "total_volume": 5.0}}),
    lambda d: d.update(initial_measure={"generator": {
        "count": 5, "seed": 0, "total_volume": 0.0}}),
    lambda d: d.update(initial_measure={"generator": {
        "count": 5, "seed": 0, "total_volume": float("inf")}}),
    lambda d: d.update(probe=[1]),
    lambda d: d.update(optimizer=5),
    lambda d: d.update(lagrangian=5),
    lambda d: d["initial_measure"].update(points=[[0.0], ["a"]]),
    lambda d: d["initial_measure"].update(points=[[0.0], [1.0, 2.0]]),
    lambda d: d["manifold"].update(periods=["a"]),
    lambda d: d["manifold"].update(periods=5.0),
    lambda d: d["manifold"].update(periods=[float("inf")]),
    lambda d: d["manifold"].update(dim=1.5),
    lambda d: d.update(manifold={"kind": "euclidean", "dim": 1},
                       initial_measure={"generator": {
                           "count": 5, "seed": 0, "total_volume": 5.0, "box": "x"}}),
    # a torus samples its cell: a generator box there is an error
    lambda d: d.update(_generator_box([[0.0], [1.0]])),
    # a euclidean box is two finite corners [lo, hi] with lo < hi on every axis
    lambda d: d.update(_generator_box([0, 1], dim=2)),
    lambda d: d.update(_generator_box([[0, 0], [0, 0]], dim=2)),
    lambda d: d.update(_generator_box([[0, 0], [1, 1], [2, 2]], dim=2)),
    lambda d: d.update(_generator_box([[1.0], [0.0]], dim=1)),
    lambda d: d.update(_generator_box([[0.0], [float("inf")]], dim=1)),
    lambda d: d.update(_generator_box([[False], [True]], dim=1)),
    # the knobs nothing read are gone
    lambda d: d.update(optimizer={"seed": 0}),
    # the line-search and floor constants are not settings
    lambda d: d.update(optimizer={"step_size_initial": 0.1}),
    lambda d: d.update(optimizer={"armijo_factor": 0.5}),
    lambda d: d.update(optimizer={"armijo_slope": -10}),
    lambda d: d.update(optimizer={"weight_floor_rel": 1e-8}),
    lambda d: d.update(optimizer={"max_backtracks": 0}),
    # the probe draws unit jets: a jet scale is not a setting
    lambda d: d["probe"].update(jet_scale=1.0),
    # an integral float is not an integer
    lambda d: d["lagrangian"]["params"].update(power=4.0),
    # numbers a float cannot hold, such as 10**400
    lambda d: d["probe"].update(tau_grid=[-0.02, HUGE]),
    lambda d: d["probe"].update(jet_scale=HUGE),
    lambda d: d["probe"].update(fragments=HUGE),
    lambda d: d["probe"].update(trials=HUGE),
    lambda d: d["probe"].update(seed=HUGE),
    lambda d: d["lagrangian"]["params"].update(radius=HUGE),
    lambda d: d["lagrangian"]["params"].update(power=HUGE),
    lambda d: d.update(lagrangian={"family": "gaussian",
                                   "params": {"sigma": HUGE}}),
    lambda d: d["manifold"].update(periods=[HUGE]),
    lambda d: d["manifold"].update(dim=HUGE),
    lambda d: d.update(optimizer={"max_iterations": HUGE}),
    lambda d: d.update(optimizer={"tolerance_weak_el": HUGE}),
    lambda d: d.update(initial_measure={"generator": {
        "count": HUGE, "seed": 0, "total_volume": 5.0}}),
    lambda d: d.update(initial_measure={"generator": {
        "count": 5, "seed": HUGE, "total_volume": 5.0}}),
    lambda d: d.update(initial_measure={"generator": {
        "count": 5, "seed": 0, "total_volume": HUGE}}),
    # JSON true is not the number 1.0, at any depth of an array
    lambda d: d["initial_measure"].update(
        points=[[True], [1.02], [1.97], [3.01], [4.04]]),
    lambda d: d["initial_measure"].update(weights=[True, 0.95, 1.0, 0.9, 1.05]),
    # every config object rejects a key it does not know
    lambda d: d.update(optimiser={"max_iterations": 10}),
    lambda d: d.update(tolerence={"tau_psd": 1e-8}),
    lambda d: d.update(initial_measure={"generator": {
        "count": 5, "seed": 0, "total_volume": 5.0, "cont": 5}}),
    lambda d: d["manifold"].update(perodic=True),
    lambda d: d["lagrangian"].update(parms={"radius": 1.0}),
    lambda d: d["initial_measure"].update(generator={
        "count": 5, "seed": 0, "total_volume": 5.0}),
    lambda d: d["initial_measure"].update(box=[[0.0], [1.0]]),
    # a schema_version is an integer: neither JSON true nor 1.0
    lambda d: d.update(schema_version=True),
    lambda d: d.update(schema_version=1.0),
    # rejections of the generator, manifold, kernel and measure parsers
    lambda d: d.update(initial_measure={"generator": {"count": 5, "seed": 0}}),
    lambda d: d.update(manifold={"kind": "sphere", "dim": 1}),
    lambda d: d.update(manifold={"kind": "euclidean", "dim": 1, "periods": [5.0]}),
    lambda d: d["lagrangian"].update(params=5),
    lambda d: d["initial_measure"].update(weights=[1.1, 0.95, 1.0, 0.9]),
    lambda d: d["initial_measure"].update(weights=[1.1, -0.95, 1.0, 0.9, 1.05]),
    lambda d: d["initial_measure"].update(weights=[1.1, float("nan"), 1.0, 0.9, 1.05]),
])
def test_parse_config_rejects_malformed(mutate):
    data = json.loads(json.dumps(BASE_CONFIG))
    mutate(data)
    with pytest.raises(SchemaError):
        parse_config(data)


def test_parse_config_box_corner_of_the_wrong_length():
    """A box corner of the wrong length is rejected as a measure point of
    the wrong dimension is; neither is broadcast."""
    data = json.loads(json.dumps(BASE_CONFIG))
    data.update(_generator_box([[0.0], [1.0]], dim=2))
    with pytest.raises(DimensionMismatchError, match="dimension 1 on a 2-dim"):
        parse_config(data)
    data.update(_generator_box([[0.0, -1.0], [1.0, 2.0]], dim=2))
    points = parse_config(data).initial_measure().points
    assert points.shape == (5, 2)
    assert ((points >= [0.0, -1.0]) & (points < [1.0, 2.0])).all()


def test_parse_config_accepts_radius_of_half_the_period():
    data = json.loads(json.dumps(BASE_CONFIG))
    data["lagrangian"]["params"]["radius"] = 2.5
    assert parse_config(data).kernel.radius == 2.5


@pytest.mark.parametrize("initial", [
    BASE_CONFIG["initial_measure"],
    {"generator": {"count": 5, "seed": 0, "total_volume": 5.0}}])
def test_parse_config_caps_the_probe_size(initial, monkeypatch):
    """trials x fragments x points x (1 + m) x tau steps may reach the cap
    but not pass it, and a probe past it is rejected before a measure is
    built."""
    data = json.loads(json.dumps({**BASE_CONFIG, "initial_measure": initial}))
    per_trial = 2 * 5 * 2 * 2   # fragments, points, 1 + m, tau steps
    data["probe"]["trials"] = _PROBE_VALUES_CAP // per_trial
    assert parse_config(data).probe["trials"] * per_trial == _PROBE_VALUES_CAP
    builds = []
    monkeypatch.setattr(ExperimentConfig, "initial_measure",
                        lambda self, seed_override=None: builds.append(self))
    for trials in (_PROBE_VALUES_CAP // per_trial + 1, 10**9):
        data["probe"]["trials"] = trials
        with pytest.raises(SchemaError, match=f"^probe of {trials * per_trial} values"):
            parse_config(data)
    assert builds == []


def test_load_config_bad_json_names_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"manifold": }')
    with pytest.raises(SchemaError, match="line"):
        load_config(path)
    # an integer of more digits than json reads is an error, not a traceback
    path.write_text(json.dumps(BASE_CONFIG).replace('"seed": 1', f'"seed": {DIGITS}'))
    with pytest.raises(SchemaError):
        load_config(path)


def test_state_round_trip_bit_identical(tmp_path):
    cfg = parse_config(BASE_CONFIG)
    state = RunState(config_hash=cfg.hash, seed=7, nu=0.12345678901234567,
                     measure={"weights": [1.0 / 3.0]},
                     verdicts={"weak_el": True})
    path = tmp_path / "state.json"
    save_state(state, path)
    again = load_state(path, expected_config=cfg)
    assert again.nu == state.nu
    assert again.measure == state.measure
    assert again.verdicts == state.verdicts
    save_state(again, tmp_path / "state2.json")
    assert (tmp_path / "state.json").read_bytes() == \
        (tmp_path / "state2.json").read_bytes()


def test_state_tampered_hash_rejected(tmp_path):
    cfg = parse_config(BASE_CONFIG)
    state = RunState(config_hash=cfg.hash)
    path = tmp_path / "state.json"
    save_state(state, path)
    data = json.loads(path.read_text())
    data["config_hash"] = "0" * 64
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="config_hash"):
        load_state(path, expected_config=cfg)
    # without an expected config the state still loads
    assert load_state(path).config_hash == "0" * 64


def test_state_missing_optional_sections(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"schema_version": 1, "config_hash": "abc"}))
    state = load_state(path)
    assert state.osi_summary is None and state.measure is None
    with pytest.raises(SchemaError):
        load_state(_write_bad_version(tmp_path))


def _write_bad_version(tmp_path):
    path = tmp_path / "oldstate.json"
    path.write_text(json.dumps({"schema_version": 0, "config_hash": "abc"}))
    return path


def test_cli_minimize_exit_zero_and_state(tmp_path):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert run("minimize", cfg_path, str(out), quiet=True) == 0
    state = load_state(out / "state.json")
    assert state.verdicts["optimizer_converged"]
    assert (out / "trace.csv").exists()


def test_cli_verify_all_deterministic(tmp_path):
    cfg_path = _write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("verify-all", cfg_path, str(out1), quiet=True) == 0
    assert run("verify-all", cfg_path, str(out2), quiet=True) == 0
    assert (out1 / "state.json").read_bytes() == (out2 / "state.json").read_bytes()


def test_cli_exit_two_on_failed_verdict(tmp_path):
    data = {
        "schema_version": 1,
        "manifold": {"kind": "euclidean", "dim": 1},
        "lagrangian": {"family": "gaussian", "params": {"sigma": 1.0}},
        "initial_measure": {"points": [[0.0]], "weights": [2.0]},
    }
    cfg_path = _write_config(tmp_path, data)
    code = run("spectrum", cfg_path, str(tmp_path / "out"), quiet=True)
    assert code == 2
    state = load_state(tmp_path / "out" / "state.json")
    assert state.verdicts["q1_full_psd"] is False


@pytest.mark.parametrize("stage", ["osi", "verify-all"])
@pytest.mark.parametrize("point", [[0.0], [0.0, 0.0]])
def test_cli_one_point_measure_checks_no_region(tmp_path, stage, point):
    # a one-point measure has no proper region, so nothing is checked
    data = {
        "schema_version": 1,
        "manifold": {"kind": "euclidean", "dim": len(point)},
        "lagrangian": {"family": "gaussian", "params": {"sigma": 1.0}},
        "initial_measure": {"points": [point], "weights": [2.0]},
    }
    out = tmp_path / "out"
    assert run(stage, _write_config(tmp_path, data), str(out), quiet=True) == 2
    state = load_state(out / "state.json")
    assert state.verdicts["osi_nonnegative"] is False
    assert state.osi_summary == {"regions": [], "reports": [], "min_value": None}


def test_cli_exit_one_on_bad_config(tmp_path, capsys):
    data = json.loads(json.dumps(BASE_CONFIG))
    data["lagrangian"]["family"] = "unknown"
    cfg_path = _write_config(tmp_path, data)
    assert run("minimize", cfg_path, str(tmp_path / "out"), quiet=True) == 1
    assert run("minimize", str(tmp_path / "missing.json"),
               str(tmp_path / "out"), quiet=True) == 1
    # the line-search and floor constants are not optimizer settings
    for name, value in (("step_size_initial", 0.05), ("armijo_factor", 0.5),
                        ("armijo_slope", -10), ("weight_floor_rel", 1e-8),
                        ("max_backtracks", 0)):
        path = _write_config(tmp_path, {**BASE_CONFIG, "optimizer": {name: value}})
        capsys.readouterr()
        assert run("verify-all", path, str(tmp_path / "out"), quiet=True) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown optimizer config fields") and name in err
    # a negative seed: the generator's and the probe's seed alike
    data["lagrangian"]["family"] = "compact-support-power"
    data["initial_measure"] = {"generator": {"count": 5, "seed": 0,
                                             "total_volume": 5.0}}
    for path in (_write_config(tmp_path, data, "generator.json"),
                 _write_config(tmp_path)):
        assert run("verify-all", path, str(tmp_path / "out"), seed=-1,
                   quiet=True) == 1
        assert main(["verify-all", "--config", path, "--out",
                     str(tmp_path / "out"), "--seed", "-1", "--quiet"]) == 1


@pytest.mark.parametrize("mutate, key", [
    (lambda d: d.update(optimiser=d.pop("optimizer")), "optimiser"),
    (lambda d: d.update(tolerence={"tau_psd": 1e-8}), "tolerence"),
    (lambda d: d["manifold"].update(perodic=True), "perodic"),
    (lambda d: d["lagrangian"].update(parms={}), "parms"),
    (lambda d: d["initial_measure"].update(generator={
        "count": 5, "seed": 0, "total_volume": 5.0}), "generator"),
    (lambda d: d.update(initial_measure={"generator": {
        "count": 5, "seed": 0, "total_volume": 5.0, "cont": 5}}), "cont"),
    (lambda d: d.update(schema_version=True), "schema_version"),
    (lambda d: d.update(schema_version=1.0), "schema_version"),
    (lambda d: d.update(tolerances={"tau_psd": 1e-8}), "tolerances"),
    (lambda d: d.update(_generator_box([[0.0], [5.0]])), "box")],
    ids=["optimiser", "tolerence", "perodic", "parms", "generator-and-points",
         "cont", "version-true", "version-float", "tolerances", "torus-box"])
def test_cli_exit_one_naming_the_offending_key(tmp_path, capsys, mutate, key):
    """One stderr line that names the key, and no section silently dropped."""
    data = json.loads(json.dumps(BASE_CONFIG))
    mutate(data)
    capsys.readouterr()
    assert run("verify-all", _write_config(tmp_path, data), str(tmp_path / "out"),
               quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err


def test_cli_exit_one_on_a_non_finite_action(tmp_path, capsys):
    """A generator volume near the float limit overflows the start's action:
    the optimizer stops at iteration 1 and the run exits with a message."""
    data = {**BASE_CONFIG, "initial_measure": {"generator": {
        "count": 5, "seed": 0, "total_volume": 1e300}}}
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("verify-all", _write_config(tmp_path, data),
                   str(tmp_path / "out"), quiet=True) == 1
    assert capsys.readouterr().err == (
        "error: non-finite action or gradient at iteration 1\n")


@pytest.mark.parametrize("name, value", [
    ("points", [[0.05], [1.02], [True], [3.01], [4.04]]),
    ("weights", [1.1, 0.95, 1.0, 0.9, True])])
def test_cli_exit_one_on_a_boolean_in_the_measure(tmp_path, capsys, name, value):
    """One stderr line that names the array, not a measure holding 1.0."""
    data = json.loads(json.dumps(BASE_CONFIG))
    data["initial_measure"][name] = value
    cfg_path = _write_config(tmp_path, data)
    assert run("verify-all", cfg_path, str(tmp_path / "out"), quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err and "bool" in err


@pytest.mark.parametrize("params", [
    {"radius": 1.4, "power": 3, "scale": 2.0},
    {"radius": True, "power": 3},
    {"radius": "1.4", "power": 3},
    {"radius": float("inf"), "power": 3},
    {"radius": 1.4, "power": 3.5},
    {"radius": HUGE, "power": 3},
    {"sigma": HUGE},
])
def test_cli_exit_one_on_bad_kernel_params(tmp_path, capsys, params):
    data = json.loads(json.dumps(BASE_CONFIG))
    data["manifold"] = {"kind": "euclidean", "dim": 1}
    if "sigma" in params:
        data["lagrangian"]["family"] = "gaussian"
    data["lagrangian"]["params"] = params
    cfg_path = _write_config(tmp_path, data)
    assert run("verify-all", cfg_path, str(tmp_path / "out"), quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("section, name", [
    ("probe", "tau_grid"), ("probe", "fragments"), ("probe", "trials"),
    ("probe", "seed"), ("lagrangian", "radius"), ("manifold", "periods"),
    ("optimizer", "max_iterations"), ("optimizer", "tolerance_weak_el"),
    ("generator", "seed"), ("generator", "total_volume")])
def test_cli_exit_one_on_a_number_beyond_float_range(tmp_path, capsys,
                                                     section, name):
    """One stderr line that names the field, not a traceback."""
    data = json.loads(json.dumps(BASE_CONFIG))
    generator = {"count": 5, "seed": 0, "total_volume": 5.0}
    data["initial_measure"] = {"generator": generator}
    holder = {"probe": data["probe"], "lagrangian": data["lagrangian"]["params"],
              "manifold": data["manifold"], "optimizer": data["optimizer"],
              "generator": generator}[section]
    holder[name] = [HUGE] if name in ("tau_grid", "periods") else HUGE
    cfg_path = _write_config(tmp_path, data)
    assert run("verify-all", cfg_path, str(tmp_path / "out"), quiet=True) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("verdicts", "optimizer_converged"), ("verdicts", {"optimizer_converged": "yes"}),
    ("seed", "0"), ("seed", True), ("measure", [[0.0]]), ("measure", None),
    ("optimizer", [1]), ("measure.points", "x"),
    ("measure.weights", [-1.0, 1.0, 1.0, 1.0, 1.0]),
    ("measure.points", [[0.0, 0.0]] * 5),
    # numbers a float cannot hold
    ("measure.points", [[HUGE], [1.0], [2.0], [3.0], [4.0]]),
    ("measure.weights", [HUGE, 1.0, 1.0, 1.0, 1.0]),
    ("measure.manifold.periods", [HUGE]), ("seed", HUGE),
    # a boolean is not a number
    ("measure.points", [[True], [1.0], [2.0], [3.0], [4.0]]),
    ("measure.weights", [1.0, 1.0, True, 1.0, 1.0]),
    # a schema_version is an integer: neither JSON true nor 1.0
    ("schema_version", True), ("schema_version", 1.0)])
def test_cli_tampered_state_is_minimized_again(tmp_path, key, value):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert run("minimize", cfg_path, str(out), quiet=True) == 0
    (out / "trace.csv").unlink()
    raw = json.loads((out / "state.json").read_text())
    *parents, name = key.split(".")
    section = raw
    for parent in parents:
        section = section[parent]
    section[name] = value
    (out / "state.json").write_text(json.dumps(raw))
    # the state does not load, or its measure does not build
    with pytest.raises((SchemaError, DimensionMismatchError)):
        DiscreteMeasure.from_dict(load_state(out / "state.json").measure)
    assert run("report", cfg_path, str(out), quiet=True) == 0
    assert (out / "trace.csv").exists()
    state = load_state(out / "state.json")
    assert state.verdicts["optimizer_converged"] is True
    assert state.optimizer["status"] == "converged"


@pytest.mark.parametrize("text", ["[]", '"x"', '{"seed": %s}' % DIGITS],
                         ids=["list", "string", "digits"])
def test_cli_state_that_does_not_load_is_minimized_again(tmp_path, text):
    """A root that is not an object, or an integer json does not read."""
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert run("minimize", cfg_path, str(out), quiet=True) == 0
    (out / "trace.csv").unlink()
    (out / "state.json").write_text(text)
    with pytest.raises(SchemaError):
        load_state(out / "state.json")
    assert run("report", cfg_path, str(out), quiet=True) == 0
    assert (out / "trace.csv").exists()
    assert load_state(out / "state.json").verdicts["optimizer_converged"] is True


def test_cli_reuses_no_measure_on_another_manifold(tmp_path):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert run("minimize", cfg_path, str(out), quiet=True) == 0
    (out / "trace.csv").unlink()
    raw = json.loads((out / "state.json").read_text())
    raw["measure"]["manifold"]["periods"] = [6.0]
    (out / "state.json").write_text(json.dumps(raw))
    assert run("report", cfg_path, str(out), quiet=True) == 0
    assert (out / "trace.csv").exists()
    periods = load_state(out / "state.json").measure["manifold"]["periods"]
    assert periods == BASE_CONFIG["manifold"]["periods"]


def test_cli_state_records_the_optimizer_section(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert run("minimize", cfg_path, str(out)) == 0
    section = load_state(out / "state.json").optimizer
    assert set(section) == {"status", "iterations", "newton_steps", "trials",
                            "pruned_points", "merged_points", "floored_points"}
    assert section["status"] == "converged"
    assert 0 < section["iterations"] <= section["trials"]
    with (out / "trace.csv").open() as handle:
        assert section["iterations"] == int(handle.read().splitlines()[-1].split(",")[0])
    assert f"{section['trials']} trials" in capsys.readouterr().out
    # a reused measure carries its section over; the config hash ignores it
    assert run("verify-all", cfg_path, str(out), quiet=True) == 0
    state = load_state(out / "state.json")
    assert state.optimizer == section
    assert state.config_hash == parse_config(BASE_CONFIG).hash


def test_cli_csv_floats_are_python_float_reprs(tmp_path):
    """Each of the two CSVs of a run is its header and then one row per
    trace record and (trial, tau) pair.  Every float cell is the repr of a
    Python float, which reads back to the same float (a numpy scalar's repr
    would not): the rows are written from Python values."""
    out = tmp_path / "out"
    assert run("verify-all", _write_config(tmp_path), str(out), quiet=True) == 0
    state = load_state(out / "state.json")
    probe = BASE_CONFIG["probe"]
    tables = {}
    for name, header, floats, count in (
            ("trace.csv", ["iteration"], ["action", "weak_residual", "step"], None),
            ("probe.csv", ["trial"], ["tau", "delta_action"],
             probe["trials"] * len(probe["tau_grid"]))):
        with (out / name).open(newline="") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
        assert reader.fieldnames == header + floats, name
        assert rows and (count is None or len(rows) == count), name
        for row in rows:
            for column in floats:
                assert row[column] == repr(float(row[column])), (name, column, row)
        tables[name] = rows
    assert int(tables["trace.csv"][-1]["iteration"]) == state.optimizer["iterations"]


@pytest.mark.parametrize("case", ["dense", "lattice"])
def test_cli_linfield_summary_holds_the_cut_of_its_kernel(tmp_path, case):
    """The summary's threshold is the cut the kernel was taken with,
    KERNEL_THRESHOLD_REL times the largest |eigenvalue| of the SP1/full
    spectrum that the linfield stage records in `gram_reports`, and the
    kernel holds one solution jet per eigenvalue within it."""
    cfg = BASE_CONFIG if case == "dense" else _lattice_config(10)
    out = tmp_path / "out"
    assert run("linfield", _write_config(tmp_path, cfg), str(out), quiet=True) == 0
    state = load_state(out / "state.json")
    summary = state.linfield_summary
    assert (summary["lattice"] is None) == (case == "dense")
    (sp1,) = [r for r in state.gram_reports
              if (r["form_id"], r["basis"]) == ("SP1", "full")]
    magnitude = np.abs(sp1["eigenvalues"])
    assert summary["threshold"] == KERNEL_THRESHOLD_REL * magnitude.max()
    within = int(np.count_nonzero(magnitude <= summary["threshold"]))
    assert summary["dimension"] == within == len(summary["solutions"]) >= 1


def test_cli_progress_lines_print_once_and_quiet_hides_them(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    root = logging.getLogger()
    handler = logging.StreamHandler(sys.stdout)
    root.addHandler(handler)
    try:
        assert run("report", cfg_path, str(tmp_path / "loud")) == 0
        loud = capsys.readouterr().out.splitlines()
        assert run("report", cfg_path, str(tmp_path / "quiet"), quiet=True) == 0
        assert main(["report", "--config", cfg_path, "--out",
                     str(tmp_path / "quiet"), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
    finally:
        root.removeHandler(handler)
    assert [line.split(":")[0] for line in loud] == ["minimize", "report"]


def test_cli_reused_measure_keeps_optimizer_verdict(tmp_path):
    data = json.loads(json.dumps(BASE_CONFIG))
    data["optimizer"]["max_iterations"] = 3     # cannot converge
    cfg_path = _write_config(tmp_path, data)
    out = tmp_path / "out"
    assert run("minimize", cfg_path, str(out), quiet=True) == 2
    minimized = load_state(out / "state.json").measure
    (out / "trace.csv").unlink()
    assert run("verify-all", cfg_path, str(out), quiet=True) == 2
    state = load_state(out / "state.json")
    assert state.verdicts["optimizer_converged"] is False
    assert state.measure == minimized and not (out / "trace.csv").exists()
    # a prior state without the verdict is minimized again
    raw = json.loads((out / "state.json").read_text())
    del raw["verdicts"]["optimizer_converged"]
    (out / "state.json").write_text(json.dumps(raw))
    assert run("verify-all", cfg_path, str(out), quiet=True) == 2
    assert (out / "trace.csv").exists()
    assert load_state(out / "state.json").verdicts["optimizer_converged"] is False


def test_cli_reuses_a_measure_only_for_its_seed(tmp_path):
    data = json.loads(json.dumps(BASE_CONFIG))
    data["initial_measure"] = {"generator": {"count": 5, "seed": 0,
                                             "total_volume": 5.0}}
    cfg_path = _write_config(tmp_path, data)
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert run("minimize", cfg_path, str(out), quiet=True) == 0
    seed0 = load_state(out / "state.json").measure
    assert run("minimize", cfg_path, str(fresh), seed=3, quiet=True) == 0
    seed3 = load_state(fresh / "state.json").measure
    assert seed3 != seed0
    # another seed minimizes its own start; the same seed reuses the state
    assert run("report", cfg_path, str(out), seed=3, quiet=True) == 0
    state = load_state(out / "state.json")
    assert (state.seed, state.measure) == (3, seed3)
    (out / "trace.csv").unlink()
    assert run("report", cfg_path, str(out), seed=3, quiet=True) == 0
    assert load_state(out / "state.json").measure == seed3
    assert not (out / "trace.csv").exists()


def test_cli_main_entry_point(tmp_path):
    cfg_path = _write_config(tmp_path)
    code = main(["report", "--config", cfg_path,
                 "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0


@pytest.mark.parametrize("argv, word", [
    (["verify-all", "--config", "<config>", "--out", "<out>", "--seed", "x"], "--seed"),
    (["verify-all", "--config", "<config>", "--out", "<out>", "--seed", "1.5"], "--seed"),
    (["verify-all", "--out", "<out>"], "--config"),
    (["verfy-all", "--config", "<config>", "--out", "<out>"], "verfy-all")],
    ids=["seed-x", "seed-float", "no-config", "misspelled-stage"])
def test_cli_malformed_command_line_exits_one(tmp_path, capsys, argv, word):
    """Exit 2 is a failing verdict: a malformed command line is exit 1,
    with one error line and no usage block."""
    paths = {"<config>": _write_config(tmp_path), "<out>": str(tmp_path / "out")}
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([paths.get(arg, arg) for arg in argv])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and word in err
    assert not (tmp_path / "out").exists()


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "verify-all" in capsys.readouterr().out


def test_weak_el_is_judged_at_the_optimizer_tolerance(tmp_path):
    """A run whose budget ends above its optimizer tolerance fails both
    verdicts, though its residual is far below the default 1e-6."""
    data = {**BASE_CONFIG,
            "optimizer": {"tolerance_weak_el": 1e-14, "max_iterations": 12}}
    out = tmp_path / "out"
    assert run("report", _write_config(tmp_path, data), str(out), quiet=True) == 2
    state = load_state(out / "state.json")
    assert state.verdicts == {"optimizer_converged": False, "weak_el": False}
    assert 1e-14 < state.el_report["weak_residual"] <= 1e-6


def test_osi_stage_fails_without_solution_jet(tmp_path):
    cfg = parse_config(BASE_CONFIG)
    state = RunState(config_hash=cfg.hash)
    ev = FormEvaluator(cfg.initial_measure(), cfg.kernel)
    _stage_osi(ev, np.empty((0, ev.rho.count, 2)), [], state)
    assert state.verdicts["osi_nonnegative"] is False
    labels = arc_regions(ev.rho)[1]
    assert state.osi_summary == {"regions": labels, "reports": [],
                                 "min_value": None}
    save_state(state, tmp_path / "state.json")
    assert load_state(tmp_path / "state.json").osi_summary["min_value"] is None


def test_osi_stage_flags_each_jet_from_its_residual_and_values(csp5):
    """A report calls its jet a solution when the residual the linfield
    solve measured is within OSI_SOLUTION_TOLERANCE, and all positive when
    its least surface-layer integral is: the translation is both, a random
    jet neither."""
    cfg = parse_config(BASE_CONFIG)
    state = RunState(config_hash=cfg.hash)
    rng = np.random.default_rng(6)
    jets = np.stack([translation(csp5.rho.count, 1),
                     rng.normal(size=(csp5.rho.count, 2))])
    residuals = linfield_residual(csp5.ev, jets).tolist()
    _stage_osi(csp5.ev, jets, residuals, state)
    reports = state.osi_summary["reports"]
    assert residuals[0] <= OSI_SOLUTION_TOLERANCE < residuals[1]
    assert [r["solution_hypothesis"] for r in reports] == [True, False]
    assert [r["all_positive"] for r in reports] == [True, False]
    for r in reports:
        assert r["min_value"] == min(r["osi"])
    assert state.verdicts["osi_nonnegative"] is False


# The state sections and the verdicts each stage writes on its own: the
# linfield stage runs the spectrum stage first, and the osi stage both, so
# each writes those stages' records too.
SPECTRUM_VERDICTS = ["q1_full_psd", "sp1_full_psd", "sp1_scalar_only_psd"]
STAGE_OUTPUTS = {
    "minimize": (["measure"], ["optimizer_converged", "weak_el"]),
    "report": (["el_report"], ["weak_el"]),
    "spectrum": (["gram_reports"], SPECTRUM_VERDICTS),
    "fragment": (["probe_summary"], ["probe_stable"]),
    "linfield": (["gram_reports", "linfield_summary"],
                 SPECTRUM_VERDICTS + ["linfield_kernel_nonempty"]),
    "osi": (["gram_reports", "linfield_summary", "osi_summary"],
            SPECTRUM_VERDICTS + ["linfield_kernel_nonempty", "osi_nonnegative"]),
}


@pytest.mark.parametrize("stage", list(STAGE_OUTPUTS))
def test_cli_osi_stage_matches_verify_all(tmp_path, stage):
    sections, verdicts = STAGE_OUTPUTS[stage]
    cfg_path = _write_config(tmp_path)
    assert run(stage, cfg_path, str(tmp_path / stage), quiet=True) == 0
    assert run("verify-all", cfg_path, str(tmp_path / "all"), quiet=True) == 0
    alone = load_state(tmp_path / stage / "state.json")
    full = load_state(tmp_path / "all" / "state.json")
    for section in sections:
        assert getattr(alone, section) == getattr(full, section), section
    assert alone.verdicts == {k: full.verdicts[k] for k in alone.verdicts}
    for key in verdicts:
        assert alone.verdicts[key] is True
    if "linfield_summary" in sections:
        operator = "linfield_operator.npy"
        assert ((tmp_path / stage / operator).read_bytes()
                == (tmp_path / "all" / operator).read_bytes())


def test_cli_verify_all_builds_one_evaluator(tmp_path, monkeypatch):
    builds, table_points = [], []
    init, tables = FormEvaluator.__init__, pair_tables

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    def counting_tables(kernel, manifold, points):
        table_points.append(np.array(points))
        return tables(kernel, manifold, points)

    monkeypatch.setattr(FormEvaluator, "__init__", counting_init)
    for name in ("action", "jets", "linfield", "optimizer"):
        monkeypatch.setattr(importlib.import_module(f"cvplab.{name}"),
                            "pair_tables", counting_tables)
    out = tmp_path / "out"
    assert run("verify-all", _write_config(tmp_path), str(out), quiet=True) == 0
    assert len(builds) == 1
    state = load_state(out / "state.json")
    # minimize's last iterate and the evaluator; el_report reads the latter
    final = np.array(state.measure["points"])
    assert sum(np.array_equal(p, final) for p in table_points) == 2
    residuals = state.linfield_summary["residuals"]
    assert len(residuals) == len(state.osi_summary["reports"]) >= 1
    # the region labels once, one value per region in each report
    labels = arc_regions(DiscreteMeasure.from_dict(state.measure))[1]
    assert state.osi_summary["regions"] == labels
    for report in state.osi_summary["reports"]:
        assert len(report["osi"]) == len(labels)
        assert report["min_value"] == min(report["osi"])
        assert report["min_region"] == labels[report["osi"].index(min(report["osi"]))]


def test_cli_verify_all_makes_one_eigenvector_solve(tmp_path, monkeypatch):
    eigh, svd = np.linalg.eigh, np.linalg.svd
    eigh_args, svd_args = [], []

    def counting_eigh(a, *args, **kwargs):
        eigh_args.append(np.array(a))
        return eigh(a, *args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        svd_args.append(np.array(a))
        return svd(a, *args, **kwargs)

    block, blocks = jet_pair_block, []

    def counting_block(tables, weights):
        blocks.append(len(weights))
        return block(tables, weights)

    # minimize solves Newton systems; verify-all reuses its measure, so the
    # counts below cover the stages after minimize
    out, cfg_path = tmp_path / "out", _write_config(tmp_path)
    assert run("minimize", cfg_path, str(out), quiet=True) == 0
    # cvplab.jets and cvplab.linfield reach both through np.linalg
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for name in ("jets", "linfield"):
        monkeypatch.setattr(importlib.import_module(f"cvplab.{name}"),
                            "jet_pair_block", counting_block)
    assert run("verify-all", cfg_path, str(out), quiet=True) == 0
    assert svd_args == [] and len(eigh_args) == 1
    # one SP1 Gram: the spectrum, the operator, the kernel and OSI all read it
    assert len(blocks) == 1
    state = load_state(out / "state.json")
    cfg = parse_config(BASE_CONFIG)
    rho = DiscreteMeasure.from_dict(state.measure)
    assert np.array_equal(eigh_args[0], FormEvaluator(rho, cfg.kernel).sp1_gram)


def _cached_arrays(value, name):
    """(name, array) for every array held in value, through tuples and lists."""
    if isinstance(value, np.ndarray):
        yield name, value
    elif isinstance(value, (tuple, list)):
        for k, item in enumerate(value):
            yield from _cached_arrays(item, f"{name}[{k}]")


def _lattice_config(side: int, radius: float = 1.2) -> dict:
    """The exact side x side triangular lattice of the lattice-2d benchmark."""
    i, j = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    return dict(BASE_CONFIG,
                manifold={"kind": "torus", "dim": 2,
                          "periods": [float(side), side * np.sqrt(3.0) / 2.0]},
                lagrangian={"family": "compact-support-power",
                            "params": {"radius": radius, "power": 3}},
                initial_measure={"points": np.stack(
                    [(i + 0.5 * j).ravel() % side,
                     (j * np.sqrt(3.0) / 2.0).ravel()], axis=1).tolist(),
                    "weights": [1.0] * side**2})


def test_cli_verify_all_holds_one_gram_sized_array(tmp_path, monkeypatch):
    """After every stage the evaluator holds only the SP1 Gram and, on the
    dense path, its eigenvectors at (n(1+m))^2 entries: the form, the
    linearized operator and the surface-layer integrals read the one Gram.
    A lattice maps only the kernel's eigenvectors from its symbols."""
    evaluators, init = [], FormEvaluator.__init__

    def keeping_init(self, *args, **kwargs):
        evaluators.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FormEvaluator, "__init__", keeping_init)
    for case, cfg, expected in (("dense", BASE_CONFIG, ["_sp1_solve[1]", "sp1_gram"]),
                                ("lattice", _lattice_config(10), ["sp1_gram"])):
        evaluators.clear()
        assert run("verify-all", _write_config(tmp_path, cfg, f"{case}.json"),
                   str(tmp_path / case), quiet=True) == 0
        (ev,) = evaluators
        size = (ev.rho.count * (1 + ev.rho.manifold.dim)) ** 2
        large = sorted(name for key, value in vars(ev).items()
                       for name, array in _cached_arrays(value, key)
                       if array.size >= size)
        assert large == expected, case


def test_cli_verify_all_contracts_the_solution_stack_once(tmp_path, monkeypatch):
    """The OSI stage takes all kernel jets of a run in one contraction: on
    an exact triangular lattice, whose kernel is its two translations."""
    linfield, calls = importlib.import_module("cvplab.linfield"), []
    region_osi = linfield._region_osi

    def counting_region_osi(rho, block, inside, u):
        calls.append(np.shape(u))
        return region_osi(rho, block, inside, u)

    monkeypatch.setattr(linfield, "_region_osi", counting_region_osi)
    side = 10
    out = tmp_path / "out"
    assert run("verify-all", _write_config(tmp_path, _lattice_config(side)), str(out),
               quiet=True) == 0
    state = load_state(out / "state.json")
    assert state.linfield_summary["lattice"] == [5, 20]
    assert calls == [(2, side**2, 3)]
    assert len(state.osi_summary["reports"]) == 2


# The exact 12 x 12 triangular lattice at this power-3 radius is a saddle:
# SP1 has an eigenvalue pair at -1.758e-7, which is -5.0e-9 times its scale
# 35.16, while rounding reaches about 2.4e-13 times the scale.
SADDLE_12 = dict(_lattice_config(12, radius=1.3590682224989035),
                 optimizer={"tolerance_weak_el": 1e-6},
                 probe={"fragments": 3, "trials": 8,
                        "tau_grid": [-0.02, -0.01, 0.01, 0.02], "seed": 0})


def _failing_verdicts(tmp_path) -> tuple[int, list[str]]:
    out = tmp_path / "out"
    code = run("verify-all", _write_config(tmp_path, SADDLE_12), str(out), quiet=True)
    state = load_state(out / "state.json")
    assert state.linfield_summary["lattice"] == [6, 24]   # the symbol path
    return code, sorted(k for k, v in state.verdicts.items() if not v)


@pytest.mark.xfail(strict=True, reason="TAU_PSD = 1e-8 passes SP1's -5.0e-9 "
                   "times its scale; a bound from the run's own rounding would not")
def test_cli_verify_all_fails_the_saddle_lattice(tmp_path):
    assert _failing_verdicts(tmp_path) == (2, ["sp1_full_psd"])


def test_every_positivity_verdict_reads_the_one_bound(tmp_path, monkeypatch):
    """At a bound of 1e-10 the saddle fails SP1 and no other verdict: the
    Grams read jets.TAU_PSD when they run, and record the value they read."""
    jets = importlib.import_module("cvplab.jets")
    monkeypatch.setattr(jets, "TAU_PSD", 1e-10)
    assert _failing_verdicts(tmp_path) == (2, ["sp1_full_psd"])
    reports = load_state(tmp_path / "out" / "state.json").gram_reports
    assert [r["tau_psd"] for r in reports] == [1e-10] * 3


README_CONFIG = dict(BASE_CONFIG, initial_measure={
    "generator": {"count": 5, "seed": 0, "total_volume": 5.0}})


@pytest.mark.parametrize("case", ["readme", "lattice"])
def test_cli_verify_all_computes_the_kernel_residuals_once(tmp_path, monkeypatch,
                                                           case):
    """The linfield solve measures each kernel jet's residual, and the OSI
    summary reports that measurement: one `linfield_residual` per run."""
    linfield, calls = importlib.import_module("cvplab.linfield"), []
    residual = linfield.linfield_residual

    def counting_residual(ev, u):
        calls.append(np.shape(u))
        return residual(ev, u)

    for module in (linfield, importlib.import_module("cvplab.cli")):
        monkeypatch.setattr(module, "linfield_residual", counting_residual)
    cfg = README_CONFIG if case == "readme" else _lattice_config(10)
    out = tmp_path / "out"
    assert run("verify-all", _write_config(tmp_path, cfg), str(out), quiet=True) == 0
    assert len(calls) == 1
    state = load_state(out / "state.json")
    reports = state.osi_summary["reports"]
    assert len(reports) == state.linfield_summary["dimension"] >= 1
    for report, residual in zip(reports, state.linfield_summary["residuals"]):
        assert report["solution_hypothesis"] == (residual <= OSI_SOLUTION_TOLERANCE)
        assert report["all_positive"] == (report["min_value"] > 0.0)


# The files and the top-level state sections of one run of each stage in a
# fresh directory: every stage minimizes and reports, and runs the stages
# whose records its own are read from.
_REPORTED = ["config_hash", "el_report", "measure", "nu", "optimizer",
             "schema_version", "verdicts"]
STAGE_RECORDS = {
    "minimize": ([], []),
    "report": ([], []),
    "spectrum": ([], ["gram_reports"]),
    "fragment": (["probe.csv"], ["probe_summary"]),
    "linfield": (["linfield_operator.npy"], ["gram_reports", "linfield_summary"]),
    "osi": (["linfield_operator.npy"],
            ["gram_reports", "linfield_summary", "osi_summary"]),
    "verify-all": (["linfield_operator.npy", "probe.csv"],
                   ["gram_reports", "linfield_summary", "osi_summary",
                    "probe_summary"]),
}


@pytest.mark.parametrize("stage", list(STAGE_RECORDS))
def test_cli_stage_records_each_value_once(tmp_path, stage):
    """A run writes each value it reports once: no CSV repeats a state
    section, and no state section repeats another's value."""
    files, sections = STAGE_RECORDS[stage]
    out = tmp_path / "out"
    assert run(stage, _write_config(tmp_path, README_CONFIG), str(out), quiet=True) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["state.json", "trace.csv"] + files)
    raw = json.loads((out / "state.json").read_text())
    assert sorted(raw) == sorted(_REPORTED + sections)
    assert "nu" not in raw["el_report"]   # the top-level nu
    if "linfield_summary" in raw:   # the SP1/full report's eigenvalues
        assert "eigenvalues" not in raw["linfield_summary"]
    for report in raw.get("osi_summary", {}).get("reports", []):
        assert "residual" not in report   # linfield_summary.residuals
