import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracch
from fracch.cli import CERTIFICATE_COLUMNS, TRAJECTORY_COLUMNS, _initial_data, main
from fracch.config import _DENSE_ARRAYS, RunConfig, parse_config
from fracch.errors import AssemblyError, ConfigurationError
from fracch.evolution import evolve
from fracch.mesh import FracMesh, tridiagonal_product
from fracch.operators import FracExponents, assemble_gagliardo, build_operator_set


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def quick_cfg(tmp_path):
    return _write(tmp_path, "cfg.json", {
        "mesh": {"n_elems": 32},
        "time": {"tau": 0.01, "t_end": 0.2},
        "output": {"dir": str(tmp_path / "out")},
    })


def test_defaults_filled(tmp_path):
    cfg = parse_config(_write(tmp_path, "minimal.json", {}))
    assert cfg.step.newton_tol == 1e-10
    assert cfg.exps.s == 0.5 and cfg.exps.sigma == 0.5
    assert cfg.pot.lam == 1.0 and cfg.step.use_yosida is None


def test_potential_lambda_lands_in_the_potential(tmp_path):
    cfg = parse_config(_write(tmp_path, "cfg.json", {"potential": {"lambda": 2.5}}))
    assert cfg.pot.lam == 2.5


@pytest.mark.parametrize("enabled, expected", [(False, None), (True, 0.05)])
def test_yosida_group_sets_the_step_epsilon(tmp_path, enabled, expected):
    cfg = parse_config(_write(tmp_path, "cfg.json", {
        "yosida": {"enabled": enabled, "epsilon": 0.05},
    }))
    assert cfg.step.use_yosida == expected


def test_range_violation_names_key(tmp_path):
    with pytest.raises(ConfigurationError, match="frac.s"):
        parse_config(_write(tmp_path, "bad.json", {"frac": {"s": 1.5}}))
    with pytest.raises(ConfigurationError, match="time.tau"):
        parse_config(_write(tmp_path, "bad2.json", {"time": {"tau": -1.0}}))


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="frac.q"):
        parse_config(_write(tmp_path, "bad.json", {"frac": {"q": 0.5}}))
    with pytest.raises(ConfigurationError, match="extras"):
        parse_config(_write(tmp_path, "bad2.json", {"extras": {}}))


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "mesh": {,}\n}')
    with pytest.raises(ConfigurationError, match=r":2:"):
        parse_config(str(path))


def test_booleans_rejected_as_numbers(tmp_path):
    with pytest.raises(ConfigurationError, match="mesh.n_elems"):
        parse_config(_write(tmp_path, "bad.json", {"mesh": {"n_elems": True}}))


def test_simulate_writes_csvs(quick_cfg, tmp_path):
    assert main(["simulate", "--config", quick_cfg]) == 0
    with open(tmp_path / "out" / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TRAJECTORY_COLUMNS
    assert len(rows) == 21  # 20 steps + header
    assert (tmp_path / "out" / "certificates.csv").exists()


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_simulate_csvs_agree_with_each_other_and_evolve(quick_cfg, tmp_path):
    assert main(["simulate", "--config", quick_cfg]) == 0
    traj_rows = _read_rows(tmp_path / "out" / "trajectory.csv")
    cert_rows = _read_rows(tmp_path / "out" / "certificates.csv")
    assert len(traj_rows) == len(cert_rows) == 20
    cfg = parse_config(quick_cfg)
    ctx = cfg.build_context()
    for tr, cr in zip(traj_rows, cert_rows):
        assert (tr["step"], tr["t"], tr["tau_used"]) == (cr["step"], cr["t"], cr["tau_used"])
        assert tr["energy"] == cr["e_after"]
        assert tr["cert_defect"] == cr["defect"]
        assert float(tr["w_xnorm"]) == np.sqrt(float(cr["w_normsq"]))
        # the two columns the step does not record, derived where the rows are written
        assert tr["dual_norm_ut"] == tr["w_xnorm"]
        assert float(cr["lambda_half_du"]) == 0.5 * ctx.pot.lam * float(cr["du_msq"])

    traj = evolve(ctx, cfg.step, _initial_data(cfg, ctx.ops.mesh.dof_count), cfg.t_end)
    certs = traj.certificates
    assert [float(r["t"]) for r in traj_rows] == list(traj.times)
    for name in CERTIFICATE_COLUMNS[2:]:
        if name != "lambda_half_du":
            assert [float(r[name]) for r in cert_rows] == list(certs[name].astype(float)), name
    for col, field in (("energy", "e_after"), ("u_xnorm_sigma", "u_xnorm_sigma"),
                       ("u_linf", "u_linf"), ("cert_defect", "defect")):
        assert [float(r[col]) for r in traj_rows] == list(certs[field]), col


def test_simulate_deterministic(quick_cfg, tmp_path):
    assert main(["simulate", "--config", quick_cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", quick_cfg, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b


def test_config_error_exit_code(tmp_path, quick_cfg, capsys):
    bad = _write(tmp_path, "bad.json", {"time": {"tau": -1.0}})
    assert main(["simulate", "--config", bad]) == 2
    assert main(["simulate", "--config", str(tmp_path / "nonexistent.json")]) == 2
    assert main(["simulate", "--config", str(tmp_path)]) == 2  # a directory
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"output": {"dir": "\xe9t\xe9"}}')
    assert main(["simulate", "--config", str(latin1)]) == 2
    assert main(["simulate", "--config", quick_cfg, "--out", "/dev/null/x"]) == 2
    # record_stride changes no output but is still range-checked
    no_stride = _write(tmp_path, "stride.json", {"time": {"record_stride": 0}})
    assert main(["simulate", "--config", no_stride]) == 2
    # oversize meshes are refused before anything is allocated
    huge = _write(tmp_path, "huge.json", {"mesh": {"n_elems": 10**9}})
    assert main(["equilibrium", "--config", huge]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 7
    assert all(line.startswith("configuration error: ") for line in err)
    assert "mesh.n_elems" in err[-1] and "physical memory" in err[-1]


def test_dense_array_count_bounds_the_peak_memory(tmp_path, monkeypatch, capsys):
    # the memory check counts _DENSE_ARRAYS[command] dof x dof float64 arrays
    # (config._DENSE_ARRAYS lists them): each command holds that many, within
    # half an array, and simulate one fewer where A_s is A_sigma
    dof = 512
    unit = 8 * dof**2

    def config(s, sigma):
        return _write(tmp_path, f"cfg{s}-{sigma}.json", {
            "mesh": {"n_elems": dof + 1},
            "frac": {"s": s, "sigma": sigma},
            "time": {"tau": 1e-3, "t_end": 3e-3},
            "output": {"dir": str(tmp_path / "out")},
        })

    def peaks(cfg, commands):
        found = {}
        for command in commands:
            tracemalloc.start()
            try:
                assert main([command, "--config", cfg]) == 0
                found[command] = tracemalloc.get_traced_memory()[1] / unit
            finally:
                tracemalloc.stop()
        return found

    split, equal = config(0.3, 0.7), config(0.5, 0.5)
    found = peaks(split, ("equilibrium", "spectrum", "simulate", "verify"))
    # rates reads a trajectory and an equilibrium: a decay to phi = 0 over
    # enough decades for its fit
    with open(tmp_path / "out" / "trajectory.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRAJECTORY_COLUMNS)
        w.writerows([k, 0.1 * k, 0.1, math.exp(-0.1 * k), 0, 0, 0, 0, 0] for k in range(1, 200))
    (tmp_path / "out" / "equilibrium.json").write_text(json.dumps({"phi": [0.0] * dof}))
    found.update(peaks(split, ("rates",)))
    assert found.keys() == _DENSE_ARRAYS.keys()
    for command, peak in found.items():
        assert abs(peak - _DENSE_ARRAYS[command]) <= 0.5, found
    equal_peak = peaks(equal, ("simulate",))["simulate"]
    assert abs(equal_peak - (_DENSE_ARRAYS["simulate"] - 1)) <= 0.5, equal_peak
    # physical memory for 3.5 arrays, below the single ceiling of five that
    # every command once shared: the three-array runs go ahead, and the others
    # exit 2 before they make their output directory
    capsys.readouterr()
    monkeypatch.setattr(fracch.config, "_physical_memory", lambda: 3.5 * unit)
    assert main(["equilibrium", "--config", split]) == 0
    assert main(["simulate", "--config", equal]) == 0
    for command, cfg in (("simulate", split), ("verify", equal), ("verify", split)):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "refused")]) == 2
        assert not (tmp_path / "refused").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert all(line.startswith("configuration error: mesh.n_elems=513 needs about ")
               and line.endswith(" GiB of physical memory") for line in err), err


def test_only_the_flux_commands_assemble_a_s(tmp_path, monkeypatch):
    calls = []

    def counting(mesh, s):
        calls.append(s)
        return assemble_gagliardo(mesh, s)

    monkeypatch.setattr(fracch.operators, "assemble_gagliardo", counting)
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"n_elems": 24},
        "frac": {"s": 0.3, "sigma": 0.7},
        "time": {"tau": 0.01, "t_end": 10.0},
        "output": {"dir": str(tmp_path / "out")},
    })
    counts = {}
    for command in ("simulate", "equilibrium", "rates", "spectrum", "verify"):
        calls.clear()
        assert main([command, "--config", cfg]) == 0
        counts[command] = sorted(calls)
    assert counts == {
        "simulate": [0.3, 0.7], "equilibrium": [0.7], "rates": [0.7],
        "spectrum": [0.7], "verify": [0.3, 0.7],
    }


@pytest.mark.parametrize("error", [
    AssemblyError("non-finite quadrature"),
    OverflowError("potential overflow while evaluating the energy"),
    np.linalg.LinAlgError("matrix is singular"),
    MemoryError("Unable to allocate 7.28 EiB for an array with shape (10**9, 10**9)"),
])
def test_numerical_failure_exit_code(quick_cfg, monkeypatch, capsys, error):
    def fail(self):
        raise error

    monkeypatch.setattr(RunConfig, "build_context", fail)
    assert main(["simulate", "--config", quick_cfg]) == 6
    err = capsys.readouterr().err
    assert err == f"numerical failure: {error}\n"


@pytest.mark.parametrize("command, group, key, value", [
    ("simulate", "mesh", "n_elems", math.nan),
    ("simulate", "mesh", "n_elems", math.inf),
    ("simulate", "time", "t_end", math.nan),
    ("simulate", "time", "t_end", math.inf),
    ("verify", "time", "t_end", math.nan),
    ("verify", "time", "t_end", math.inf),
    ("simulate", "newton", "tol", math.nan),
    ("simulate", "potential", "lambda", math.inf),
    # an integer literal beyond the float range
    pytest.param("simulate", "time", "tau", 10**400, id="simulate-time-tau-1e400_integer"),
])
def test_non_finite_config_number_exits_configuration_error(
    tmp_path, capsys, command, group, key, value
):
    # json writes and reads math.nan and math.inf as the literals NaN and Infinity
    cfg = _write(tmp_path, "cfg.json", {group: {key: value}, "output": {"dir": str(tmp_path)}})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"configuration error: {group}.{key} must be a finite number")


def test_rates_without_inputs_is_missing_input(quick_cfg, tmp_path):
    assert main(["rates", "--config", quick_cfg, "--out", str(tmp_path / "empty")]) == 3


def _with_cell(column, value):
    def edit(text):  # sets the cell of step 5
        rows = list(csv.reader(text.splitlines()))
        rows[5][rows[0].index(column)] = value
        return "\n".join(",".join(row) for row in rows) + "\n"
    return edit


def _eq_with_theta(theta):
    return json.dumps({"phi": [0.0] * 15, "theta_hint": theta})


@pytest.mark.parametrize("name, content", [
    ("equilibrium.json", "{not json"),
    ("equilibrium.json", json.dumps({"theta_hint": 0.5})),
    ("equilibrium.json", json.dumps({"phi": [0.0] * 7})),  # the mesh has 15 unknowns
    ("trajectory.csv", "step,t,energy\n1,0.01,abc\n"),
    # one non-finite cell in a real trajectory: the fit would write NaN or drop it
    ("trajectory.csv", _with_cell("energy", "inf")),
    ("trajectory.csv", _with_cell("energy", "-inf")),
    ("trajectory.csv", _with_cell("energy", "nan")),
    ("trajectory.csv", _with_cell("t", "inf")),
    # theta_hint is null (read as 0.5) or a number in (0, 1), as lsi_probe takes it
    ("equilibrium.json", _eq_with_theta("x")),
    ("equilibrium.json", _eq_with_theta({"a": 1})),
    ("equilibrium.json", _eq_with_theta(math.nan)),
    ("equilibrium.json", _eq_with_theta(0)),
    ("equilibrium.json", _eq_with_theta(-1)),
    ("equilibrium.json", _eq_with_theta(2.5)),
    ("equilibrium.json", _eq_with_theta(True)),
], ids=["not-json", "no-phi", "phi-of-another-mesh", "non-numeric-energy",
        "energy-inf", "energy-minus-inf", "energy-nan", "t-inf",
        "theta-string", "theta-object", "theta-nan", "theta-zero", "theta-negative",
        "theta-above-one", "theta-bool"])
def test_rates_on_malformed_inputs_is_missing_input(tmp_path, capsys, name, content):
    out = tmp_path / "out"
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"n_elems": 16},
        "time": {"tau": 0.01, "t_end": 0.1},
        "output": {"dir": str(out)},
    })
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["equilibrium", "--config", cfg]) == 0
    if callable(content):
        content = content((out / name).read_text())
    (out / name).write_text(content)
    capsys.readouterr()
    assert main(["rates", "--config", cfg]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("missing input: ") and name in err[0]


def _rates_inputs(out, rate=1.0):
    """A trajectory.csv decaying as exp(-rate t) to the zero state's energy, and that state."""
    rows = ["step,t,energy"] + [f"{k},{0.1 * k},{math.exp(-rate * 0.1 * k)}" for k in range(1, 201)]
    (out / "trajectory.csv").write_text("\n".join(rows) + "\n")
    (out / "equilibrium.json").write_text(json.dumps({"phi": [0.0] * 15, "theta_hint": None}))


@pytest.mark.parametrize("command, name", [
    ("simulate", "trajectory.csv"), ("simulate", "certificates.csv"),
    ("equilibrium", "equilibrium.json"), ("verify", "verify.json"),
    ("spectrum", "spectrum.csv"), ("rates", "rates.json"), ("rates", "rates_curve.csv"),
])
def test_unwritable_output_file_is_one_line_and_exit_2(tmp_path, capsys, command, name):
    # a directory where the output file goes cannot be opened for writing, even by root
    out = tmp_path / "out"
    out.mkdir()
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"n_elems": 16},
        "time": {"tau": 0.01, "t_end": 0.05},
        "output": {"dir": str(out)},
    })
    if command == "rates":
        _rates_inputs(out)
        assert main(["rates", "--config", cfg]) == 0  # the inputs give a fit
        (out / name).unlink()
    (out / name).mkdir()
    capsys.readouterr()
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("cannot write output: ") and name in err[0]


@pytest.mark.parametrize("command, first, second", [
    ("simulate", "trajectory.csv", "certificates.csv"),
    ("rates", "rates.json", "rates_curve.csv"),
])
def test_unopenable_second_output_leaves_the_first_as_it_was(tmp_path, capsys, command, first,
                                                             second):
    out = tmp_path / "out"
    out.mkdir()
    cfg = {"mesh": {"n_elems": 16}, "time": {"tau": 0.01, "t_end": 0.05},
           "output": {"dir": str(out)}}
    if command == "rates":
        _rates_inputs(out)
    assert main([command, "--config", _write(tmp_path, "cfg.json", cfg)]) == 0
    kept = (out / first).read_bytes()
    # the second run's inputs differ, so a rewritten first file would differ too
    cfg["seeds"] = {"rng_seed": 1}
    if command == "rates":
        _rates_inputs(out, rate=2.0)
    (out / second).unlink()
    (out / second).mkdir()
    capsys.readouterr()
    assert main([command, "--config", _write(tmp_path, "cfg.json", cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("cannot write output: ") and second in err[0]
    assert (out / first).read_bytes() == kept


def test_equilibrium_respects_newton_max_iter(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {
        "domain": {"a": -4, "b": 4},
        "mesh": {"n_elems": 32},
        "newton": {"max_iter": 1},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["equilibrium", "--config", cfg]) == 4
    assert capsys.readouterr().err.startswith("solver divergence: ")


def test_equilibrium_records_newton_history(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "domain": {"a": -4, "b": 4},
        "mesh": {"n_elems": 32},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["equilibrium", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "equilibrium.json").read_text())
    history = payload["newton_history"]
    assert 0 < len(history) <= 50  # newton.max_iter
    assert all(len(step) == 2 and 0.0 < step[1] <= 1.0 for step in history)
    residuals = [res for res, _ in history] + [payload["residual_dual"]]
    assert all(after < before for before, after in zip(residuals, residuals[1:]))
    assert residuals[-1] < 1e-10 <= residuals[-2]  # newton.tol stopped it


def test_lambda_below_split_halves_tau_and_lets_the_certificate_decide(tmp_path, capsys):
    # lambda 0 leaves beta' = 3 u^2 - 1 < 0 near zero; at tau 10 the step matrix is
    # indefinite, at tau 5 it factors, and the certificate then fails at step 2
    cfg = _write(tmp_path, "cfg.json", {
        "domain": {"a": -4, "b": 4},
        "mesh": {"n_elems": 64},
        "potential": {"lambda": 0},
        "time": {"tau": 10.0, "t_end": 50.0},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["simulate", "--config", cfg]) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("certificate violation: energy certificate violated at step 2")


def test_lambda_below_split_with_yosida_names_lambda_when_the_resolvent_stalls(tmp_path, capsys):
    # lambda 0.5 leaves the built-in double well's beta non-monotone, so the
    # resolvent stalls at every tau; the message names the config key, not a custom beta
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"n_elems": 32},
        "potential": {"lambda": 0.5},
        "yosida": {"enabled": True},
        "time": {"tau": 0.01, "t_end": 0.1},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["simulate", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("solver divergence: resolvent iteration cap exceeded")
    assert "potential.lambda" in err


def test_non_finite_residual_exits_solver_divergence(quick_cfg, nan_from_first_update, capsys):
    assert main(["simulate", "--config", quick_cfg]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("solver divergence: step Newton residual is not finite")
    assert "still stalled after 10 tau halvings" in err[0]


def test_overflow_inside_a_step_is_one_line_of_solver_divergence(tmp_path, capsys):
    # lambda = 1e300 takes the lagged term and the Yosida beta to about 1e299, and
    # the residual's norm overflows at every tau; numpy's overflow warnings stay
    # off, and march's halvings end in exit 4
    cfg = _write(tmp_path, "cfg.json", {
        "potential": {"lambda": 1e300},
        "yosida": {"enabled": True, "epsilon": 1e-300},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["simulate", "--config", cfg]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("solver divergence:")
    # eps = 1e-300 alone overflows nothing: beta_eps = beta(j) stays near beta
    cfg = _write(tmp_path, "cfg.json", {
        "yosida": {"enabled": True, "epsilon": 1e-300},
        "time": {"t_end": 0.05},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["simulate", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""


def test_huge_lambda_closed_form_resolvent_is_one_line_of_solver_divergence(tmp_path, capsys):
    # at lambda = 1e300, eps = 0.01 the m = 4 resolvent's 1.5 c / b underflows
    # to 0; the root is r / b there, and the step's residual then overflows
    # at every tau, so the run ends in exit 4, not in a traceback
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"n_elems": 16},
        "potential": {"lambda": 1e300},
        "yosida": {"enabled": True, "epsilon": 0.01},
        "time": {"t_end": 0.01},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["simulate", "--config", cfg]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("solver divergence:")


def test_overflowing_line_search_trials_are_rejected_silently(tmp_path, capsys):
    # on this huge domain the first full Newton steps of the stationary solve
    # overflow the residual; the line search shortens them without a warning
    cfg = _write(tmp_path, "cfg.json", {
        "domain": {"a": -5e149, "b": 5e149},
        "mesh": {"n_elems": 10},
        "potential": {"m": 12.0},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["equilibrium", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""


def test_csv_cells_are_shortest_reprs():
    # the writers pass floats and ints to csv as they are: a float, numpy's
    # float64 included, is written as its shortest repr and an int by str
    buf = io.StringIO()
    csv.writer(buf).writerow([np.float64(0.1), 0.1 + 0.2, 7, np.float64(-0.0),
                              np.float64(1e-300), 2.5e16, int(np.True_)])
    assert buf.getvalue() == "0.1,0.30000000000000004,7,-0.0,1e-300,2.5e+16,1\r\n"


def test_equilibrium_and_spectrum(quick_cfg, tmp_path, monkeypatch):
    assert main(["equilibrium", "--config", quick_cfg]) == 0
    payload = json.loads((tmp_path / "out" / "equilibrium.json").read_text())
    assert set(payload) == {
        "phi", "residual_dual", "newton_history", "linf", "pencil_eigs", "kernel_dim",
        "kernel_basis", "iso_condition", "theta_hint",
    }
    assert payload["newton_history"] == []  # the zero seed is already stationary
    assert payload["kernel_dim"] == 0
    assert payload["theta_hint"] == 0.5
    assert len(payload["phi"]) == 31

    def unused(*args, **kwargs):
        raise AssertionError("spectrum writes no kernel and no condition number")

    monkeypatch.setattr(fracch.cli, "complete_report", unused)
    monkeypatch.setattr(fracch.equilibrium, "isomorphism_check", unused)
    assert main(["spectrum", "--config", quick_cfg]) == 0
    with open(tmp_path / "out" / "spectrum.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "operator_eig", "linearized_eig"]
    assert len(rows) == 32
    # spectral shift visible straight from the CSV
    assert float(rows[1][1]) - 1.0 == pytest.approx(float(rows[1][2]), abs=1e-9)


@pytest.mark.parametrize("n", [3, 16, 32])
def test_degenerate_equilibrium_reports_its_kernel(tmp_path, n):
    # At sigma = 1/2 scaling the domain by c scales the pencil eigenvalues by
    # 1/c, so on (-L, L) with L = lambda_1(-1, 1) (1 - 1e-9) the lowest pencil
    # eigenvalue of (A_sigma, M) is 1 + 1e-9: with g'(0) = -1 the seed is zero,
    # phi = 0, and the linearization A_sigma - M has the eigenvalue 1e-9, inside
    # the kernel threshold 1e-8 max|mu|.  At L = lambda_1(-1, 1) itself the
    # seed would hang on the sign of a rounding error.
    exps = FracExponents(0.5, 0.5)
    half = build_operator_set(FracMesh(-1.0, 1.0, n), exps).lowest_mode()[0] * (1.0 - 1e-9)
    cfg = _write(tmp_path, "cfg.json", {
        "domain": {"a": -half, "b": half},
        "mesh": {"n_elems": n},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["equilibrium", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "equilibrium.json").read_text())
    assert payload["newton_history"] == [] and payload["linf"] == 0.0
    assert payload["kernel_dim"] == 1 and payload["theta_hint"] is None
    assert type(payload["iso_condition"]) is float and math.isfinite(payload["iso_condition"])
    ops = build_operator_set(FracMesh(-half, half, n), exps)
    lam1, v1 = ops.lowest_mode()
    assert abs(lam1 - (1.0 + 1e-9)) < 1e-12
    (v,) = np.array(payload["kernel_basis"])
    assert abs(v @ tridiagonal_product(*ops.M, v) - 1.0) < 1e-12  # M-normalized
    assert min(np.max(np.abs(v - v1)), np.max(np.abs(v + v1))) < 1e-10
    assert main(["spectrum", "--config", cfg]) == 0


def test_one_unknown_runs_through_every_command(tmp_path):
    # n_elems = 2 leaves one interior node: every pencil, factor and step is scalar
    cfg = _write(tmp_path, "cfg.json", {
        "domain": {"a": -4.0, "b": 4.0},
        "mesh": {"n_elems": 2},
        "time": {"tau": 0.01, "t_end": 0.1},
        "output": {"dir": str(tmp_path / "out")},
    })
    for command in ("simulate", "equilibrium", "spectrum", "verify"):
        assert main([command, "--config", cfg]) == 0, command
    out = tmp_path / "out"
    assert len(_read_rows(out / "trajectory.csv")) == 10
    payload = json.loads((out / "equilibrium.json").read_text())
    assert len(payload["phi"]) == 1 and abs(payload["phi"][0]) > 0.5  # zero is unstable here
    assert payload["residual_dual"] < 1e-10 and len(payload["pencil_eigs"]) == 1
    assert len(_read_rows(out / "spectrum.csv")) == 1
    assert json.loads((out / "verify.json").read_text())["all_pass"]


@pytest.mark.parametrize("a, b", [(0.0, 1e-300), (-1e300, 1e300)])
def test_mesh_width_out_of_float_range_is_a_configuration_error(tmp_path, capsys, a, b):
    cfg = _write(tmp_path, "cfg.json", {
        "domain": {"a": a, "b": b}, "output": {"dir": str(tmp_path / "out")},
    })
    # parse_config refuses it, so no command makes the output directory
    for command in ("simulate", "equilibrium", "verify", "spectrum"):
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("configuration error: mesh width") and "over- or underflows" in err[0]
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "equilibrium", "verify", "spectrum"])
def test_overflowing_domain_length_is_one_line_without_a_warning(tmp_path, capsys, command):
    # both ends finite, but b - a is past the float range; parse_config
    # refuses it before the output directory is made
    cfg = _write(tmp_path, "cfg.json", {
        "domain": {"a": -1e308, "b": 1e308}, "mesh": {"n_elems": 8},
        "output": {"dir": str(tmp_path / "out")},
    })
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", cfg]) == 2
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "b - a overflows" in err[0], err
    assert not (tmp_path / "out").exists()


def test_equilibrium_solves_one_dense_pencil_and_factors_a_sigma_once(tmp_path, monkeypatch):
    # the seed's mode comes from Lanczos on the A_sigma factor the dual norms use,
    # and the isomorphism check reads the spectrum: the one dense eigensolve
    # left is the spectrum's
    eigh_calls, potrf_calls = [], []

    def counted(record, fn):
        def wrapper(*args, **kwargs):
            record.append(args[0].shape)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fracch.equilibrium, "eigh", counted(eigh_calls, fracch.equilibrium.eigh))
    monkeypatch.setattr(fracch.operators, "dpotrf", counted(potrf_calls, fracch.operators.dpotrf))
    cfg = _write(tmp_path, "cfg.json", {
        "domain": {"a": -4.0, "b": 4.0},
        "mesh": {"n_elems": 48},
        "frac": {"s": 0.3, "sigma": 0.7},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["equilibrium", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "equilibrium.json").read_text())
    assert payload["kernel_dim"] == 0 and payload["newton_history"]  # seeded off zero
    assert eigh_calls == [(47, 47)]
    assert potrf_calls == [(47, 47)]


def test_non_finite_linearization_is_a_numerical_failure(quick_cfg, monkeypatch, capsys):
    linearize = fracch.equilibrium.linearize

    def with_nan(ctx, phi):
        L = linearize(ctx, phi)
        L[0, 2] = np.nan
        return L

    monkeypatch.setattr(fracch.equilibrium, "linearize", with_nan)
    assert main(["equilibrium", "--config", quick_cfg]) == 6
    assert capsys.readouterr().err.startswith("numerical failure: non-finite")


def test_cli_runs_import_no_sparse_scipy(tmp_path):
    # scipy.sparse adds several MB of peak memory and tens of ms of import time
    cfg = _write(tmp_path, "cfg.json", {
        "domain": {"a": -4.0, "b": 4.0},
        "mesh": {"n_elems": 16},
        "time": {"tau": 0.01, "t_end": 0.05},
        "output": {"dir": str(tmp_path / "out")},
    })
    src = os.path.dirname(os.path.dirname(fracch.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from fracch.cli import main\n"
        "for command in ('equilibrium', 'simulate'):\n"
        f"    assert main([command, '--config', {cfg!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_import_loads_no_scipy_special():
    # C_s takes its two Gamma values from the standard library; scipy.special
    # would add some 4 MB to every run's peak memory
    src = os.path.dirname(os.path.dirname(fracch.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import fracch.cli\n"
        "print('scipy.linalg' in sys.modules, 'scipy.special' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    linalg, special = proc.stdout.split()
    if linalg == special == "True":
        pytest.skip("fracch fell back to scipy.linalg, and this scipy's linalg imports "
                    "scipy.special")
    assert special == "False"


def test_cli_runs_without_scipy_linalg_or_imports_inside_main(tmp_path):
    # fracch._lapack loads scipy's LAPACK and BLAS extension modules by file
    # path: scipy.linalg's package init would add some 16 MB to every run's
    # peak memory.  Numpy's random and polynomial modules are imported with
    # fracch, not inside the timed run.  If the file-path load fails, the
    # fallback to scipy.linalg's public modules writes the same files
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"n_elems": 32},
        "time": {"tau": 0.01, "t_end": 0.05},
    })
    src = os.path.dirname(os.path.dirname(fracch.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "from fracch.cli import main\n"
        "before = set(sys.modules)\n"
        "for command in ('simulate', 'equilibrium', 'verify'):\n"
        f"    assert main([command, '--config', {cfg!r}, '--out', command]) == 0\n"
        "print(json.dumps(['scipy.linalg' in sys.modules, sorted(set(sys.modules) - before)]))\n"
    )

    def run(name, prefix):
        (tmp_path / name).mkdir()
        proc = subprocess.run([sys.executable, "-c", prefix + code], capture_output=True,
                              text=True, cwd=tmp_path / name,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    assert run("fast", "") == [False, []]
    refuse = (
        "import importlib.util\n"
        "def refuse(spec):\n"
        "    raise ImportError('no extension module loaded by file path')\n"
        "importlib.util.module_from_spec = refuse\n"
    )
    assert run("fallback", refuse) == [True, []]
    files = sorted(p.relative_to(tmp_path / "fast")
                   for p in (tmp_path / "fast").rglob("*") if p.is_file())
    assert len(files) == 4  # two CSVs and two JSONs
    for rel in files:
        assert (tmp_path / "fallback" / rel).read_bytes() == (tmp_path / "fast" / rel).read_bytes()


def test_verify_passes_on_default_config(tmp_path, monkeypatch):
    apply = fracch.potentials.yosida_apply
    epsilons = []

    def counted(pot, eps, r, **kwargs):
        epsilons.append(eps)
        return apply(pot, eps, r, **kwargs)

    # verify's Yosida check calls the yosida_apply that fracch.cli imported
    monkeypatch.setattr(fracch.cli, "yosida_apply", counted)
    cfg = _write(tmp_path, "cfg.json", {})  # every key defaulted
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert epsilons == [1.0, 1.0, 0.1, 0.1, 0.01, 0.01]  # one resolvent per sample array
    payload = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert payload["all_pass"]
    assert set(payload["checks"]) == {"poincare", "duality", "yosida", "energy_stability"}


def test_rates_pipeline(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "mesh": {"n_elems": 48},
        "time": {"tau": 0.01, "t_end": 30.0},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["equilibrium", "--config", cfg]) == 0
    assert main(["rates", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "rates.json").read_text())
    assert payload["mode"] == "exponential"
    assert payload["theta"] == 0.5
    assert payload["r_squared"] > 0.9
    assert not payload["degenerate"]
    with open(tmp_path / "out" / "rates_curve.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "H", "H_fit"]
    assert len(rows) > 100
    # the fitted curve tracks H on the window
    mid = rows[len(rows) // 2]
    assert abs(float(mid[1]) - float(mid[2])) < 0.5 * float(mid[1])


def test_console_entry_point(quick_cfg, tmp_path):
    # the child imports the same fracch as this process, installed or not
    src = os.path.dirname(os.path.dirname(fracch.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "fracch.cli", "simulate", "--config", quick_cfg,
         "--out", str(tmp_path / "sub")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sub" / "trajectory.csv").exists()


def _near(*edges):
    """A float in [lo, hi] for one of the (lo, hi) pairs; half the draws are lo or hi."""
    return st.one_of(*(st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi)) for lo, hi in edges))


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


_EXPONENT = _near((1e-9, 1e-3), (0.5 - 1e-6, 0.5 + 1e-6), (0.999, 1.0 - 1e-9), (1e-3, 0.999))


@st.composite
def _run_configs(draw):
    """A JSON config drawn from every key's valid range and its edges, on a small mesh."""
    width = draw(st.one_of(st.sampled_from([1e-300, 1e-150, 2.0, 8.0, 1e150, 1e300]),
                           _log_uniform(1e-12, 1e12)))
    a = draw(st.sampled_from([-0.5 * width, 0.0, -1.0]))
    tau = draw(_log_uniform(1e-9, 10.0))
    lam = draw(st.one_of(st.none(), st.sampled_from([0.0, 1.0, 1e6]), st.floats(0.0, 5.0)))
    return {
        "domain": {"a": a, "b": a + width},
        "mesh": {"n_elems": draw(st.integers(2, 12))},
        "frac": {"s": draw(_EXPONENT), "sigma": draw(_EXPONENT)},
        "potential": {"m": draw(_near((2.0, 2.0 + 1e-9), (2.0, 8.0), (8.0, 40.0))),
                      "lambda": lam},
        # at most a few steps, sometimes a single shortened one
        "time": {"tau": tau, "t_end": tau * draw(st.sampled_from([0.3, 1.0, 2.5, 4.0]))},
        "newton": {"tol": draw(_log_uniform(1e-16, 1e3)),
                   "max_iter": draw(st.integers(1, 50))},
        "yosida": {"enabled": draw(st.booleans()),
                   "epsilon": draw(st.one_of(st.sampled_from([1e-300, 1e300]),
                                             _log_uniform(1e-12, 1e3)))},
        "seeds": {"rng_seed": draw(st.integers(0, 2**32))},
    }


# derandomized: the same 300 examples on every run, so a rare defect cannot
# fail an unrelated change at random; drop derandomize locally to explore
@settings(max_examples=300, deadline=None, derandomize=True)
@given(command=st.sampled_from(["simulate", "equilibrium", "spectrum", "verify"]),
       cfg=_run_configs())
def test_every_config_leaves_through_a_documented_exit_code(command, cfg):
    # exit 1 means a verify check failed, so only verify may return it; any
    # other failure is one line on stderr, never a traceback or a warning (a
    # RuntimeWarning raises here, as pytest's filter makes it everywhere)
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "cfg.json")
        with open(path, "w") as fh:
            json.dump({**cfg, "output": {"dir": out}}, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            code = main([command, "--config", path])
    allowed = {0, 1, 2, 3, 4, 5, 6} if command == "verify" else {0, 2, 3, 4, 5, 6}
    assert code in allowed, (code, err.getvalue())
    assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]
