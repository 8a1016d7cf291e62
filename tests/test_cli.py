import json

import numpy as np
import pytest

from epqed import blockade, dynamics, ldos, spectra
from epqed.cli import DEFAULTS, build_parser, main, params_from_config, parse_sweep
from epqed.errors import ConfigError
from epqed.ldos import lorentzian_model
from epqed.params import DriveSpec, ModelParams


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# epqed ")
    header = lines[1].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
    return header, data


def test_ldos_run_has_transparency_zero(tmp_path):
    rc = main(["ldos", "--delta-phi", "0", "--g", "1", "--kappa", "20",
               "--out", str(tmp_path)])
    assert rc == 0
    header, data = read_csv(tmp_path / "ldos.csv")
    assert header[0] == "omega[gamma0]"
    omega, j = data[:, 0], data[:, 1]
    i0 = int(np.argmin(np.abs(omega)))       # omega_c = 0
    assert abs(j[i0]) < 1e-12
    assert j.max() > 0
    sidecar = json.loads((tmp_path / "ldos.json").read_text())
    assert sidecar["experiment"] == "ldos"
    assert sidecar["config"]["delta_phi"] == 0.0
    assert sidecar["outputs"] == ["ldos.csv"]


def test_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["spectrum", "--set", "delta_phi=3.14159", "--g", "10",
                     "--out", str(out)]) == 0
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()


def test_one_parser_serves_every_call_without_carrying_state(tmp_path):
    assert build_parser() is build_parser()
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["dynamics", "--set", "t_max=2.0", "--set", "t_points=101",
                 "--g", "10", "--out", str(first)]) == 0
    assert main(["dynamics", "--set", "t_points=51", "--out", str(second)]) == 0
    cfg = json.loads((second / "dynamics.json").read_text())["config"]
    assert (cfg["t_points"], cfg["t_max"], cfg["g"]) == (51, DEFAULTS["t_max"], DEFAULTS["g"])
    args = build_parser().parse_args(["dynamics"])
    assert args.set is None and args.g is None and args.out == "."


def test_rerun_from_sidecar_reproduces_file(tmp_path):
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert main(["dynamics", "--set", "t_max=2.0", "--set", "t_points=101",
                 "--g", "10", "--delta-phi", "1.0", "--out", str(first)]) == 0
    assert main(["dynamics", "--config", str(first / "dynamics.json"),
                 "--out", str(again)]) == 0
    assert (first / "dynamics.csv").read_bytes() == (again / "dynamics.csv").read_bytes()


def test_old_configs_carrying_step_still_load(tmp_path, capsys):
    # the retired keys step, drive_detuning, tau_max and tau_step: older files load,
    # --set rejects them
    first, again, plain = tmp_path / "first", tmp_path / "again", tmp_path / "plain"
    assert main(["dynamics", "--set", "t_max=2.0", "--set", "t_points=101",
                 "--g", "10", "--out", str(first)]) == 0
    sidecar = json.loads((first / "dynamics.json").read_text())
    assert not {"step", "drive_detuning", "tau_max", "tau_step"} & set(sidecar["config"])
    # as older sidecars record them
    sidecar["config"].update(step=0.0, drive_detuning=0.0, tau_max=0.0, tau_step=0.0)
    old = tmp_path / "old.json"
    old.write_text(json.dumps(sidecar))
    assert main(["dynamics", "--config", str(old), "--out", str(again)]) == 0
    assert (first / "dynamics.csv").read_bytes() == (again / "dynamics.csv").read_bytes()
    assert "step" not in json.loads((again / "dynamics.json").read_text())["config"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"t_max": 2.0, "t_points": 101, "g": 10, "step": 1e-4,
                                  "drive_detuning": 5.0, "tau_max": 2.0, "tau_step": 0.01}))
    assert main(["dynamics", "--config", str(config), "--out", str(plain)]) == 0
    assert (first / "dynamics.csv").read_bytes() == (plain / "dynamics.csv").read_bytes()
    for key, val in (("step", "1e-4"), ("drive_detuning", "1"), ("tau_max", "2"),
                     ("tau_step", "0.01")):
        capsys.readouterr()
        assert main(["dynamics", "--set", f"{key}={val}", "--out", str(tmp_path / "set")]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_blockade_sidecar_records_solved_basis_and_reruns(tmp_path):
    first, again, cut = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["blockade", "--g", "5", "--fock-cutoff", "5", "--out", str(first)]) == 0
    sidecar = json.loads((first / "blockade.json").read_text())
    assert sidecar["basis"] == {"fock_cutoff": 5, "max_excitations": 5, "dim": 34}
    assert "max_excitations" not in sidecar["config"]
    assert main(["blockade", "--config", str(first / "blockade.json"),
                 "--out", str(again)]) == 0
    assert (first / "blockade.csv").read_bytes() == (again / "blockade.csv").read_bytes()
    assert main(["blockade", "--g", "5", "--sweep", "fock_cutoff=4:5:2", "--out", str(cut)]) == 0
    bases = json.loads((cut / "blockade.json").read_text())["basis"]
    assert [b["dim"] for b in bases] == [23, 34]


def test_blockade_sidecar_records_steady_state_residual(tmp_path):
    # and, for a detuning sweep, the size of its shared Krylov basis (0 for a sweep
    # short enough to solve point by point) and the detuning of its one LU
    for out, extra, krylov_dim, base in (
            ("one", [], None, None), ("det", ["--sweep", "detuning=-2:2:3"], 0, None),
            ("long", ["--sweep", "detuning=-2:2:9"], 10, 0.0),
            ("cut", ["--sweep", "fock_cutoff=4:5:2"], None, None)):
        assert main(["blockade", "--g", "5", *extra, "--out", str(tmp_path / out)]) == 0
        sidecar = json.loads((tmp_path / out / "blockade.json").read_text())
        assert 0.0 <= sidecar["diagnostics"]["max_steady_state_residual"] <= 1e-10
        assert sidecar["diagnostics"]["base_detuning"] == base
        if krylov_dim:
            assert krylov_dim <= sidecar["diagnostics"]["krylov_dim"] <= 100
        else:
            assert sidecar["diagnostics"]["krylov_dim"] == krylov_dim
        assert not {"krylov_dim", "base_detuning"} & set(sidecar["summary"])
        assert "steady_state_residual" not in sidecar["summary"]
        header, _ = read_csv(tmp_path / out / "blockade.csv")
        assert not any(h.startswith("steady_state_residual") for h in header)


def test_rerun_from_sweep_sidecar_repeats_the_sweep(tmp_path):
    first, again, narrowed = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["eigen", "--sweep", "delta_phi=0:3.1:181", "--g", "20",
                 "--kappa", "20", "--gamma", "0", "--out", str(first)]) == 0
    sidecar = first / "eigen.json"
    assert json.loads(sidecar.read_text())["sweep"] == "delta_phi=0.0:3.1:181"
    assert main(["eigen", "--config", str(sidecar), "--out", str(again)]) == 0
    assert (first / "eigen.csv").read_bytes() == (again / "eigen.csv").read_bytes()
    # an explicit --sweep overrides the sidecar's
    assert main(["eigen", "--config", str(sidecar), "--sweep", "delta_phi=0:1:5",
                 "--out", str(narrowed)]) == 0
    assert read_csv(narrowed / "eigen.csv")[1].shape[0] == 5


def test_fit_subcommand_roundtrip(tmp_path, capsys):
    wc0, k0, g0 = 0.78122, 152.8e-6, 24.9e-6
    w = np.linspace(wc0 - 5.1 * k0, wc0 + 4.7 * k0, 301)
    rows = ["omega,J"] + [f"{x:.17g},{y:.17g}"
                          for x, y in zip(w, lorentzian_model(w, wc0, k0, g0))]
    src = tmp_path / "dp_ldos.csv"
    src.write_text("\n".join(rows))
    rc = main(["fit", "--input", str(src), "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["omega_c"] == pytest.approx(wc0, rel=1e-9)
    assert payload["kappa"] == pytest.approx(k0, rel=1e-9)
    assert payload["g"] == pytest.approx(g0, rel=1e-9)
    sidecar = json.loads((tmp_path / "fit.json").read_text())
    assert sidecar["summary"]["converged"] is True


def test_blockade_sweep_shape_contract(tmp_path):
    rc = main(["blockade", "--sweep", "detuning=-2:2:7", "--g", "5",
               "--workers", "1", "--out", str(tmp_path)])
    assert rc == 0
    header, data = read_csv(tmp_path / "blockade.csv")
    assert header == ["detuning[gamma0]", "g2[1]", "n_L[1]"]
    assert data.shape == (7, 3)
    assert np.all(data[:, 1] >= 0) and np.all(data[:, 2] >= 0)


def test_blockade_run_matches_its_sweep_row_at_nonzero_omega_c(tmp_path):
    # (omega_c + detuning) - omega_c need not give the detuning back (0.1 and 0.2
    # give 0.20000000000000004); the run solves in the cavity frame, at the
    # detuning it was given, as the sweep does
    one, sweep = tmp_path / "one", tmp_path / "sweep"
    assert main(["blockade", "--set", "omega_c=0.1", "--set", "detuning=0.2",
                 "--out", str(one)]) == 0
    assert main(["blockade", "--set", "omega_c=0.1", "--sweep", "detuning=0:0.4:3",
                 "--out", str(sweep)]) == 0
    row = (one / "blockade.csv").read_text().splitlines()[2:]
    assert row == (sweep / "blockade.csv").read_text().splitlines()[3:4]
    assert float(row[0].split(",")[0]) == 0.2


def test_generic_sweep_rows(tmp_path):
    rc = main(["trapping", "--sweep", "g=10:40:4", "--kappa", "20",
               "--workers", "1", "--out", str(tmp_path)])
    assert rc == 0
    header, data = read_csv(tmp_path / "trapping.csv")
    assert data.shape[0] == 4
    # closed form: P_e = kappa^4/(8g^2+kappa^2)^2 along the swept axis
    g = data[:, 0]
    p_qubit = data[:, header.index("p_qubit[1]")]
    ref = 20.0**4 / (8 * g**2 + 20.0**2) ** 2
    assert np.abs(p_qubit - ref).max() < 1e-3


def test_eigen_sweep_labels(tmp_path):
    rc = main(["eigen", "--sweep", "delta_phi=0:3.0:31", "--g", "20",
               "--kappa", "20", "--gamma", "0", "--out", str(tmp_path)])
    assert rc == 0
    header, data = read_csv(tmp_path / "eigen.csv")
    assert "im_0[gamma0]" in header
    ims = data[:, [header.index(f"im_{k}[gamma0]") for k in range(3)]]
    assert ims.max() <= 1e-10   # passive: no gain on any branch


def test_unknown_set_key_is_config_error(tmp_path):
    rc = main(["ldos", "--set", "bogus=1", "--out", str(tmp_path)])
    assert rc == 2


def test_fit_without_input_is_config_error(tmp_path):
    assert main(["fit", "--out", str(tmp_path)]) == 2


def test_numerical_failure_exit_code(tmp_path):
    flat = tmp_path / "flat.csv"
    flat.write_text("\n".join(f"{x},0.0" for x in np.linspace(0, 1, 32)))
    assert main(["fit", "--input", str(flat), "--out", str(tmp_path)]) == 3


def test_numerical_ldos_at_small_kappa(tmp_path):
    # the exact transform holds at the chiral EP below kappa = 5 too
    assert main(["ldos", "--set", "ldos_method=numerical", "--kappa", "3",
                 "--out", str(tmp_path)]) == 0
    header, data = read_csv(tmp_path / "ldos.csv")
    j = data[:, header.index("J[gamma0]")]
    ref = data[:, header.index("J_analytic[gamma0]")]
    assert np.abs(j - ref).max() <= 1e-4 * np.abs(ref).max()


def test_reproduce_unknown_figure_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig99"])
    assert exc.value.code == 2


def test_reproduce_runs_and_reports(tmp_path, capsys):
    rc = main(["reproduce", "fig3d", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fig3d:eta_at_pi: PASS" in out
    assert (tmp_path / "fig3d_eta.csv").exists()
    summary = json.loads((tmp_path / "fig3d.json").read_text())
    assert summary["summary"]["passed"] is True


def test_ev_unit_mode(tmp_path):
    gamma0 = 2.677e-7   # eV
    rc = main(["ldos", "--set", f"gamma0_ev={gamma0}",
               "--set", "kappa=152.8e-6", "--set", "g=24.9e-6",
               "--set", "omega_c=0.78122", "--set", "gamma=2.677e-7",
               "--out", str(tmp_path)])
    assert rc == 0
    header, data = read_csv(tmp_path / "ldos.csv")
    assert header[0] == "omega[eV]"
    omega = data[:, 0]
    assert abs(omega[len(omega) // 2] - 0.78122) < 1e-9
    cfg = json.loads((tmp_path / "ldos.json").read_text())["config"]
    assert cfg["kappa"] == pytest.approx(152.8e-6 / gamma0)


def test_ev_mode_frequency_columns_are_scaled(tmp_path):
    # lamb_shift and local_coupling are frequencies: eV mode writes them times gamma0_ev
    gamma0 = 2.677e-7   # eV
    rates = {"g": 10.0, "kappa": 20.0, "gamma": 1.0}
    runs = {"g0": [f"{k}={v}" for k, v in rates.items()],
            "ev": [f"{k}={v * gamma0!r}" for k, v in rates.items()] + [f"gamma0_ev={gamma0}"]}
    cols = {}
    for name, sets in runs.items():
        args = ["spectrum", "--set", "omega_points=201", "--out", str(tmp_path / name)]
        assert main(args + [x for kv in sets for x in ("--set", kv)]) == 0
        cols[name] = read_csv(tmp_path / name / "spectrum.csv")
    (h0, d0), (h_ev, d_ev) = cols["g0"], cols["ev"]
    for col in ("lamb_shift", "local_coupling"):
        assert f"{col}[gamma0]" in h0 and f"{col}[eV]" in h_ev
        ref = d0[:, h0.index(f"{col}[gamma0]")] * gamma0
        np.testing.assert_allclose(d_ev[:, h_ev.index(f"{col}[eV]")], ref, rtol=1e-12)


def test_parse_sweep_validation():
    assert parse_sweep("g=1:2:5") == ("g", 1.0, 2.0, 5)
    with pytest.raises(ConfigError):
        parse_sweep("g=1:2:1")
    with pytest.raises(ConfigError):
        parse_sweep("nope=1:2:5")
    with pytest.raises(ConfigError):
        parse_sweep("g=1-2-5")


def test_sweep_with_a_bound_that_is_not_finite_exits_2_before_solving(tmp_path, capsys,
                                                                      monkeypatch):
    # a NaN or infinite bound makes NaN or infinite grid points, which reach no solver
    def never(*args, **kwargs):
        raise AssertionError("a point of a rejected grid was solved")
    monkeypatch.setattr(blockade, "g2_sweep", never)
    for bounds in ("nan:1", "0:inf", "-inf:0"):
        out = tmp_path / bounds.replace(":", "_")
        assert main(["blockade", "--sweep", f"detuning={bounds}:5", "--out", str(out)]) == 2
        assert f"config error: sweep bounds must be finite, got 'detuning={bounds}:5'" \
            in capsys.readouterr().err
        assert not (out / "blockade.csv").exists()


def test_workers_parallel_sweep_deterministic(tmp_path):
    # --workers is ignored; a blockade sweep once re-based its drive per worker chunk
    for args in (["trapping", "--sweep", "g=10:30:5", "--kappa", "20"],
                 ["blockade", "--sweep", "detuning=-12:12:25", "--g", "5"]):
        serial, par = tmp_path / args[0] / "s", tmp_path / args[0] / "p"
        assert main(args + ["--workers", "1", "--out", str(serial)]) == 0
        assert main(args + ["--workers", "2", "--out", str(par)]) == 0
        csv = f"{args[0]}.csv"
        assert (serial / csv).read_bytes() == (par / csv).read_bytes()


def test_parameter_validation_is_config_error(tmp_path, capsys):
    assert main(["dynamics", "--g", "-1", "--out", str(tmp_path)]) == 2
    assert "config error: g must be >= 0" in capsys.readouterr().err


def test_nonfinite_values_are_config_errors(tmp_path, capsys):
    # every comparison with NaN is False, so each check must be written to fail on it
    for args, field in ((["dynamics", "--set", "g=NaN"], "g must be >= 0 and finite"),
                        (["dynamics", "--set", "g=Infinity"], "g must be >= 0 and finite"),
                        (["blockade", "--set", "g=NaN"], "g must be >= 0 and finite"),
                        (["dynamics", "--set", "delta_phi=NaN"], "phi_prop must be finite"),
                        (["dynamics", "--set", "t_max=NaN"], "strictly ascending"),
                        (["ldos", "--set", "ldos_method=numerical", "--set", "omega_span=NaN"],
                         "strictly ascending")):
        with np.errstate(invalid="ignore", divide="ignore"):   # spectra of a NaN grid
            assert main(args + ["--out", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err


def test_ldos_rejects_a_span_that_is_not_positive_before_computing(tmp_path, capsys,
                                                                   monkeypatch):
    def never(*args):
        raise AssertionError("chi computed on a rejected grid")
    monkeypatch.setattr(ldos, "chi_dp", never)
    monkeypatch.setattr(ldos, "chi_ep", never)
    for value in ("NaN", "-1"):
        out = tmp_path / value
        assert main(["ldos", "--set", f"omega_span={value}", "--out", str(out)]) == 2
        assert "config error: the frequency grid must be strictly ascending: omega_span " \
               "must be positive and finite" in capsys.readouterr().err
        assert not (out / "ldos.csv").exists()


@pytest.mark.parametrize("field, value", [
    ("gamma", np.nan), ("kappa", np.inf), ("g", np.nan), ("omega0", np.nan),
    ("omega0", (0.0, np.inf)), ("omega_c", -np.inf), ("phi_prop", np.nan),
    ("phi_azim", (np.nan, 0.0))])
def test_model_params_reject_nonfinite_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be (>= 0 and )?finite"):
        ModelParams(**{field: value})


def test_drive_rejects_nonfinite_values():
    for kwargs, message in (({"omega_drive": 0.0, "amplitude": np.nan}, "amplitude"),
                            ({"omega_drive": 0.0, "amplitude": np.inf}, "amplitude"),
                            ({"omega_drive": np.nan, "amplitude": 0.2}, "omega_drive")):
        with pytest.raises(ValueError, match=message):
            DriveSpec(**kwargs)


def test_sweep_failed_point_is_nan_row_and_recorded(tmp_path, capsys):
    rc = main(["trapping", "--sweep", "g=0:40:5", "--kappa", "20", "--out", str(tmp_path)])
    assert rc == 0
    header, data = read_csv(tmp_path / "trapping.csv")
    assert header == ["g[gamma0]", "p_qubit[1]", "p_cavity_L[1]", "p_cavity_R[1]", "converged[1]"]
    assert np.isnan(data[0, 1:]).all() and np.isfinite(data[1:]).all()
    sidecar = json.loads((tmp_path / "trapping.json").read_text())
    assert sidecar["errors"] == [[0.0, "ValueError: g and kappa must be positive"]]
    variance = sidecar["summary"]["variance"]
    assert variance[0] is None and len(variance) == 5 and min(variance[1:]) >= 0.0
    assert capsys.readouterr().err.strip().splitlines() == [
        "epqed: 1 of 5 sweep points failed; see 'errors' in trapping.json"]


def test_trapping_sidecar_records_plateau_variance(tmp_path):
    assert main(["trapping", "--g", "10", "--kappa", "20", "--out", str(tmp_path)]) == 0
    header, _ = read_csv(tmp_path / "trapping.csv")
    assert header == ["p_cavity_L[1]", "p_cavity_R[1]", "p_qubit[1]", "converged[1]"]
    summary = json.loads((tmp_path / "trapping.json").read_text())["summary"]
    plat = dynamics.trapped_population(
        params_from_config({**DEFAULTS, "g": 10.0, "kappa": 20.0, "gamma": 0.0}))
    assert summary["variance"] == plat.variance
    assert summary["converged"] == (plat.variance <= dynamics.PLATEAU_VAR_TOL)


def test_eigen_sweep_failed_middle_point_keeps_labels_across_it(tmp_path, monkeypatch):
    built, real = [], spectra.coupling_matrix

    def failing_in_the_middle(params, n_qubits=None):
        if len(built) == 15:
            built.append(None)
            raise ValueError("injected failure")
        built.append(real(params, n_qubits))
        return built[-1]

    monkeypatch.setattr(spectra, "coupling_matrix", failing_in_the_middle)
    rc = main(["eigen", "--sweep", "delta_phi=0:3.0:31", "--g", "20", "--kappa", "20",
               "--gamma", "0", "--out", str(tmp_path)])
    assert rc == 0
    header, data = read_csv(tmp_path / "eigen.csv")
    assert np.isnan(data[15, 1:]).all()
    good = np.delete(np.arange(31), 15)
    assert np.isfinite(data[good]).all()
    errors = json.loads((tmp_path / "eigen.json").read_text())["errors"]
    assert errors == [[data[15, 0], "ValueError: injected failure"]]
    # the good points are one sweep, without the failed one
    expected = spectra.eigenmode_sweep(m for m in built if m is not None)
    for row, modes in zip(data[good], expected):
        for mode in modes:
            assert row[header.index(f"re_{mode.label}[gamma0]")] == mode.value.real
            assert row[header.index(f"im_{mode.label}[gamma0]")] == mode.value.imag


def test_sweep_with_every_point_failed_exits_3(tmp_path):
    rc = main(["blockade", "--sweep", "detuning=-2:2:3", "--g", "5",
               "--drive-amplitude", "0", "--out", str(tmp_path)])
    assert rc == 3
    _, data = read_csv(tmp_path / "blockade.csv")
    assert np.isnan(data[:, 1:]).all()
    errors = json.loads((tmp_path / "blockade.json").read_text())["errors"]
    assert [e[0] for e in errors] == [-2.0, 0.0, 2.0]
    assert all(e[1].startswith("StatisticsUndefinedError: ") for e in errors)
    diagnostics = json.loads((tmp_path / "blockade.json").read_text())["diagnostics"]
    assert diagnostics == {"max_steady_state_residual": None, "krylov_dim": 0,
                           "base_detuning": None}


def test_spectrum_grid_is_the_recorded_one(tmp_path):
    for points, extra in ((4001, []), (1001, ["--set", "omega_points=1001"])):
        out = tmp_path / str(points)
        assert main(["spectrum", "--g", "10", "--out", str(out)] + extra) == 0
        assert read_csv(out / "spectrum.csv")[1].shape[0] == points
        assert json.loads((out / "spectrum.json").read_text())["config"]["omega_points"] == points


def test_concurrence_run_matches_sweep_row(tmp_path):
    assert main(["concurrence", "--sweep", "g=10:30:3", "--out", str(tmp_path / "s")]) == 0
    assert main(["concurrence", "--g", "20", "--out", str(tmp_path / "one")]) == 0
    _, data = read_csv(tmp_path / "s" / "concurrence.csv")
    c_max = json.loads((tmp_path / "one" / "concurrence.json").read_text())["summary"]["c_max"]
    assert data[1, 0] == 20.0 and c_max == data[1, 1]


def test_integer_key_sweep_runs_and_rejects_fractions(tmp_path, capsys):
    assert main(["dynamics", "--sweep", "t_points=11:21:3", "--out", str(tmp_path / "s")]) == 0
    assert main(["dynamics", "--set", "t_points=16", "--out", str(tmp_path / "one")]) == 0
    header, data = read_csv(tmp_path / "s" / "dynamics.csv")
    assert header[0] == "t_points[1]" and list(data[:, 0]) == [11.0, 16.0, 21.0]
    summary = json.loads((tmp_path / "one" / "dynamics.json").read_text())["summary"]
    assert data[1, 1] == summary["max_p_cavity_R"]
    assert main(["dynamics", "--sweep", "t_points=11:21:4", "--out", str(tmp_path / "f")]) == 2
    assert "takes integers" in capsys.readouterr().err


def test_ev_mode_sweep_row_equals_single_run(tmp_path):
    ev = ["--set", "gamma0_ev=2.677e-7", "--set", "kappa=152.8e-6",
          "--set", "gamma=2.677e-7", "--set", "t_points=201"]
    assert main(["dynamics", *ev, "--sweep", "g=20e-6:30e-6:3", "--out", str(tmp_path / "s")]) == 0
    assert main(["dynamics", *ev, "--set", "g=25e-6", "--out", str(tmp_path / "one")]) == 0
    header, data = read_csv(tmp_path / "s" / "dynamics.csv")
    assert header[:2] == ["g[eV]", "max_p_cavity_R[1]"]
    assert data[1, 0] == pytest.approx(25e-6, rel=1e-12)
    summary = json.loads((tmp_path / "one" / "dynamics.json").read_text())["summary"]
    assert data[1, 1] == summary["max_p_cavity_R"]


def test_ev_mode_rerun_from_sidecar_reproduces_file(tmp_path):
    first, again = tmp_path / "a", tmp_path / "b"
    assert main(["dynamics", "--set", "gamma0_ev=2.677e-7", "--set", "kappa=152.8e-6",
                 "--set", "gamma=2.677e-7", "--set", "t_points=201",
                 "--set", "g=25e-6", "--out", str(first)]) == 0
    assert main(["dynamics", "--config", str(first / "dynamics.json"),
                 "--out", str(again)]) == 0
    assert (first / "dynamics.csv").read_bytes() == (again / "dynamics.csv").read_bytes()
    rerun = json.loads((again / "dynamics.json").read_text())["config"]
    assert rerun["g"] == pytest.approx(25e-6 / 2.677e-7, rel=1e-12)
