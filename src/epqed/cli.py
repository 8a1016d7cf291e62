"""Command-line front end.

    epqed <experiment> [--config FILE] [--set key=value ...]
          [--sweep name=start:stop:count] [--out DIR] [--workers N] [flags]

Experiments: ldos, fit, dynamics, spectrum, eigen, concurrence, blockade,
trapping, plus `reproduce <figure-id>` for the pinned pipelines.  Outputs are
CSV files (comma-delimited, one header row naming columns and units, a
leading comment line embedding the resolved config) plus a JSON sidecar with
the full config, library version and summary values.  Exit codes: 0 success,
2 config error, 3 numerical failure, 4 reproduction check failure.

Rates are in units of gamma0 = 1; when `gamma0_ev` is set, rate and
frequency inputs are read as eV (divided by gamma0_ev on input) and
frequency-like output columns are written back in eV.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, blockade, dynamics, figures, ldos, spectra
from .errors import ConfigError, EpqedError
from .hilbert import SpaceLayout
from .params import DriveSpec, ModelParams

EXPERIMENTS = ("ldos", "fit", "dynamics", "spectrum", "eigen", "concurrence",
               "blockade", "trapping")

DEFAULTS: dict = {
    "g": 1.0, "kappa": 20.0, "gamma": 1.0, "r_abs": 1.0,
    "delta_phi": 0.0, "omega_c": 0.0, "d0c": 0.0, "phi2_offset": 0.0,
    "fock_cutoff": 4,
    "t_max": 5.0, "t_points": 1001,
    "step": 0.0,   # accepted and ignored: propagation is exact, older sidecars carry it
    "omega_span": 5.0, "omega_points": 1001,
    "drive_amplitude": 0.2, "drive_detuning": 0.0, "drive_target": "cavity_R",
    "measure": "cavity_L",
    "detuning": 0.0,
    "ldos_method": "analytic",
    "tau_max": 0.0, "tau_step": 0.0,
    "input": "",
    "gamma0_ev": 0.0,
}
_EV_KEYS = ("g", "kappa", "gamma", "omega_c", "d0c", "drive_amplitude",
            "drive_detuning", "detuning")
_FREQ_COLS = ("omega", "detuning", "delta_0c", "delta_omega", "J", "J_dp",
              "J_ep", "gamma_m", "splitting", "peak_omega")


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def resolve_config(args: argparse.Namespace) -> tuple[dict, tuple | None]:
    """Config and sweep of a run; an explicit --sweep overrides a sidecar's."""
    cfg = dict(DEFAULTS)
    sweep = args.sweep
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if "config" in loaded and isinstance(loaded["config"], dict):
            sweep = sweep or loaded.get("sweep")   # re-run from a sidecar
            loaded = loaded["config"]
        for key, val in loaded.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r} in {args.config}")
            cfg[key] = val
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = _parse_value(val)
    for key in ("g", "kappa", "gamma", "r_abs", "delta_phi", "d0c",
                "drive_amplitude", "fock_cutoff", "input"):
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            cfg[key] = flag
    if cfg["gamma0_ev"]:
        scale = float(cfg["gamma0_ev"])
        for key in _EV_KEYS:
            cfg[key] = float(cfg[key]) / scale
    for key in cfg:
        if key in ("input", "ldos_method", "drive_target", "measure"):
            continue
        try:
            cfg[key] = float(cfg[key])
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key!r} must be numeric, got {cfg[key]!r}")
    cfg["fock_cutoff"] = int(cfg["fock_cutoff"])
    cfg["t_points"] = int(cfg["t_points"])
    cfg["omega_points"] = int(cfg["omega_points"])
    return cfg, parse_sweep(sweep) if sweep else None


def parse_sweep(text: str) -> tuple[str, float, float, int]:
    try:
        name, _, rng = text.partition("=")
        start, stop, count = rng.split(":")
        name, start, stop, count = name.strip(), float(start), float(stop), int(count)
    except ValueError:
        raise ConfigError(f"--sweep expects name=start:stop:count, got {text!r}")
    if name not in DEFAULTS or name in ("input", "ldos_method", "drive_target", "measure"):
        raise ConfigError(f"sweep axis {name!r} is not a numeric parameter")
    if count < 2:
        raise ConfigError(f"sweep count must be >= 2, got {count}")
    return name, start, stop, count


def params_from_config(cfg: dict, n_qubits: int = 1) -> ModelParams:
    phi2 = cfg.get("phi2_offset", 0.0)
    phi_azim = 0.0 if n_qubits == 1 else (0.0, float(phi2))
    return ModelParams(
        omega0=cfg["omega_c"] + cfg["d0c"], omega_c=cfg["omega_c"],
        gamma=cfg["gamma"], kappa=cfg["kappa"], g=cfg["g"],
        r_abs=cfg["r_abs"], phi_prop=cfg["delta_phi"], phi_azim=phi_azim)


# ---------------------------------------------------------------------------
# experiment pipelines: full tables and one-line sweep summaries
# ---------------------------------------------------------------------------

def _exp_ldos(cfg: dict):
    p = params_from_config(cfg)
    span = cfg["omega_span"] * cfg["kappa"]
    w = np.linspace(cfg["omega_c"] - span, cfg["omega_c"] + span, cfg["omega_points"])
    j_dp = -p.g**2 * np.imag(ldos.chi_dp(w, p))
    j_ep = -p.g**2 * np.imag(ldos.chi_ep(w, p))
    cols = {"omega": w}
    if cfg["ldos_method"] == "numerical":
        layout = SpaceLayout(0, 2)
        tau_max = cfg["tau_max"] if cfg["tau_max"] > 0 else None
        tau_step = cfg["tau_step"] if cfg["tau_step"] > 0 else None
        cols["J"] = ldos.numerical_spectral_density(p, layout, w, tau_max, tau_step).value
        cols["J_analytic"] = j_dp + j_ep
    else:
        cols["J"] = j_dp + j_ep
        cols["J_dp"] = j_dp
        cols["J_ep"] = j_ep
        if p.gamma > 0:
            cols["purcell"] = ldos.purcell_factor(w, p)
    summary = _ldos_summary(cfg)
    return {"ldos": cols}, summary


def _ldos_summary(cfg: dict) -> dict:
    p = params_from_config(cfg)
    out = {"J_omega_c": float(ldos.spectral_density(p.omega_c, p)),
           "eta": ldos.enhancement_eta(p.delta_phi, p.r_abs, p)}
    try:
        out["delta_omega_m"] = ldos.transparency_detuning(p.delta_phi, p.kappa)
    except EpqedError:
        out["delta_omega_m"] = np.nan
    return out


def _exp_dynamics(cfg: dict):
    p = params_from_config(cfg)
    t = np.linspace(0.0, cfg["t_max"], cfg["t_points"])
    series = dynamics.amplitude_evolve(p, dynamics.excited_qubit_state(1), t)
    cols = {"t": t, "p_cavity_L": series.cavity_L, "p_cavity_R": series.cavity_R,
            "p_qubit": series.qubit(), "leaked_waveguide": series.leaked_kappa,
            "leaked_free_space": series.leaked_gamma}
    summary = {"max_p_cavity_R": float(series.cavity_R.max()),
               "p_qubit_final": float(series.qubit()[-1])}
    return {"dynamics": cols}, summary


def _dynamics_summary(cfg: dict) -> dict:
    _, summary = _exp_dynamics(cfg)
    return summary


def _exp_spectrum(cfg: dict):
    p = params_from_config(cfg)
    omega0 = p.omega0_list()[0]
    span = max(4.0 * p.g, 4.0 * p.kappa)
    n = cfg["omega_points"] if cfg["omega_points"] != DEFAULTS["omega_points"] else 4001
    w = np.linspace(omega0 - span, omega0 + span, n)
    series = spectra.se_spectrum(w, p)
    cols = {"omega": w, "S": series.value,
            "lamb_shift": spectra.lamb_shift(w, p),
            "local_coupling": spectra.local_coupling(w, p)}
    return {"spectrum": cols}, _spectrum_summary_from(series)


def _spectrum_summary_from(series) -> dict:
    peaks = spectra.spectrum_peaks(series, n_peaks=2)
    out = {"peak_omega": peaks[0][0] if peaks else np.nan,
           "peak_height": peaks[0][1] if peaks else np.nan}
    out["splitting"] = abs(peaks[0][0] - peaks[1][0]) if len(peaks) > 1 else 0.0
    return out


def _spectrum_summary(cfg: dict) -> dict:
    p = params_from_config(cfg)
    omega0 = p.omega0_list()[0]
    span = max(4.0 * p.g, 4.0 * p.kappa)
    w = np.linspace(omega0 - span, omega0 + span, 4001)
    return _spectrum_summary_from(spectra.se_spectrum(w, p))


def _exp_eigen(cfg: dict, sweep=None):
    p = params_from_config(cfg)
    if sweep is None:
        modes = spectra.eigenmodes(spectra.coupling_matrix(p))
        cols = {"label": np.array([m.label for m in modes], dtype=float),
                "re": np.array([m.value.real for m in modes]),
                "im": np.array([m.value.imag for m in modes]),
                "hopfield_cavity_L": np.array([m.hopfield[0] for m in modes]),
                "hopfield_cavity_R": np.array([m.hopfield[1] for m in modes]),
                "hopfield_qubit": np.array([m.qubit_weight for m in modes]),
                "degenerate": np.array([float(m.degenerate) for m in modes])}
        summary = {"min_decay": float(min(-m.value.imag for m in modes))}
        return {"eigen": cols}, summary
    name, values = sweep
    mats = (spectra.coupling_matrix(params_from_config({**cfg, name: float(v)}))
            for v in values)
    sweep_modes = spectra.eigenmode_sweep(mats)
    nmodes = len(sweep_modes[0])
    cols = {name: values}
    for lab in range(nmodes):
        series = [next(m for m in modes if m.label == lab) for modes in sweep_modes]
        cols[f"re_{lab}"] = np.array([m.value.real for m in series])
        cols[f"im_{lab}"] = np.array([m.value.imag for m in series])
        cols[f"hopfield_qubit_{lab}"] = np.array([m.qubit_weight for m in series])
    return {"eigen": cols}, {"n_modes": float(nmodes)}


def _exp_concurrence(cfg: dict):
    p = params_from_config(cfg, n_qubits=2)
    t = np.linspace(0.0, cfg["t_max"], cfg["t_points"])
    c = dynamics.concurrence_series(p, t)
    series = dynamics.amplitude_evolve(p, dynamics.excited_qubit_state(2), t,
                                       n_qubits=2)
    cols = {"t": t, "concurrence": c,
            "p_qubit_1": series.qubit(0), "p_qubit_2": series.qubit(1),
            "p_cavity_L": series.cavity_L, "p_cavity_R": series.cavity_R}
    return {"concurrence": cols}, {"c_max": float(c.max())}


def _concurrence_summary(cfg: dict) -> dict:
    p = params_from_config(cfg, n_qubits=2)
    t = np.linspace(0.0, cfg["t_max"], cfg["t_points"])
    return {"c_max": dynamics.max_concurrence(p, t)}


def _blockade_drive(cfg: dict, detuning: float) -> DriveSpec:
    return DriveSpec(omega_drive=cfg["omega_c"] + detuning,
                     amplitude=cfg["drive_amplitude"], target=cfg["drive_target"])


def _exp_blockade(cfg: dict):
    p = params_from_config(cfg)
    layout = SpaceLayout(1, cfg["fock_cutoff"])
    res = blockade.g2_zero(p, _blockade_drive(cfg, cfg["detuning"]), layout,
                           measure=cfg["measure"])
    cols = {"detuning": np.array([res.detuning]), "g2": np.array([res.g2]),
            "n_L": np.array([res.n_L])}
    return {"blockade": cols}, {"g2": res.g2, "n_L": res.n_L}


def _blockade_sweep(cfg: dict, values: np.ndarray, workers: int):
    p = params_from_config(cfg)
    layout = SpaceLayout(1, cfg["fock_cutoff"])
    drive = _blockade_drive(cfg, 0.0)
    chunks = np.array_split(values, workers) if workers > 1 else [values]
    chunks = [c for c in chunks if len(c)]
    if len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_blockade_chunk,
                                  [(p, drive, c, layout, cfg["measure"]) for c in chunks]))
    else:
        parts = [_blockade_chunk((p, drive, chunks[0], layout, cfg["measure"]))]
    results = [r for part in parts for r in part.results]
    g2_vals = np.array([r.g2 for r in results])
    nl_vals = np.array([r.n_L for r in results])
    cols = {"detuning": values, "g2": g2_vals, "n_L": nl_vals}
    min_det, min_g2 = blockade._interp_extremum(values, g2_vals, "min")
    max_det, max_nl = blockade._interp_extremum(values, nl_vals, "max")
    summary = {"min_g2": min_g2, "min_g2_detuning": min_det,
               "max_n_L": max_nl, "max_n_L_detuning": max_det}
    return {"blockade": cols}, summary


def _blockade_chunk(job):
    p, drive, dets, layout, measure = job
    return blockade.g2_sweep(p, drive, dets, layout, measure=measure)


def _exp_trapping(cfg: dict):
    cfg = {**cfg, "gamma": 0.0}   # trapping is defined for an ideal emitter
    p = params_from_config(cfg)
    plat = dynamics.trapped_population(p)
    cols = {"p_cavity_L": np.array([plat.components[0]]),
            "p_cavity_R": np.array([plat.components[1]]),
            "p_qubit": np.array([plat.components[2]]),
            "converged": np.array([float(plat.converged)])}
    summary = {"p_qubit": float(plat.components[2]), "p_cavity": plat.cavity,
               "converged": bool(plat.converged)}
    return {"trapping": cols}, summary


def _trapping_summary(cfg: dict) -> dict:
    cfg = {**cfg, "gamma": 0.0}
    p = params_from_config(cfg)
    plat = dynamics.trapped_population(p)
    return {"p_qubit": float(plat.components[2]),
            "p_cavity_L": float(plat.components[0]),
            "p_cavity_R": float(plat.components[1]),
            "converged": float(plat.converged)}


def _exp_fit(cfg: dict):
    if not cfg["input"]:
        raise ConfigError("fit needs --input FILE (two-column CSV)")
    samples = ldos.load_spectrum_csv(cfg["input"])
    result = ldos.fit_lorentzian(samples)
    return {}, result.as_dict()


_SUMMARY_FNS = {
    "ldos": _ldos_summary, "dynamics": _dynamics_summary,
    "spectrum": _spectrum_summary, "concurrence": _concurrence_summary,
    "trapping": _trapping_summary,
}
_FULL_FNS = {
    "ldos": _exp_ldos, "dynamics": _exp_dynamics, "spectrum": _exp_spectrum,
    "concurrence": _exp_concurrence, "blockade": _exp_blockade,
    "trapping": _exp_trapping, "fit": _exp_fit,
}


def _summary_job(job):
    experiment, cfg = job
    return _SUMMARY_FNS[experiment](cfg)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _unit(col: str, ev_mode: bool) -> str:
    freq_unit = "eV" if ev_mode else "gamma0"
    if col == "t":
        return "[1/gamma0]"
    if col.startswith(_FREQ_COLS) or col.startswith(("re_", "im_", "re", "im")):
        return f"[{freq_unit}]"
    return "[1]"


def _freq_like(col: str) -> bool:
    return col.startswith(_FREQ_COLS) or col.startswith(("re_", "im_")) or col in ("re", "im")


def write_csv(path: Path, columns: dict, cfg: dict, experiment: str):
    ev_scale = float(cfg.get("gamma0_ev") or 0.0)
    names = list(columns)
    meta = json.dumps({"experiment": experiment, "version": __version__,
                       "config": _jsonable(cfg)}, separators=(",", ":"))
    lines = [f"# epqed {meta}"]
    lines.append(",".join(f"{n}{_unit(n, ev_scale > 0)}" for n in names))
    data = []
    for n in names:
        col = np.asarray(columns[n], dtype=float)
        if ev_scale > 0 and _freq_like(n):
            col = col * ev_scale
        data.append(col)
    for row in zip(*data):
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and np.isnan(obj):
        return None
    return obj


def write_sidecar(path: Path, experiment: str, cfg: dict, outputs: list[str],
                  summary: dict, sweep=None):
    payload = {"tool": "epqed", "version": __version__, "experiment": experiment,
               "config": _jsonable(cfg), "outputs": outputs,
               "summary": _jsonable(summary)}
    if sweep is not None:
        name, start, stop, count = sweep
        payload["sweep"] = f"{name}={float(start)!r}:{float(stop)!r}:{count}"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def run(experiment: str, cfg: dict, sweep=None, out_dir: Path = Path("."),
        workers: int = 1) -> dict:
    """Execute one experiment; returns the summary written to the sidecar."""
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    if sweep is not None and experiment == "blockade":
        name, start, stop, count = sweep
        if name != "detuning":
            raise ConfigError("blockade sweeps support the 'detuning' axis")
        values = np.linspace(start, stop, count)
        tables, summary = _blockade_sweep(cfg, values, workers)
    elif sweep is not None and experiment == "eigen":
        name, start, stop, count = sweep
        tables, summary = _exp_eigen(cfg, sweep=(name, np.linspace(start, stop, count)))
    elif sweep is not None:
        if experiment not in _SUMMARY_FNS:
            raise ConfigError(f"experiment {experiment!r} does not support sweeps")
        name, start, stop, count = sweep
        values = np.linspace(start, stop, count)
        jobs = [(experiment, {**cfg, name: float(v)}) for v in values]
        if workers > 1 and count > 3:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_summary_job, jobs))
        else:
            rows = [_summary_job(j) for j in jobs]
        cols = {name: values}
        for key in rows[0]:
            cols[key] = np.array([float(r[key]) for r in rows])
        tables = {experiment: cols}
        summary = {"sweep": name, "points": count}
    else:
        if experiment == "eigen":
            tables, summary = _exp_eigen(cfg)
        else:
            tables, summary = _FULL_FNS[experiment](cfg)

    for stem, columns in tables.items():
        path = out_dir / f"{stem}.csv"
        write_csv(path, columns, cfg, experiment)
        outputs.append(path.name)
    sidecar = out_dir / f"{experiment}.json"
    write_sidecar(sidecar, experiment, cfg, outputs, summary, sweep)
    return summary


def run_reproduce(figure: str, out_dir: Path) -> bool:
    result = figures.reproduce_figure(figure)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for stem, columns in result.tables.items():
        path = out_dir / f"{stem}.csv"
        write_csv(path, columns, {"figure": figure}, f"reproduce:{figure}")
        outputs.append(path.name)
    summary = {"checks": [{"name": c.name, "value": _jsonable(c.value),
                           "target": c.target, "pass": bool(c.passed)}
                          for c in result.checks],
               "passed": bool(result.passed)}
    write_sidecar(out_dir / f"{figure}.json", f"reproduce:{figure}",
                  {"figure": figure}, outputs, summary)
    for c in result.checks:
        print(f"{figure}:{c.name}: {'PASS' if c.passed else 'FAIL'} "
              f"(value {c.value:.6g}, target {c.target})")
    return result.passed


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epqed",
        description="Quantum emitter + chiral-EP cavity simulation pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON config file (or a sidecar)")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key")
        sp.add_argument("--sweep", metavar="NAME=START:STOP:COUNT",
                        help="sweep one numeric parameter")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--workers", type=int, default=os.cpu_count() or 1)
        sp.add_argument("--g", type=float, default=None)
        sp.add_argument("--kappa", type=float, default=None)
        sp.add_argument("--gamma", type=float, default=None)
        sp.add_argument("--r-abs", dest="r_abs", type=float, default=None)
        sp.add_argument("--delta-phi", dest="delta_phi", type=float, default=None)
        sp.add_argument("--d0c", type=float, default=None,
                        help="emitter-cavity detuning omega0 - omega_c")
        sp.add_argument("--drive-amplitude", dest="drive_amplitude", type=float,
                        default=None)
        sp.add_argument("--fock-cutoff", dest="fock_cutoff", type=int, default=None)
        sp.add_argument("--input", default=None, help="input CSV (fit)")

    for name in EXPERIMENTS:
        add_common(sub.add_parser(name, help=f"run the {name} pipeline"))
    rep = sub.add_parser("reproduce", help="run a pinned figure pipeline")
    rep.add_argument("figure", choices=sorted(figures.PIPELINES))
    rep.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            ok = run_reproduce(args.figure, Path(args.out))
            return 0 if ok else 4
        cfg, sweep = resolve_config(args)
        summary = run(args.command, cfg, sweep=sweep, out_dir=Path(args.out),
                      workers=max(1, args.workers))
        print(json.dumps(_jsonable(summary), sort_keys=True))
        return 0
    except ConfigError as exc:
        print(f"epqed: config error: {exc}", file=sys.stderr)
        return 2
    except EpqedError as exc:
        print(f"epqed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
