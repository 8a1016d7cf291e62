"""Command-line front end.

    epqed <experiment> [--config FILE] [--set key=value ...]
          [--sweep name=start:stop:count] [--out DIR] [flags]

Experiments: ldos, fit, dynamics, spectrum, eigen, concurrence, blockade,
trapping, plus `reproduce <figure-id>` for the pinned pipelines.  Outputs are
CSV files (comma-delimited, one header row naming columns and units, a
leading comment line embedding the resolved config) plus a JSON sidecar with
the full config, library version and summary values.

Each experiment is one function cfg -> (tables, summary) in EXPERIMENTS.  A
sweep runs serially and writes one CSV row per grid value: the experiment's
summary at that value, except that a blockade sweep over `detuning` makes
one `blockade.g2_sweep` call (one Liouvillian build, affine in the drive
frequency) and an eigen sweep one `spectra.eigenmode_sweep` call (labels
follow continuity along the grid).  A point that raises EpqedError or
ValueError gives a NaN row and an entry [value, "TypeName: message"] in the
sidecar's `errors` list, and stderr gets one line with the failure count.
`--workers` is ignored (sweeps run serially) and stays only because the
benchmark's workloads pass it.

Exit codes: 0 success (for a sweep: at least one point succeeded), 2 config
error (a rejected parameter included), 3 numerical failure (for a sweep:
every point failed), 4 reproduction check failure.

Rates are in units of gamma0 = 1; when `gamma0_ev` is set, rate and
frequency inputs are read as eV (divided by gamma0_ev on input) and
frequency-like output columns are written back in eV.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, blockade, dynamics, figures, ldos, spectra
from .errors import ConfigError, EpqedError, each_point
from .hilbert import SpaceLayout
from .numerics import quadratic_extremum
from .params import DriveSpec, ModelParams

DEFAULTS: dict = {
    "g": 1.0, "kappa": 20.0, "gamma": 1.0, "r_abs": 1.0,
    "delta_phi": 0.0, "omega_c": 0.0, "d0c": 0.0, "phi2_offset": 0.0,
    "fock_cutoff": 4,
    "t_max": 5.0, "t_points": 1001,
    "omega_span": 5.0, "omega_points": 1001,
    "drive_amplitude": 0.2, "drive_target": "cavity_R",
    "measure": "cavity_L",
    "detuning": 0.0,
    "ldos_method": "analytic",
    "input": "",
    "gamma0_ev": 0.0,
}
_EV_KEYS = ("g", "kappa", "gamma", "omega_c", "d0c", "drive_amplitude", "detuning")
_INT_KEYS = tuple(key for key, val in DEFAULTS.items() if isinstance(val, int))
_STR_KEYS = tuple(key for key, val in DEFAULTS.items() if isinstance(val, str))
# keys older configs and sidecars may carry; ignored
_RETIRED = ("step", "drive_detuning", "tau_max", "tau_step")
# the keys with a flag of their own (--r-abs for r_abs), with the flag's help text
_FLAGS = {"g": None, "kappa": None, "gamma": None, "r_abs": None, "delta_phi": None,
          "d0c": "emitter-cavity detuning omega0 - omega_c", "drive_amplitude": None,
          "fock_cutoff": None, "input": "input CSV (fit)"}
_FREQ_COLS = ("omega", "detuning", "delta_0c", "delta_omega", "J", "J_dp", "J_ep", "gamma_m",
              "splitting", "peak_omega", "lamb_shift", "local_coupling")
# per-experiment defaults over DEFAULTS: spectrum peaks need a finer grid
_EXPERIMENT_DEFAULTS = {"spectrum": {"omega_points": 4001}}
_RESIDUAL = "steady_state_residual"   # per-point blockade key, moved to the sidecar


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def resolve_config(args: argparse.Namespace) -> tuple[dict, tuple | None]:
    """Config and sweep of a run; an explicit --sweep overrides a sidecar's.

    With gamma0_ev set, the eV keys given by --set, a flag or a plain config
    file are divided by it; those loaded from a sidecar, which records them
    already divided, are not.
    """
    cfg = {**DEFAULTS, **_EXPERIMENT_DEFAULTS.get(args.command, {})}
    sweep = args.sweep
    in_gamma0 = set()   # eV keys already divided by gamma0_ev
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if "config" in loaded and isinstance(loaded["config"], dict):
            sweep = sweep or loaded.get("sweep")   # re-run from a sidecar
            loaded = loaded["config"]
            in_gamma0.update(_EV_KEYS)   # a sidecar records the resolved config
        for key in _RETIRED:
            loaded.pop(key, None)
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
        in_gamma0.discard(key)
    for key in _FLAGS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
            in_gamma0.discard(key)
    if cfg["gamma0_ev"]:
        scale = float(cfg["gamma0_ev"])
        for key in set(_EV_KEYS) - in_gamma0:
            cfg[key] = float(cfg[key]) / scale
    for key in cfg:
        if key in _STR_KEYS:
            continue
        try:
            cfg[key] = float(cfg[key])
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key!r} must be numeric, got {cfg[key]!r}")
    for key in _INT_KEYS:
        cfg[key] = int(cfg[key])
    return cfg, parse_sweep(sweep) if sweep else None


def parse_sweep(text: str) -> tuple[str, float, float, int]:
    try:
        name, _, rng = text.partition("=")
        start, stop, count = rng.split(":")
        name, start, stop, count = name.strip(), float(start), float(stop), int(count)
    except ValueError:
        raise ConfigError(f"--sweep expects name=start:stop:count, got {text!r}")
    if name not in DEFAULTS or name in _STR_KEYS:
        raise ConfigError(f"sweep axis {name!r} is not a numeric parameter")
    if count < 2:
        raise ConfigError(f"sweep count must be >= 2, got {count}")
    if name in _INT_KEYS and np.any(np.mod(np.linspace(start, stop, count), 1.0) != 0.0):
        raise ConfigError(f"sweep axis {name!r} takes integers, but {text!r} "
                          "has non-integral points")
    return name, start, stop, count


def _point_config(cfg: dict, name: str, value: float) -> dict:
    """cfg with one swept key set; integer keys are coerced per point."""
    return {**cfg, name: int(value) if name in _INT_KEYS else value}


def params_from_config(cfg: dict, n_qubits: int = 1) -> ModelParams:
    phi2 = cfg.get("phi2_offset", 0.0)
    phi_azim = 0.0 if n_qubits == 1 else (0.0, float(phi2))
    return ModelParams(
        omega0=cfg["omega_c"] + cfg["d0c"], omega_c=cfg["omega_c"],
        gamma=cfg["gamma"], kappa=cfg["kappa"], g=cfg["g"],
        r_abs=cfg["r_abs"], phi_prop=cfg["delta_phi"], phi_azim=phi_azim)


# ---------------------------------------------------------------------------
# experiments: cfg -> (tables, summary); a sweep row is the summary
# ---------------------------------------------------------------------------

def _exp_ldos(cfg: dict):
    p = params_from_config(cfg)
    span = cfg["omega_span"] * cfg["kappa"]
    w = np.linspace(cfg["omega_c"] - span, cfg["omega_c"] + span, cfg["omega_points"])
    j_dp = -p.g**2 * np.imag(ldos.chi_dp(w, p))
    j_ep = -p.g**2 * np.imag(ldos.chi_ep(w, p))
    cols = {"omega": w}
    if cfg["ldos_method"] == "numerical":
        layout = SpaceLayout(0, 2, max_excitations=1)
        cols["J"] = ldos.numerical_spectral_density(p, layout, w).value
        cols["J_analytic"] = j_dp + j_ep
    else:
        cols["J"] = j_dp + j_ep
        cols["J_dp"] = j_dp
        cols["J_ep"] = j_ep
        if p.gamma > 0:
            cols["purcell"] = ldos.purcell_factor(w, p)
    summary = {"J_omega_c": float(ldos.spectral_density(p.omega_c, p)),
               "eta": ldos.enhancement_eta(p.delta_phi, p.r_abs, p)}
    try:
        summary["delta_omega_m"] = ldos.transparency_detuning(p.delta_phi, p.kappa)
    except EpqedError:
        summary["delta_omega_m"] = np.nan
    return {"ldos": cols}, summary


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


def _exp_spectrum(cfg: dict):
    p = params_from_config(cfg)
    omega0 = p.omega0_list()[0]
    span = max(4.0 * p.g, 4.0 * p.kappa)
    w = np.linspace(omega0 - span, omega0 + span, cfg["omega_points"])
    series = spectra.se_spectrum(w, p)
    cols = {"omega": w, "S": series.value,
            "lamb_shift": spectra.lamb_shift(w, p),
            "local_coupling": spectra.local_coupling(w, p)}
    peaks = spectra.spectrum_peaks(series, n_peaks=2)
    summary = {"peak_omega": peaks[0][0] if peaks else np.nan,
               "peak_height": peaks[0][1] if peaks else np.nan,
               "splitting": abs(peaks[0][0] - peaks[1][0]) if len(peaks) > 1 else 0.0}
    return {"spectrum": cols}, summary


def _exp_eigen(cfg: dict):
    modes = spectra.eigenmodes(spectra.coupling_matrix(params_from_config(cfg)))
    cols = {"label": np.array([m.label for m in modes], dtype=float),
            "re": np.array([m.value.real for m in modes]),
            "im": np.array([m.value.imag for m in modes]),
            "hopfield_cavity_L": np.array([m.hopfield[0] for m in modes]),
            "hopfield_cavity_R": np.array([m.hopfield[1] for m in modes]),
            "hopfield_qubit": np.array([m.qubit_weight for m in modes]),
            "degenerate": np.array([float(m.degenerate) for m in modes])}
    return {"eigen": cols}, {"min_decay": float(min(-m.value.imag for m in modes))}


def _exp_concurrence(cfg: dict):
    p = params_from_config(cfg, n_qubits=2)
    t = np.linspace(0.0, cfg["t_max"], cfg["t_points"])
    series = dynamics.amplitude_evolve(p, dynamics.excited_qubit_state(2), t,
                                       n_qubits=2)
    c = dynamics.concurrence(series)
    cols = {"t": t, "concurrence": c,
            "p_qubit_1": series.qubit(0), "p_qubit_2": series.qubit(1),
            "p_cavity_L": series.cavity_L, "p_cavity_R": series.cavity_R}
    return {"concurrence": cols}, {"c_max": quadratic_extremum(t, c, int(np.argmax(c)))[1]}


def _blockade_problem(cfg: dict, detuning: float) -> tuple[ModelParams, DriveSpec]:
    """Params and drive in the cavity frame (omega_c = 0).  Blockade outputs depend on
    frequencies only through d0c and the detuning, so both reach the solver as given."""
    return (params_from_config({**cfg, "omega_c": 0.0}),
            DriveSpec(omega_drive=detuning, amplitude=cfg["drive_amplitude"],
                      target=cfg["drive_target"]))


def _blockade_layout(cfg: dict) -> SpaceLayout:
    return SpaceLayout(1, cfg["fock_cutoff"])


def _solved_basis(cfg: dict) -> dict:
    """The basis a blockade run solves in, by blockade.solve_layout's rule."""
    lay = blockade.solve_layout(_blockade_layout(cfg))
    return {"fock_cutoff": lay.fock_cutoff, "max_excitations": lay.max_excitations,
            "dim": lay.dim}


def _exp_blockade(cfg: dict):
    res = blockade.g2_zero(*_blockade_problem(cfg, cfg["detuning"]), _blockade_layout(cfg),
                           measure=cfg["measure"])
    cols = {"detuning": np.array([res.detuning]), "g2": np.array([res.g2]),
            "n_L": np.array([res.n_L])}
    return {"blockade": cols}, {"g2": res.g2, "n_L": res.n_L, _RESIDUAL: res.residual}


def _exp_trapping(cfg: dict):
    cfg = {**cfg, "gamma": 0.0}   # trapping is defined for an ideal emitter
    plat = dynamics.trapped_population(params_from_config(cfg))
    summary = {"p_qubit": float(plat.components[2]),
               "p_cavity_L": float(plat.components[0]),
               "p_cavity_R": float(plat.components[1]),
               "converged": bool(plat.converged), "variance": plat.variance}
    cols = {key: np.array([float(summary[key])])
            for key in ("p_cavity_L", "p_cavity_R", "p_qubit", "converged")}
    return {"trapping": cols}, summary


def _exp_fit(cfg: dict):
    if not cfg["input"]:
        raise ConfigError("fit needs --input FILE (two-column CSV)")
    samples = ldos.load_spectrum_csv(cfg["input"])
    result = ldos.fit_lorentzian(samples)
    return {}, result.as_dict()


EXPERIMENTS = {
    "ldos": _exp_ldos, "fit": _exp_fit, "dynamics": _exp_dynamics,
    "spectrum": _exp_spectrum, "eigen": _exp_eigen,
    "concurrence": _exp_concurrence, "blockade": _exp_blockade,
    "trapping": _exp_trapping,
}


# ---------------------------------------------------------------------------
# sweeps: each returns one row dict per grid value (None where the point
# failed), the sweep summary and the failed points as [value, message]
# ---------------------------------------------------------------------------

def _generic_sweep(experiment: str, cfg: dict, name: str, values: np.ndarray):
    rows, errors = each_point(
        values, lambda v: EXPERIMENTS[experiment](_point_config(cfg, name, v))[1])
    return rows, {"sweep": name, "points": len(values)}, errors


def _blockade_sweep(cfg: dict, values: np.ndarray):
    res = blockade.g2_sweep(*_blockade_problem(cfg, 0.0), values, _blockade_layout(cfg),
                            measure=cfg["measure"])
    rows = [{"g2": r.g2, "n_L": r.n_L, _RESIDUAL: r.residual} for r in res.results]
    summary = {"min_g2": res.min_g2, "min_g2_detuning": res.min_g2_detuning,
               "max_n_L": res.max_n_L, "max_n_L_detuning": res.max_n_L_detuning}
    return rows, summary, res.errors


def _eigen_sweep(cfg: dict, name: str, values: np.ndarray):
    mats, errors = each_point(values, lambda v: spectra.coupling_matrix(
        params_from_config(_point_config(cfg, name, v))))
    good = [i for i, m in enumerate(mats) if m is not None]
    rows = [None] * len(values)
    for i, modes in zip(good, spectra.eigenmode_sweep(mats[i] for i in good)):
        rows[i] = {f"{key}_{m.label}": val
                   for m in sorted(modes, key=lambda m: m.label)
                   for key, val in (("re", m.value.real), ("im", m.value.imag),
                                    ("hopfield_qubit", m.qubit_weight))}
    n_modes = len(mats[good[0]]) if good else np.nan
    return rows, {"n_modes": float(n_modes)}, errors


def _sweep_columns(name: str, values: np.ndarray, rows: list) -> dict:
    cols = {name: values}
    for i, row in enumerate(rows):
        for key, val in (row or {}).items():
            if key not in cols:
                cols[key] = np.full(len(values), np.nan)
            cols[key][i] = float(val)
    return cols


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _freq_like(col: str) -> bool:
    return (col.startswith(_FREQ_COLS) or col.startswith(("re_", "im_"))
            or col in ("re", "im") or col in _EV_KEYS)


def _unit(col: str, ev_mode: bool) -> str:
    if col == "t":
        return "[1/gamma0]"
    if not _freq_like(col):
        return "[1]"
    return "[eV]" if ev_mode else "[gamma0]"


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
                  summary: dict, sweep=None, errors=None, extra=None):
    payload = {"tool": "epqed", "version": __version__, "experiment": experiment,
               "config": _jsonable(cfg), "outputs": outputs,
               "summary": _jsonable(summary), **_jsonable(extra or {})}
    if sweep is not None:
        name, start, stop, count = sweep
        payload["sweep"] = f"{name}={float(start)!r}:{float(stop)!r}:{count}"
        payload["errors"] = errors or []
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def run(experiment: str, cfg: dict, sweep=None,
        out_dir: Path = Path(".")) -> tuple[dict, list]:
    """Execute one experiment or sweep; returns the summary written to the
    sidecar and the failed sweep points as [value, "TypeName: message"].

    A blockade sidecar also records the basis solved in as `basis`
    {fock_cutoff, max_excitations, dim}; for a sweep over fock_cutoff it is a
    list with one entry per point (null where SpaceLayout rejects the cutoff).
    Its `diagnostics` hold the largest steady-state residual |L vec(rho)| over
    the solved points (null when none was solved).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    errors, extra = [], {}
    if sweep is None:
        tables, summary = EXPERIMENTS[experiment](cfg)
        rows = [summary]
    else:
        if experiment == "fit":
            raise ConfigError(f"experiment {experiment!r} does not support sweeps")
        name, start, stop, count = sweep
        values = np.linspace(start, stop, count)
        if cfg.get("gamma0_ev") and name in _EV_KEYS:   # eV input, as in resolve_config
            values = values / float(cfg["gamma0_ev"])
        if experiment == "eigen":
            rows, summary, errors = _eigen_sweep(cfg, name, values)
        elif experiment == "blockade" and name == "detuning":
            rows, summary, errors = _blockade_sweep(cfg, values)
        else:
            rows, summary, errors = _generic_sweep(experiment, cfg, name, values)
    if experiment == "blockade":   # the residual goes to the sidecar, not the tables
        residuals = [r.pop(_RESIDUAL) for r in rows if r is not None]
        extra["diagnostics"] = {"max_steady_state_residual": max(
            (x for x in residuals if np.isfinite(x)), default=np.nan)}
        extra["basis"] = (
            each_point(values, lambda v: _solved_basis(_point_config(cfg, name, v)))[0]
            if sweep is not None and name == "fock_cutoff" else _solved_basis(cfg))
    if experiment == "trapping" and sweep is not None:   # to the sidecar, not the tables
        summary["variance"] = [r.pop("variance") if r else None for r in rows]
    if sweep is not None:
        tables = {experiment: _sweep_columns(name, values, rows)}

    outputs = []
    for stem, columns in tables.items():
        path = out_dir / f"{stem}.csv"
        write_csv(path, columns, cfg, experiment)
        outputs.append(path.name)
    sidecar = out_dir / f"{experiment}.json"
    write_sidecar(sidecar, experiment, cfg, outputs, summary, sweep, errors, extra)
    return summary, errors


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

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one
    (parse_args leaves it unchanged)."""
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
        sp.add_argument("--workers", type=int, default=1,
                        help="ignored; sweeps run serially")   # the benchmark passes it
        for key, text in _FLAGS.items():
            sp.add_argument("--" + key.replace("_", "-"), dest=key, type=type(DEFAULTS[key]),
                            default=None, help=text)

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
        summary, errors = run(args.command, cfg, sweep=sweep, out_dir=Path(args.out))
        print(json.dumps(_jsonable(summary), sort_keys=True))
        if errors:
            print(f"epqed: {len(errors)} of {sweep[3]} sweep points failed; "
                  f"see 'errors' in {args.command}.json", file=sys.stderr)
        return 3 if sweep is not None and len(errors) == sweep[3] else 0
    except ConfigError as exc:
        print(f"epqed: config error: {exc}", file=sys.stderr)
        return 2
    except EpqedError as exc:
        print(f"epqed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:   # a parameter rejected by the library's validation
        print(f"epqed: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
