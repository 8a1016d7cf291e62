#!/usr/bin/env python3
"""Benchmark epqed on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/epqed`).
The process limits BLAS to `nproc` threads, measures set-up time in five
fresh child processes, then runs whole rounds of the workload's operations
until the next round would end after S seconds (at least one round).  With
--trace 1 every round is traced and per-layer metrics are reported instead
of end-to-end ones.  Every output of the last round is then checked against
computations made apart from the library, and each check is shown to reject
deliberately wrong results.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.

On a shared host the CPU speed drifts in episodes of seconds to tens of
seconds, and code that runs in the interpreter and in small numpy calls
slows by up to half while dense BLAS barely moves.  So the time of each
operation of that kind is scaled to a reference speed by a fixed probe loop
measured around and during it (`run_round`), and times per round are
averaged over the run's rounds, whose median would jump between a fast and
a slow value.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("blockade", "dm-evolve", "amplitude", "eigen-ldos"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, print 'ready' and exit "
                         "(used to time set-up in a fresh process)")
    return ap.parse_args(argv)


def limit_threads() -> int:
    """Cap BLAS and OpenMP pools at the CPUs this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, nproc):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": git_sha(), "src_sha256": src_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": nproc, "cpu": cpu}


def time_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported epqed
    and built the workload's inputs, once per child."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = child.stdout.readline()
        samples.append(time.perf_counter() - start)
        child.stdout.read()
        if child.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child failed with code {child.returncode}")
    return samples


def interpreter_probe() -> float:
    """Seconds taken by 800 RK4 steps on a 4x4 complex matrix: the mix of
    interpreter work and small numpy calls of epqed's RK4 loops and eigen
    code, without calling epqed."""
    import numpy as np

    m = (np.arange(16).reshape(4, 4) / 16.0 - 0.5j * np.eye(4)).astype(complex)
    x, h = np.ones(4, dtype=complex), 1e-3
    start = time.perf_counter()
    for _ in range(800):
        k1 = m @ x
        k2 = m @ (x + 0.5 * h * k1)
        k3 = m @ (x + 0.5 * h * k2)
        k4 = m @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return time.perf_counter() - start


PROBE_REF_S = 0.010   # the probe's time at full speed on the reference host
PROBE_EVERY_S = 0.5


def run_round(ops, errors, scale=False):
    """Run every operation once; return its time, outputs, attempted, failed.

    With scale, the time of each operation marked `scaled` is brought to the
    reference speed: the interpreter probe runs before and after it and, on a
    timer, every PROBE_EVERY_S seconds while it runs (between two bytecodes
    of the main thread); the probe's own time is taken out of the
    operation's time, and PROBE_REF_S over the mean probe time gives the scale.
    """
    outputs, failed, total = {}, 0, 0.0
    during, sampling = [], [False]
    scale = scale and any(op.scaled for op in ops)

    def on_alarm(*_):
        if sampling[0]:
            during.append(interpreter_probe())

    if scale:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        for op in ops:
            probed = scale and op.scaled
            before = interpreter_probe() if probed else None
            during.clear()
            sampling[0] = probed
            start = time.perf_counter()
            try:
                outputs[op.name] = op.call()
            except errors:
                failed += op.points
            elapsed = time.perf_counter() - start
            sampling[0] = False
            if probed:
                inside = list(during)
                after = interpreter_probe()
                elapsed = ((elapsed - sum(inside)) * PROBE_REF_S
                           / statistics.fmean([before, after, *inside]))
            total += elapsed
    finally:
        if scale:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    failed += sum(op.failed_points(outputs[op.name]) for op in ops if op.name in outputs)
    return total, outputs, sum(op.points for op in ops), failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "epqed" / "__init__.py").is_file():
        print(f"perfbench: no epqed sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    nproc = limit_threads()
    sys.path.insert(0, str(SRC))
    t_import = time.perf_counter()
    import epqed
    import epqed.cli  # noqa: F401  (imports every library module)
    import_s = time.perf_counter() - t_import
    if not Path(epqed.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported epqed from {epqed.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from epqed.errors import EpqedError
    import tracing
    import workloads

    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, workdir)
            print("ready", flush=True)
            return 0
        setup = time_setup(args)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        errors = (EpqedError, workloads.OperationFailed)
        span_cost = tracing.span_cost() if args.trace else None

        walls, tracers, attempted, failed = [], [], 0, 0
        begin = time.perf_counter()
        while True:
            tracer = tracing.Tracer() if args.trace else None
            with tracer or contextlib.nullcontext():
                wall, outputs, n, bad = run_round(workload.ops(), errors, scale=not args.trace)
            walls.append(wall)
            if tracer:
                tracers.append(tracer)
            attempted, failed = attempted + n, failed + bad
            elapsed = time.perf_counter() - begin
            if elapsed * (1 + 1 / len(walls)) > args.seconds:   # next round would overrun
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        obs = workload.observe(outputs)
        refs = workload.reference(obs)
        verdicts = workload.compare(obs, refs)
        rejected = [(label, [v.name for v in workload.compare(bad_obs, refs) if v.ok is False])
                    for label, bad_obs in workload.perturbations(obs, refs)]
        correct = (all(v.ok is not False for v in verdicts)
                   and all(names for _, names in rejected))

        print("provenance " + json.dumps(provenance(args, nproc)))
        print("rounds " + json.dumps({"wall_s": walls, "traced": bool(args.trace),
                                      "setup_s": setup}))
        for v in verdicts:
            state = "SKIP" if v.ok is None else "PASS" if v.ok else "FAIL"
            print(f"check {v.name}: {state} (value {v.value!r}, target {v.target})")
        for label, names in rejected:
            print(f"self-test {label}: {'rejected by ' + ', '.join(names) if names else 'ACCEPTED'}")

        if args.trace:
            per_round = [t.metrics() for t in tracers]
            metrics = {name: {"value": statistics.fmean(m[name] for m in per_round),
                              "unit": unit} for name, unit in tracing.metric_names()}
            traced_s = statistics.fmean(walls)
            overhead_s = statistics.fmean(t.overhead_s(*span_cost) for t in tracers)
            metrics.update({
                "epqed.import_s": {"value": import_s, "unit": "s"},
                "trace.wall_s": {"value": traced_s, "unit": "s"},
                "trace.spans": {"value": statistics.fmean(len(t.spans) for t in tracers),
                                "unit": "count"},
                "trace.overhead_pct": {"value": 100.0 * overhead_s / traced_s, "unit": "%"},
            })
            with open(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
                for k, tracer in enumerate(tracers):
                    tracer.dump(fh, k)
        else:
            metrics = {
                "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            }
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
