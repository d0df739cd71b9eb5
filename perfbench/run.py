"""Benchmark of the poncelet package: three workloads, their oracles, and a
traced run that reports per-layer counts and self times.

Run from the root of a checkout (the package is imported from ``src``):

    python3 perfbench/run.py --workload {registry,sweep,trace,all} \
        --seed N --seconds S --trace {0,1}

Prints the end-to-end metrics (and, with ``--trace 1``, the per-layer ones)
with their units, the oracle's verdicts and every failed operation, then
as its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
Spans and a full result record go to ``perfbench/out/``.
See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

# One BLAS thread: each workload is a single thread, as the benchmark
# specifies.  OpenBLAS's second thread spins on the other core after each
# call; on a 2-core host that made sweep times spread several times as much.
# Set before numpy loads; the set-up probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import speed  # noqa: E402  (imports numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("registry", "sweep", "trace")
SETUP_PROBES = 11


def _die(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


# ---------------------------------------------------------------------------
# Measurement.


@dataclass
class Measurement:
    pass_s: List[float] = field(default_factory=list)
    op_s: List[float] = field(default_factory=list)
    raw_pass_s: List[float] = field(default_factory=list)
    raw_op_s: List[float] = field(default_factory=list)
    calibration_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    raised: int = 0
    # op index -> [times failed, measured, expected]
    failures: Dict[int, list] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return statistics.median(self.pass_s)


def measure(wl, budget: float, tracer=None) -> Measurement:
    """Whole passes over the workload's operations, at least one, while the
    next pass is expected to end within ``budget`` seconds.  A pass's time is
    the sum of its operations' times; the oracle runs between operations,
    outside them.  Each operation's time is scaled to the reference speed by
    the calibration loop run before and after it (see speed.py)."""
    m = Measurement()
    began = time.perf_counter()
    while True:
        gc.collect()
        pass_began = time.perf_counter()
        pass_s = raw_pass_s = 0.0
        cal_before = speed.calibrate()
        for i, op in enumerate(wl.ops):
            t0 = time.perf_counter()
            try:
                out = op.run() if tracer is None else tracer.run_op(i, op.run)
                error = None
            except Exception as exc:  # a failed operation is counted, the run goes on
                error = exc
            dt = time.perf_counter() - t0
            cal_after = speed.calibrate()
            scaled = speed.scale(dt, 0.5 * (cal_before + cal_after))
            m.calibration_s.append(cal_after)
            cal_before = cal_after
            pass_s += scaled
            raw_pass_s += dt
            m.op_s.append(scaled)
            m.raw_op_s.append(dt)
            m.attempted += 1
            if error is None:
                check = op.check(out)
                ok, measured, expected = check.ok, check.measured, check.expected
            else:
                m.raised += 1
                ok, measured, expected = False, f"raised {type(error).__name__}: {error}", "no error"
            if not ok:
                m.failed += 1
                m.failures.setdefault(i, [0, measured, expected])[0] += 1
        m.pass_s.append(pass_s)
        m.raw_pass_s.append(raw_pass_s)
        now = time.perf_counter()
        if now - began + (now - pass_began) > budget:
            if tracer is not None:
                tracer.scale([s / r for s, r in zip(m.op_s, m.raw_op_s)])
            return m


def _quantiles(values: List[float]) -> List[float]:
    if len(values) == 1:
        return values * 9
    return statistics.quantiles(values, n=10, method="inclusive")


def setup_samples(workload: str, seed: int, size: str) -> List[dict]:
    """Set-up times of the workload, each measured in a fresh interpreter and
    scaled to the reference speed by the calibration loop run here just
    before the probe starts and in the probe just after its set-up."""
    out = []
    for _ in range(SETUP_PROBES):
        loop_before = statistics.median(speed.calibrate() for _ in range(3))
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), size],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            _die(f"set-up probe failed:\n{proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        probe["setup_s"] = speed.scale(probe["raw_setup_s"], 0.5 * (loop_before + probe["loop_s"]))
        out.append(probe)
    return out


def end_to_end(m: Measurement, setup_s: float) -> Dict[str, dict]:
    q = _quantiles([s * 1e3 for s in m.op_s])
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": m.wall_s, "unit": "s"},
        "op_p50_ms": {"value": q[4], "unit": "ms"},
        "op_p90_ms": {"value": q[8], "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def per_layer(tracer, traced: Measurement, untraced: Measurement) -> Dict[str, dict]:
    import poncelet
    from tracer import LAYERS

    passes = len(traced.pass_s)
    summary = tracer.summary()

    def stat(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0) / passes

    out: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for name in ("geom.classify_conic", "geom.pencil_member", "families.triangle",
                 "centers.center", "centers.excenters", "loci.trace_locus",
                 "loci.classify_locus", "loci.fit_curve"):
        put(f"{name}.calls", stat(name, "calls"), "count")
        put(f"{name}.self_s", stat(name, "self_s"), "s")
    put("families.triangle.failed", tracer.geometry_errors.get("families.triangle", 0) / passes, "count")
    put("families.envelope_points.self_s", stat("families.envelope_points", "self_s"), "s")
    put("loci.samples_invalid", tracer.samples_invalid / passes, "count")
    classified = summary.get("loci.classify_locus", {}).get("calls", 0.0)
    fits = tracer.nested_calls("loci.fit_curve", "loci.classify_locus")
    put("loci.fit_curve.per_classify", fits / classified if classified else 0.0, "ratio")
    for cid in poncelet.claim_ids():
        put(f"claims.{cid.replace(':', '-')}.s", stat(f"claims.{cid}", "total_s"), "s")
    put("claims.loci_traced", tracer.nested_calls("loci.trace_locus", "claims.") / passes, "count")
    put("cli.main.self_s", stat("cli.main", "self_s"), "s")
    for layer in LAYERS:
        total = sum(v["self_s"] for k, v in summary.items() if k.split(".")[0] == layer)
        put(f"{layer}.self_s", total / passes, "s")
    put("traced_wall_s", traced.wall_s, "s")
    put("trace_overhead", traced.wall_s / untraced.wall_s, "ratio")
    return out


# ---------------------------------------------------------------------------
# Environment.


def _blas_threads() -> Optional[int]:
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "poncelet").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Reporting.


def _print_metrics(metrics: Dict[str, dict], notes: Dict[str, str]) -> None:
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}{notes.get(name, '')}")


def _print_failures(wl, m: Measurement, passes: int) -> None:
    for i, (times, measured, expected) in sorted(m.failures.items()):
        op = wl.ops[i]
        print(f"  FAIL workload={wl.name} family={op.family} params=({op.params})"
              f" tracked={op.tracked} measured={measured} expected={expected}"
              f" [{times}/{passes} passes]")


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    probes = setup_samples(workload, seed, size)
    sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.poncelet.__file__).resolve().is_relative_to(SRC.resolve()):
        _die(f"poncelet imported from {workloads.poncelet.__file__}, not from {SRC}")
    wl = workloads.build(workload, seed, size)
    setup_s = statistics.median(p["setup_s"] for p in probes)
    deterministic = all(p["inputs"] == wl.digest for p in probes)
    env = environment(seed)

    print(f"perfbench workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)} size={size}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"inputs: {len(wl.ops)} operations per pass, sha256 {wl.digest[:16]},"
          f" same in all {len(probes)} set-ups: {deterministic}, re-drawn configs: {wl.redraws}")

    budget = seconds / 2.0 if trace else seconds
    untraced = measure(wl, budget)
    e2e = end_to_end(untraced, setup_s)
    n_ops = len(untraced.op_s)
    notes = {
        "setup_s": f"  (median of {len(probes)} set-ups in fresh interpreters)",
        "wall_s": f"  (median of {len(untraced.pass_s)} passes)",
        "op_p50_ms": f"  ({n_ops} operations)",
        "op_p90_ms": f"  ({n_ops} operations)",
    }
    fail_ratio = untraced.failed / untraced.attempted
    print("end-to-end (untraced):")
    _print_metrics(e2e, notes)
    print(f"  {'fail_ratio':<40} {fail_ratio:.6g} ratio  ({untraced.failed} failed"
          f" / {untraced.attempted} attempted, {untraced.raised} raised)")
    raw = _quantiles([s * 1e3 for s in untraced.raw_op_s])
    print(f"raw times, before scaling to the reference speed: wall_s"
          f" {statistics.median(untraced.raw_pass_s):.6g} s, op_p50_ms {raw[4]:.6g} ms,"
          f" op_p90_ms {raw[8]:.6g} ms; calibration loop median"
          f" {statistics.median(untraced.calibration_s) * 1e3:.4g} ms"
          f" (reference {speed.REFERENCE_S * 1e3:g} ms); set-up"
          f" {statistics.median(p['raw_setup_s'] for p in probes):.6g} s")
    print(f"oracle: {wl.oracle}: {len(untraced.failures)} of {len(wl.ops)} operations failed")
    for note in wl.notes:
        print(f"  note: {note}")
    _print_failures(wl, untraced, len(untraced.pass_s))

    # Counts of one pass: the operations are deterministic, so they do not
    # depend on how many passes fit into the run.  Totals are in the record.
    result = {"correct": True, "attempted": len(wl.ops), "failed": len(untraced.failures)}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "size": size, "env": env,
              "setup_samples_s": [p["setup_s"] for p in probes], "pass_s": untraced.pass_s,
              "op_s": untraced.op_s, "raw_pass_s": untraced.raw_pass_s,
              "raw_op_s": untraced.raw_op_s, "calibration_s": untraced.calibration_s,
              "attempted_total": untraced.attempted, "failed_total": untraced.failed,
              "fail_ratio": fail_ratio, "end_to_end": e2e,
              "failures": [{"family": wl.ops[i].family, "params": wl.ops[i].params,
                            "tracked": wl.ops[i].tracked, "measured": f[1], "expected": f[2]}
                           for i, f in sorted(untraced.failures.items())]}
    metrics = e2e
    checked = [untraced]
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed():
            traced = measure(wl, budget, tracer)
        checked.append(traced)
        result["failed"] = len(set(untraced.failures) | set(traced.failures))
        metrics = per_layer(tracer, traced, untraced)
        print(f"per-layer (traced, per pass, {len(traced.pass_s)} passes):")
        _print_metrics(metrics, {})
        print("self seconds per pass by layer and family:")
        for layer, row in tracer.self_by_layer_and_label([op.family for op in wl.ops]).items():
            cells = "  ".join(f"{k}={v / len(traced.pass_s):.4g}" for k, v in row.items() if v)
            if cells:
                print(f"  {layer:<9} {cells}")
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}-seed{seed}.npz"
        tracer.save(spans)
        print(f"spans: {len(tracer.start)} written to {spans.relative_to(ROOT)}")
        record["per_layer"] = metrics

    regressed = wl.regression_oracle and any(c.failed for c in checked)
    result["correct"] = deterministic and not regressed and not any(c.raised for c in checked)
    result["metrics"] = metrics
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"record: {path.relative_to(ROOT)}")
    return result


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            _die(f"workload {workload} exited with {proc.returncode}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for name, metric in child["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few operations, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "poncelet" / "__init__.py").is_file():
        _die(f"no package source at {SRC}; run from a checkout of the repository")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
