"""Tests of the benchmark itself: every named metric prints with its unit,
the oracles reject planted errors, and the traced run accounts for its
time.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import poncelet  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_prints_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "0.1",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    printed = {line.split()[0]: line.split()[2] for line in lines if line.startswith("  ") and
               len(line.split()) >= 3}
    assert printed["fail_ratio"] == "ratio"
    for kind in ("end_to_end", "per_layer"):
        for metric in SPEC[kind]:
            if kind == "per_layer" and trace == "0":
                continue
            assert printed[metric["name"]] == metric["unit"]
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        if trace == "0":
            assert got["value"] > 0


def test_counts_are_per_pass_not_per_run():
    proc = _bench("--workload", "sweep", "--seed", "0", "--seconds", "2.5", "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "out" / "result-sweep-seed0-trace0.json").read_text(encoding="utf-8"))
    passes = len(record["pass_s"])
    assert passes > 1
    assert result["attempted"] == len(workloads.build_sweep(0, "tiny").ops)
    assert record["attempted_total"] == passes * result["attempted"]
    assert record["failed_total"] == passes * result["failed"]


def test_planted_wrong_letter_fails_the_sweep():
    grid = dict(workloads.PAPER_GRID)
    grid["conf-I"] = ("C",) + grid["conf-I"][1:]
    wl = workloads.build_sweep(0, "tiny", grid=grid)
    m = run.measure(wl, 0.0)
    assert m.failed / m.attempted > 0
    assert any(wl.ops[i].family == "conf-I" and wl.ops[i].tracked == "X1" for i in m.failures)


def test_trace_digests_match_and_a_perturbed_one_fails():
    digests = workloads.load_json("trace_digests.json")
    assert run.measure(workloads.build_trace(0, "tiny", digests=digests), 0.0).failed == 0
    bad = dict(digests)
    count, sx, *rest = bad["bic-II/X1"]
    bad["bic-II/X1"] = [count, sx * (1.0 + 1e-6), *rest]
    m = run.measure(workloads.build_trace(0, "tiny", digests=bad), 0.0)
    assert m.failed / m.attempted > 0


def test_changed_claim_status_fails_the_registry():
    wl = workloads.build_registry(0, "tiny", statuses={"thm:bicII-x1": "fail"})
    m = run.measure(wl, 0.0)
    assert m.failed == 1 and wl.regression_oracle


def test_other_seed_says_the_digest_check_was_not_made():
    wl = workloads.build_trace(1, "tiny")
    assert not wl.regression_oracle
    assert any("digest check not made" in note for note in wl.notes)


def test_same_seed_same_inputs():
    assert workloads.build_sweep(3).digest == workloads.build_sweep(3).digest
    assert workloads.build_sweep(3).digest != workloads.build_sweep(4).digest


def test_traced_self_times_add_up_to_the_traced_wall_time():
    wl = workloads.build_sweep(0, "tiny")
    original = poncelet.trace_locus
    tracer = Tracer()
    with tracer.installed():
        m = run.measure(wl, 0.0, tracer)
    assert poncelet.trace_locus is original
    summary = tracer.summary()
    assert sum(v["self_s"] for v in summary.values()) == pytest.approx(m.wall_s, rel=5e-3)
    a = tracer.arrays()
    assert (a["end"] >= a["start"]).all()
    # No call escapes its span: one triangle and one tracked point per sample.
    samples = workloads.SWEEP_N * len(wl.ops)
    assert summary["families.triangle"]["calls"] == samples
    assert summary["centers.center"]["calls"] + summary["centers.excenters"]["calls"] == samples
    assert tracer.nested_calls("loci.fit_curve", "loci.classify_locus") == summary["loci.fit_curve"]["calls"]


def test_exits_nonzero_without_the_package():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "10", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
