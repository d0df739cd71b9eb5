"""Inputs, operations and oracles of the three benchmark workloads.

``registry``  the claim registry through the command line; one claim per
              operation.
``sweep``     seeded generic parameters of five families; trace and
              classify the six table2 columns; one locus per operation.
``trace``     one seeded draw per family; every built-in center and the
              three excenters traced at n=1024; one trace per operation.

Parameters are drawn before any timing, from a ``random.Random`` seeded
by the workload name and seed, which also shuffles the order of the
operations in a pass: slow and fast operations then spread over the pass,
so that a slow spell of a shared machine does not land on one kind.  Operations call into the package through
its attributes at call time, so that the traced run's wrappers see every
call.  The oracles use only data kept in this directory: the paper's
letter grid and values recorded at the seed commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import poncelet
import poncelet.cli

DATA = Path(__file__).resolve().parent / "data"
DEFAULT_SEED = 0

# The paper's verdict grid (its Table 2) over the columns below, kept here
# so the sweep oracle does not read it from the code being timed.  "N"/"X"
# accept any non-conic verdict; "6" requires exactly degree 6.
TABLE2_COLUMNS = ("X1", "X2", "X3", "P1'", "P2'", "P3'")
PAPER_GRID: Dict[str, Tuple[str, ...]] = {
    "bic-I": ("P", "C", "P", "C", "C", "C"),
    "bic-II": ("C", "6", "P", "C", "6", "6"),
    "bic-III": ("N", "N", "P", "N", "N", "N"),
    "conf-I": ("E", "E", "E", "E", "E", "E"),
    "conf-II": ("N", "N", "N", "6", "E", "E"),
    "conf-III": ("N", "N", "N", "N", "N", "N"),
}
SWEEP_FAMILIES = ("bic-I", "bic-II", "bic-III", "conf-I", "conf-II")
TRACE_FAMILIES = SWEEP_FAMILIES + ("conf-III",)
EXCENTER_IDS = ("P1'", "P2'", "P3'")

SWEEP_DRAWS = 8
SWEEP_N = 512
TRACE_N = 1024
# A draw keeps at least this distance (in units of R for d, of b^2 for
# lambda) from the special sets where loci change type: Chapple's d, the
# critical lambda and the 4- and 6-periodic lambdas.
MARGIN = 0.05
# The library needs this many valid samples to classify; a draw with
# fewer is rejected by trace_locus and drawn again.
MIN_VALID = 32

TINY_REGISTRY = ("thm:bicII-x1", "cor:confII-n6")
TINY_TRACE = (("bic-II", "X1"), ("bic-II", "P1'"), ("conf-II", "X942"))


@dataclass(frozen=True)
class Check:
    ok: bool
    measured: str
    expected: str


@dataclass(frozen=True)
class Op:
    """One timed call and the oracle applied to its output."""

    family: str
    params: str
    tracked: str
    run: Callable[[], object] = field(repr=False)
    check: Callable[[object], Check] = field(repr=False)


@dataclass
class Workload:
    name: str
    seed: int
    ops: List[Op]
    oracle: str
    # Whether the oracle compares with values recorded at the seed commit,
    # so that a rejection means the program's output moved.
    regression_oracle: bool
    notes: List[str] = field(default_factory=list)
    redraws: int = 0

    @property
    def digest(self) -> str:
        """Hash of every operation's inputs, to show that a seed fixes them."""
        text = "\n".join(f"{op.family}|{op.params}|{op.tracked}" for op in self.ops)
        return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Special sets, in closed form (independent of the library's versions).


def chapple_d(R: float, r: float) -> float:
    return math.sqrt(R * (R - 2.0 * r))


def critical_lam(a: float, b: float) -> float:
    a2, b2 = a * a, b * b
    delta = math.sqrt(a2 * a2 - a2 * b2 + b2 * b2)
    return a2 * b2 * (2.0 * delta - a2 - b2) / (a2 - b2) ** 2


def n4_lam(a: float, b: float) -> float:
    return a * a * b * b / (a * a + b * b)


def n6_lam(a: float, b: float) -> float:
    return a * a - a ** 3 * (a + 2.0 * b) / (a + b) ** 2


def _without_bands(lo: float, hi: float, centers: Sequence[float]) -> List[Tuple[float, float]]:
    """[lo, hi] minus the MARGIN-bands around each center."""
    out = [(lo, hi)]
    for c in centers:
        kept = []
        for a, b in out:
            if a < c - MARGIN:
                kept.append((a, min(b, c - MARGIN)))
            if b > c + MARGIN:
                kept.append((max(a, c + MARGIN), b))
        out = kept
    return out


def _uniform_on(rng: random.Random, intervals: Sequence[Tuple[float, float]]) -> float:
    total = sum(b - a for a, b in intervals)
    x = rng.random() * total
    for a, b in intervals:
        if x <= b - a:
            return a + x
        x -= b - a
    return intervals[-1][1]


def _draw(family: str, rng: random.Random) -> Tuple[str, Callable[[], object]]:
    """Generic parameters for one family (R = 1, b = 1) and its builder."""
    u = rng.uniform
    if family == "bic-I":
        r = u(0.10, 0.40)
        return f"R=1 r={r:.6g}", lambda: poncelet.bic1_config(1.0, r)
    if family == "bic-II":
        r = u(0.10, 0.30)
        d = u(MARGIN, min(0.90 - r, chapple_d(1.0, r) - MARGIN))
        return f"R=1 r={r:.6g} d={d:.6g}", lambda: poncelet.bic2_config(1.0, r, d)
    if family == "bic-III":
        r, d, w = u(0.10, 0.20), u(0.15, 0.35), u(0.20, 0.60)
        return (f"R=1 r={r:.6g} d={d:.6g} u={w:.6g}",
                lambda: poncelet.bic3_config(1.0, r, d, u=w))
    a = u(1.5, 2.5)
    if family == "conf-I":
        return f"a={a:.6g} b=1", lambda: poncelet.conf1_config(a, 1.0)
    if family == "conf-II":
        lam = _uniform_on(rng, _without_bands(
            MARGIN, critical_lam(a, 1.0) - MARGIN, (n6_lam(a, 1.0), n4_lam(a, 1.0))))
        return f"a={a:.6g} b=1 lam={lam:.6g}", lambda: poncelet.conf2_config(a, 1.0, lam)
    if family == "conf-III":
        lam, w = u(0.10, 0.50), u(0.30, 0.70)
        return (f"a={a:.6g} b=1 lam={lam:.6g} u={w:.6g}",
                lambda: poncelet.conf3_config(a, 1.0, lam, w))
    raise ValueError(f"unknown family {family!r}")


def draw_config(family: str, rng: random.Random, n: int) -> Tuple[str, object, int]:
    """Draw until the library accepts the config: it builds, and a trace of
    the first vertex at n samples has MIN_VALID valid samples or more.
    Returns (params, config, number of rejected draws)."""
    for rejected in range(100):
        params, build = _draw(family, rng)
        try:
            cfg = build()
            poncelet.trace_locus(cfg, "P1", n, min_valid=MIN_VALID)
        except (ValueError, poncelet.GeometryError):
            continue
        return params, cfg, rejected
    raise RuntimeError(f"no valid {family} config in 100 draws")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# Oracles.


def letter_matches(letter: str, expected: str) -> bool:
    """table2 semantics: N/X any non-conic verdict, otherwise exact."""
    if expected in ("N", "X"):
        return letter not in ("P", "C", "E")
    return letter == expected


def trace_digest(locus: object) -> List[float]:
    """Valid count, then the exactly rounded sums of x, y, x^2 and y^2."""
    pts = [s.p for s in locus.samples if s.valid]
    return [
        float(len(pts)),
        math.fsum(p.x for p in pts),
        math.fsum(p.y for p in pts),
        math.fsum(p.x * p.x for p in pts),
        math.fsum(p.y * p.y for p in pts),
    ]


def digests_agree(got: Sequence[float], want: Sequence[float], rel: float = 1e-9) -> bool:
    """Counts exactly; sums to ``rel`` relative.  The count (a bound on
    each sum of unit-scale coordinates) floors the scale, so sums that
    cancel to nearly zero compare absolutely."""
    if got[0] != want[0]:
        return False
    return all(abs(g - w) <= rel * max(abs(g), abs(w), want[0]) for g, w in zip(got[1:], want[1:]))


def load_json(name: str) -> dict:
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Workloads.


def _verify(claim_id: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        poncelet.cli.main(["verify", claim_id, "--json"])
    return buf.getvalue()


def _status_check(claim_id: str, want: str) -> Callable[[object], Check]:
    def check(out: object) -> Check:
        try:
            (report,) = json.loads(out)
            got = report["status"] if report["claim"] == claim_id else "missing"
        except (ValueError, KeyError, TypeError):
            got = "unparsable output"
        return Check(got == want, got, want)
    return check


def build_registry(seed: int, size: str = "full", statuses: Optional[dict] = None) -> Workload:
    """Each claim through ``poncelet verify <id> --json``, in an order the
    seed shuffles; its status must equal the one recorded at the seed."""
    statuses = load_json("registry_status.json") if statuses is None else statuses
    ids = list(poncelet.claim_ids())
    if size == "tiny":
        ids = [c for c in ids if c in TINY_REGISTRY]
    _rng("registry", seed).shuffle(ids)
    ops = [
        Op("registry", "defaults", cid, lambda cid=cid: _verify(cid),
           _status_check(cid, statuses.get(cid, "pass")))
        for cid in ids
    ]
    return Workload("registry", seed, ops, "--json status equals the seed commit's", True)


def _sweep_op(family: str, params: str, cfg: object, col: int, grid: Dict[str, Tuple[str, ...]]) -> Op:
    tracked = TABLE2_COLUMNS[col]
    want = grid[family][col]

    def run() -> str:
        return poncelet.verdict_letter(
            poncelet.classify_locus(poncelet.trace_locus(cfg, tracked, SWEEP_N)))

    return Op(family, params, tracked, run,
              lambda got: Check(letter_matches(got, want), str(got), want))


def build_sweep(seed: int, size: str = "full", grid: Optional[Dict[str, Tuple[str, ...]]] = None) -> Workload:
    """SWEEP_DRAWS generic draws per family, the six table2 columns each;
    every verdict letter is checked against the paper's grid."""
    grid = PAPER_GRID if grid is None else grid
    rng = _rng("sweep", seed)
    draws = 1 if size == "tiny" else SWEEP_DRAWS
    ops: List[Op] = []
    redraws = 0
    for family in SWEEP_FAMILIES:
        for _ in range(draws):
            params, cfg, rejected = draw_config(family, rng, SWEEP_N)
            redraws += rejected
            ops.extend(_sweep_op(family, params, cfg, col, grid) for col in range(len(TABLE2_COLUMNS)))
    rng.shuffle(ops)
    return Workload("sweep", seed, ops, "paper's letter grid, table2 semantics", False,
                    redraws=redraws)


def _trace_op(family: str, params: str, cfg: object, tracked: str, want: Optional[List[float]]) -> Op:
    def check(locus: object) -> Check:
        got = trace_digest(locus)
        if want is None:
            return Check(all(math.isfinite(v) for v in got), repr(got), "finite sums")
        return Check(digests_agree(got, want), repr(got), repr(want))

    return Op(family, params, tracked,
              lambda: poncelet.trace_locus(cfg, tracked, TRACE_N), check)


def build_trace(seed: int, size: str = "full", digests: Optional[dict] = None) -> Workload:
    """One generic draw per family; every built-in center and the three
    excenters at TRACE_N samples.  Each trace's digest is compared with the
    one recorded at the seed commit, which exists for the default seed only."""
    if digests is None and seed == DEFAULT_SEED:
        digests = load_json("trace_digests.json")
    rng = _rng("trace", seed)
    ids = [f"X{c.id}" for c in poncelet.builtin_centers()] + list(EXCENTER_IDS)
    ops: List[Op] = []
    redraws = 0
    for family in TRACE_FAMILIES:
        params, cfg, rejected = draw_config(family, rng, TRACE_N)
        redraws += rejected
        for tracked in ids:
            if size == "tiny" and (family, tracked) not in TINY_TRACE:
                continue
            want = (digests or {}).get(f"{family}/{tracked}")
            ops.append(_trace_op(family, params, cfg, tracked, want))
    rng.shuffle(ops)
    notes = []
    if not digests:
        notes.append(f"digest check not made: digests are recorded for seed {DEFAULT_SEED} only;"
                     " only finiteness was checked")
    oracle = "digest equals the seed commit's" if digests else "finite digest"
    return Workload("trace", seed, ops, oracle, bool(digests), notes, redraws)


BUILDERS = {"registry": build_registry, "sweep": build_sweep, "trace": build_trace}


def build(name: str, seed: int, size: str = "full") -> Workload:
    return BUILDERS[name](seed, size)
