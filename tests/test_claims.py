import math
from dataclasses import replace

import numpy as np
import pytest

from poncelet import claims
from poncelet.families import (
    BicentricParams,
    ConfocalParams,
    FamilyConfig,
    NoPoristicPair,
    TriangleBatch,
    bic2_config,
    bic3_config,
    chapple_distance,
    critical_lambda,
)
from poncelet.claims import (
    _axis_crossings,
    _hausdorff,
    _is_poristic,
    ClaimReport,
    all_claims,
    check_bicII_envelope,
    check_bicII_excenter_circle,
    check_bicII_x1_circle,
    check_confII_envelope,
    check_confII_excenter_ellipse,
    check_confII_x1_conic_only_at_critical,
    claim_ids,
    run_claims,
    summary_table,
)
from poncelet.geom import Point
from poncelet.loci import trace_locus, verify_implicit_sextic_x2

from _geometry_oracle import _bic3_limiting_points


def test_registry_is_complete_and_green():
    reports = run_claims(None)
    assert len(reports) == 15
    ids = [r.claim_id for r in reports]
    assert len(set(ids)) == 15
    for r in reports:
        assert r.passed, f"{r.claim_id}: {r.notes}"
    kinds = {r.claim_id: r.kind for r in reports}
    assert kinds["conj:bicII-stationary"] == "conjecture"
    assert kinds["conj:bicIII"] == "conjecture"
    assert kinds["thm:bicII-x1"] == "theorem"


def test_gating_split():
    """Each check, called by its own name, reports its registry entry's
    id and kind, and only the conjectures do not gate."""
    for claim in all_claims():
        rep = getattr(claims, claim.run.__name__)()
        assert (rep.claim_id, rep.kind) == (claim.claim_id, claim.kind)
        assert rep.gating == (claim.kind != "conjecture")


def test_selection_and_unknown_id():
    reports = run_claims(["thm:bicII-x1", "cor:confII-n6"])
    assert [r.claim_id for r in reports] == ["thm:bicII-x1", "cor:confII-n6"]
    with pytest.raises(KeyError):
        run_claims(["thm:nonsense"])


def test_claim_ids_matches_registry():
    ids = claim_ids()
    assert len(ids) == 15
    assert set(ids) == {c.claim_id for c in all_claims()}


def test_report_serialization_labels():
    reports = {r.claim_id: r for r in run_claims(
        ["thm:bicII-x1", "conj:bicIII"])}
    d1 = reports["thm:bicII-x1"].to_dict()
    d2 = reports["conj:bicIII"].to_dict()
    assert d1["label"] == "checked claim"
    assert d2["label"] == "numerical evidence"
    assert isinstance(d1["metric"], float)
    assert d1["status"] in ("pass", "fail")


def _gate(report, prefix):
    """The one gate of the report whose name starts with prefix."""
    (gate,) = [g for g in report.gates if g.name.startswith(prefix)]
    return gate


def test_bicIII_perturbed_envelope_member_fails_the_tangency_gate(monkeypatch):
    """A branch envelope member a thousandth off in w misses the free
    sides, and the claim fails on its tangency gate alone."""
    solve = claims._chain_envelope_u
    monkeypatch.setattr(claims, "_chain_envelope_u", lambda cfg: 1.001 * solve(cfg))
    report = claims.check_conjectures_bicIII()
    assert not report.passed
    assert [g.name for g in report.gates if not g.held] == ["worst branch free-side tangency defect/R"]
    assert _gate(report, "worst branch free-side tangency defect/R").value > 1e-6


def test_bicIII_one_envelope_member_fails_the_two_envelopes_gate(monkeypatch):
    """Four branches that share one envelope member have no second one:
    the separation gate reads 0 and fails."""
    w = claims._chain_envelope_u(bic3_config(1.0, 0.15, 0.25, u=0.4))
    monkeypatch.setattr(claims, "_chain_envelope_u", lambda cfg: w)
    report = claims.check_conjectures_bicIII()
    assert not report.passed
    assert _gate(report, "distinct branch envelope members").value == 1
    separation = _gate(report, "branch envelope separation")
    assert separation.value == 0.0 and not separation.held
    assert "branch envelope separation: 0 > 0.001 (failed)" in report.notes


def test_bicIII_at_the_collapse_counts_an_imaginary_control_as_missed():
    """At the collapse u* the plus,plus envelope is the point circle at a
    limiting point, so 1.01 w lies in the imaginary interval: that control
    touches no free side, and the claim reports instead of raising."""
    p = BicentricParams(1.0, 0.15, 0.25, claims.bic3_collapse_u(1.0, 0.15, 0.25))
    report = claims.check_conjectures_bicIII(p)
    assert _gate(report, "worst branch free-side tangency defect/R").held
    assert _gate(report, "negative control (w +1%) least tangency defect/R").held


def test_report_status_metric_and_notes_come_from_the_gates():
    rep = check_bicII_x1_circle()
    assert rep.status == "pass" and all(g.held for g in rep.gates)
    assert (rep.metric, rep.tolerance) == (rep.gates[0].value, rep.gates[0].bound)
    assert rep.notes == tuple(str(g) for g in rep.gates[1:])
    failing = replace(rep, gates=rep.gates + (claims._Gate("extra", 2.0, 1.0, False),))
    assert failing.status == "fail"
    assert failing.notes[-1] == "extra: 2 <= 1 (failed)"
    assert replace(rep, gates=(claims._Gate("h", 1.0, 1.0, True),)).status == "fail"


def test_convexity_note_does_not_claim_a_failed_bracket(monkeypatch):
    """A locus read as convex on both sides of the root fails the gate
    above it, and one read as convex on neither side fails the gate
    below it; either way the claim fails."""
    monkeypatch.setattr(claims, "convexity_check", lambda xy: True)
    rep = claims.check_convexity_transition()
    assert not rep.passed
    assert _gate(rep, "convex at the root - 1e-3").held
    assert not _gate(rep, "convex at the root + 1e-3").held
    assert "convex at the root + 1e-3 b^2: 1 <= 0 (failed)" in rep.notes

    monkeypatch.setattr(claims, "convexity_check", lambda xy: False)
    rep = claims.check_convexity_transition()
    assert not rep.passed
    assert not _gate(rep, "convex at the root - 1e-3").held
    assert _gate(rep, "convex at the root + 1e-3").held
    assert rep.metric == 0.0


def test_convexity_transition_traces_one_locus_on_each_side_of_the_root(monkeypatch):
    """The claim reads convexity from two conf-II traces, at the root
    -/+ 1e-3·b^2, and searches nothing."""
    lams = []

    def counting(cfg, tracked, n):
        lams.append(cfg.params.lam)
        return trace_locus(cfg, tracked, n)

    monkeypatch.setattr(claims, "trace_locus", counting)
    a, b = 3.0, 2.0
    rep = claims.check_convexity_transition(a, b)
    root = claims.convexity_lambda_root(a, b)
    assert rep.passed
    assert lams == [root - 4e-3, root + 4e-3]


@pytest.mark.parametrize("a, status", [
    (1.001, "pass"), (1.02, "pass"), (1.05, "pass"),
    (6.0, "fail"), (1.0000001, "fail"),
])
def test_convexity_transition_status_by_aspect_ratio(a, status):
    """Near-circular outer ellipses down to a/b = 1.001 flip at the root
    too.  At a/b = 6 and 1.0000001 the sampled turn test reads the locus
    1e-3·b^2 above the root as convex, so the claim fails there.  At
    a/b = 6 the locus has a concave arc there, about 10 of 4,096 t
    samples wide near t = 0, that the 512 samples miss; at 1.0000001
    that λ lies past the non-convex window (ROADMAP item 13)."""
    assert claims.check_convexity_transition(a, 1.0).status == status


@pytest.mark.parametrize("a", [2e-30, 2e20])
def test_convexity_transition_prints_digits_that_read_back(a):
    """The root in ``expected`` and the real roots in the note carry nine
    significant digits at any frame scale, not nine decimals."""
    b = a / 2.0
    rep = claims.check_convexity_transition(a, b)
    printed = float(rep.expected.rsplit(" ", 1)[1])
    assert printed == pytest.approx(claims.convexity_lambda_root(a, b), rel=1e-8, abs=0.0)
    (note,) = [n for n in rep.notes if n.startswith("real roots: ")]
    roots = [float(r) for r in note[len("real roots: "):].split(" (")[0].split(", ")]
    want = sorted(z * b * b for z in claims._real_roots(claims.convexity_quintic_coeffs(a / b, 1.0)))
    assert len(roots) == len(want) == 3
    assert roots == pytest.approx(want, rel=1e-8, abs=0.0)


def test_bicIII_conic_collapse_loci_fail_their_gate(monkeypatch):
    """Collapse loci that read as conics (here the circles the bic-I
    excenters sweep) fail their gate, and no note says otherwise."""
    bic3 = claims.bic3_config
    collapse = 0.625

    def config(R, r, d, u, **kwargs):
        return claims.bic1_config(R, r) if u == collapse else bic3(R, r, d, u=u, **kwargs)

    monkeypatch.setattr(claims, "bic3_collapse_u", lambda R, r, d: collapse)
    monkeypatch.setattr(claims, "bic3_config", config)
    rep = claims.check_conjectures_bicIII()
    assert not rep.passed
    gates = [g for g in rep.gates if "at the collapse" in g.name]
    assert len(gates) == 3
    assert all(not g.held and g.value <= 1e-12 for g in gates)
    assert sum("(failed)" in n for n in rep.notes) == 3
    assert not any("all excenters non-conic" in n for n in rep.notes)


def _scaled(value, s):
    """A claim's default argument in a frame s times the unit: lengths
    times s, caustic parameters times s^2."""
    if isinstance(value, BicentricParams):
        return replace(value, R=value.R * s, r=value.r * s, d=value.d * s)
    if isinstance(value, ConfocalParams):
        return replace(value, a=value.a * s, b=value.b * s, lam=value.lam * s * s)
    return value * s


@pytest.mark.parametrize("s", [1e-30, 1e-12, 1e-3, 1e4, 1e7, 1e10, 1e30])
def test_statuses_do_not_depend_on_the_frame(s):
    """Every claim that takes lengths has, at its defaults scaled by s,
    the status it has at its defaults (all pass: see
    test_registry_is_complete_and_green), up to both ends of the outer
    scale range."""
    scaled = {
        claim.claim_id: claim.run(**{k: _scaled(v, s) for k, v in claim.defaults.items()}).status
        for claim in all_claims()
        if claim.defaults
    }
    assert len(scaled) == 12
    assert scaled == dict.fromkeys(scaled, "pass")


def test_stationary_conjecture_reports_reference_divergences():
    (rep,) = run_claims(["conj:bicII-stationary"])
    assert rep.passed
    diverging = [n for n in rep.notes if "measured" in n and "reference letter" in n]
    assert len(diverging) == 5
    blob = "\n".join(diverging)
    for key in ("X36", "X56", "X354", "X484", "X942"):
        assert key in blob
    # one header row plus one row per catalog center
    assert len(rep.rows) == 18


def test_summary_table_letters_frozen():
    rep = summary_table()
    assert rep.passed
    assert len(rep.rows) == 7
    body = {row[0]: row[1:] for row in rep.rows[1:]}
    assert body["bic-I"] == ("P", "C", "P", "C", "C", "C")
    assert body["bic-II"] == ("C", "6", "P", "C", "6", "6")
    assert body["bic-III"] == ("5", "6", "P", "6", "6", "5")
    assert body["conf-I"] == ("E", "E", "E", "E", "E", "E")
    assert body["conf-II"] == ("6", "6", "6", "6", "E", "E")
    assert body["conf-III"] == ("4", "6", "6", "4", "6", "4")


def test_named_check_with_custom_parameters():
    rep = check_bicII_x1_circle(BicentricParams(1.0, 0.25, 0.2))
    assert isinstance(rep, ClaimReport)
    assert rep.passed
    assert rep.metric < 1e-9


def test_bicII_circle_claims_accept_r_above_half_R():
    """R < 2r has no poristic offset, so the claims take the bic-II family."""
    p = BicentricParams(1.0, 0.6, 0.1)
    for check in (check_bicII_x1_circle, check_bicII_excenter_circle):
        rep = check(p)
        assert rep.passed, rep.notes
        assert rep.metric < 1e-9


def test_excentral_ellipse_at_critical_aspect():
    a, b = 2.0, 1.0
    lam = critical_lambda(a, b)
    rep = check_confII_excenter_ellipse(ConfocalParams(a, b, lam))
    assert rep.passed
    assert _gate(rep, "first excenter off the same ellipse").held


# The defaults of cor:bicII-exc and its parameter sets in CI.
_BICII_EXC_SETS = [(1.0, 0.2, 0.3), (1.0, 0.15, 0.35), (1e10, 2e9, 3e9)]


def _crossing_gates(report):
    return [g for g in report.gates if g.name.endswith("axis crossings")]


@pytest.mark.parametrize("R, r, d", _BICII_EXC_SETS)
def test_bicII_excenters_cross_the_axis_twice(R, r, d):
    cfg = bic2_config(R, r, d)
    for pid in ("P2'", "P3'"):
        assert _axis_crossings(trace_locus(cfg, pid, 512)) == 2
    gates = _crossing_gates(check_bicII_excenter_circle(BicentricParams(R, r, d)))
    assert [(g.name, g.value, g.held) for g in gates] == [
        ("P2' axis crossings", 2, True),
        ("P3' axis crossings", 2, True),
    ]


class _P1P2Swapped(FamilyConfig):
    """The bic-II family with P1 and P2 swapped.  At t = 0 P2 = (R, 0)
    and P1, P3 are mirror images, so the side lengths s1 and s3 are equal
    and P2', the excenter opposite P2, lies exactly on the x-axis."""

    def triangles(self, t):
        tri = super().triangles(t)
        return TriangleBatch.of(tri.x2, tri.y2, tri.x1, tri.y1, tri.x3, tri.y3, tri.ok)


def test_a_sample_on_the_axis_is_one_crossing():
    loc = trace_locus(_P1P2Swapped("bic-II", claims.DEFAULT_BIC2), "P2'", 512)
    assert loc.ok[0] and loc.y[0] == 0.0
    assert np.sign(loc.y[-1]) == -np.sign(loc.y[1]) != 0.0
    assert _axis_crossings(loc) == 2


def test_a_sign_change_next_to_a_dropped_sample_is_no_crossing(monkeypatch):
    """Without a member at one end of every sign change of P2' and P3',
    no crossing is counted and both crossing gates fail."""
    p = claims.DEFAULT_BIC2
    cfg = bic2_config(p.R, p.r, p.d)
    ends = []
    for pid in ("P2'", "P3'"):
        sign = np.sign(trace_locus(cfg, pid, 512).y)
        ends += np.flatnonzero(sign * np.roll(sign, -1) < 0.0).tolist()
    assert len(ends) == 4

    class _Holes(FamilyConfig):
        def triangles(self, t):
            tri = super().triangles(t)
            k = np.rint(np.asarray(t) / (2.0 * np.pi / 512))
            return tri._replace(ok=tri.ok & ~np.isin(k, ends))

    holed = _Holes("bic-II", p)
    for pid in ("P2'", "P3'"):
        assert _axis_crossings(trace_locus(holed, pid, 512)) == 0
    monkeypatch.setattr(claims, "bic2_config", lambda R, r, d: holed)
    rep = check_bicII_excenter_circle()
    assert rep.status == "fail"
    assert [(g.value, g.held) for g in _crossing_gates(rep)] == [(0, False), (0, False)]
    assert "P2' axis crossings: 0 > 0 (failed)" in rep.notes
    assert "P3' axis crossings: 0 > 0 (failed)" in rep.notes


def test_bicII_x1_circle_expected_radius_is_unsigned():
    """R^2 - 2Rr - d^2 < 0 gives a negative signed radius; the report prints
    the circle's radius, which the check itself compares against."""
    rep = check_bicII_x1_circle(BicentricParams(1.0, 0.6, 0.1))
    assert "radius 0.212121212" in rep.expected
    assert "-0.2" not in rep.expected


def _tensor_hausdorff(pa, pb):
    """The full-tensor Hausdorff distance _hausdorff replaced, kept as the reference."""
    dist = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def test_hausdorff_in_row_blocks_is_bitwise_the_tensor_form():
    cfg = bic3_config(1.0, 0.15, 0.25, u=0.4)
    loci = [trace_locus(cfg, pid, 512).valid_xy() for pid in ("P1'", "P2'", "P3'", "X1")]
    for pa in loci:
        for pb in loci:
            assert _hausdorff(pa, pb) == _tensor_hausdorff(pa, pb)
    rng = np.random.default_rng(5)
    for na, nb in ((1, 1), (1, 40), (33, 7), (64, 65), (100, 3)):
        pa = rng.normal(size=(na, 2))
        pb = rng.normal(size=(nb, 2)) * 3.0 + 0.5
        assert _hausdorff(pa, pb) == _tensor_hausdorff(pa, pb)
        assert _hausdorff(pb, pa) == _tensor_hausdorff(pb, pa)


@pytest.mark.parametrize("k", [1e-3, 1e4])
def test_envelope_claims_pass_at_any_frame_scale(k):
    """The closed-form envelopes are classified conics whose kind does not
    depend on the length unit."""
    assert check_bicII_envelope(BicentricParams(k, 0.2 * k, 0.3 * k)).passed
    assert check_confII_envelope(ConfocalParams(2.0 * k, k, 0.5 * k * k)).passed


def _per_u_collapse(R, r, d):
    """The collapse parameter by search over [0.30, 0.995]: one config and
    one free-side scan per candidate u, then golden-section refinement."""
    first, second = _bic3_limiting_points(BicentricParams(R, r, d))
    target = first if abs(first.x) < abs(second.x) else second

    def worst(u):
        lines = claims._free_sides(bic3_config(R, r, d, u=u), 64)
        return claims._worst(lines.signed_distance(target)) if len(lines.a) >= 16 else math.inf

    grid = [0.30 + 0.005 * k for k in range(int((0.995 - 0.30) / 0.005) + 1)]
    values = [worst(u) for u in grid]
    k0 = values.index(min(values))
    lo, hi = grid[max(k0 - 1, 0)], grid[min(k0 + 1, len(grid) - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    f1, f2 = worst(x1), worst(x2)
    for _ in range(80):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = worst(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = worst(x2)
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("params", [(1.0, 0.15, 0.25), (1.0, 0.2, 0.3)])
def test_bic3_collapse_u_is_the_per_u_search(params):
    """The closed form is, to 1e-12, the u that a config per candidate
    and a golden-section refinement find."""
    assert abs(claims.bic3_collapse_u(*params) - _per_u_collapse(*params)) <= 1e-12


def _interior_limiting_point(R, r, d):
    """The point circle of the pencil of [(0, 0), R] and [(d, 0), r] inside
    the caustic: the smaller root of x^2 - s x + R^2, where x and R^2 / x
    are inverse in both circles, so x + R^2 / x = s = (R^2 + d^2 - r^2) / d."""
    s = (R * R + d * d - r * r) / d
    return Point(2.0 * R * R / (s + math.sqrt(s * s - 4.0 * R * R)), 0.0)


def _worst_side_miss(R, r, d, u):
    lines = claims._free_sides(bic3_config(R, r, d, u=u), 256)
    assert len(lines.a) == 256
    return float(np.abs(lines.signed_distance(_interior_limiting_point(R, r, d))).max())


@pytest.mark.parametrize(
    "params",
    [
        (1.0, 0.15, 0.25),
        (1.0, 0.2, 0.3),
        (1.0, 0.1, 0.2),
        (1.0, 0.25, 0.3),
        (1.0, 0.2, 0.5),
        (1.0, 0.0514, 0.1787),
        (1.0, 0.48, 0.5),
    ],
)
def test_bic3_collapse_u_collapses_the_envelope(params):
    """At the found u every free side passes through the interior
    limiting point; a millionth away some side misses it; u does not
    depend on the length unit.  (1, 0.0514, 0.1787) collapses at
    u ~ 0.9972 and (1, 0.48, 0.5) at u ~ -0.0875, both outside
    [0.30, 0.995]."""
    R = params[0]
    u = claims.bic3_collapse_u(*params)
    assert _worst_side_miss(*params, u) <= 1e-13 * R
    for off in (-1e-6, 1e-6):
        assert _worst_side_miss(*params, u + off) >= 1e-7 * R
    for k in (1e-3, 1e4):
        assert abs(claims.bic3_collapse_u(*(k * v for v in params)) - u) <= 1e-12


@pytest.mark.parametrize("R", [1e-3, 1.0, 1e4])
def test_bicII_x2_sextic_is_scale_free(R):
    """The sextic check and its r - 1% control read the same at any
    length unit."""
    def control(p):
        loc = trace_locus(bic2_config(p.R, p.r, p.d), "X2", 512)
        return verify_implicit_sextic_x2(replace(p, r=0.99 * p.r), loc)

    p = BicentricParams(R, 0.2 * R, 0.3 * R)
    rep = claims.check_bicII_x2_sextic(p)
    assert rep.passed and rep.metric <= 1e-14
    unit = control(BicentricParams(1.0, 0.2, 0.3))
    assert control(p) == pytest.approx(unit, rel=1e-9)


@pytest.mark.parametrize("R", [1.0, 1e4])
def test_poristic_offset_is_the_one_bic_I_accepts(R):
    """An offset one part in 1e14 off Chapple's is the closing pair at any
    length unit, as a bic-I config accepts it; 1e-10 off is neither."""
    r = 0.2 * R
    near = BicentricParams(R, r, chapple_distance(R, r) * (1.0 + 1e-14))
    FamilyConfig("bic-I", near)  # accepted
    assert _is_poristic(near)
    notes = check_bicII_excenter_circle(near).notes
    assert any(note.startswith("closing pair: ") for note in notes)
    far = replace(near, d=chapple_distance(R, r) * (1.0 + 1e-10))
    with pytest.raises(NoPoristicPair):
        FamilyConfig("bic-I", far)
    assert not _is_poristic(far)
    assert not _is_poristic(BicentricParams(R, 0.6 * R, 0.1 * R))  # R < 2r


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND: prop:confII-x1 fails for eccentric outer ellipses; the"
    " smallest off-closing conic residual (7.4e-7 at a = 6) falls under its"
    " fixed 1e-6 bound"))
def test_confII_x1_holds_for_an_eccentric_outer_ellipse():
    assert check_confII_x1_conic_only_at_critical(6.0, 1.0).passed
