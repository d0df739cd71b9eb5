import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from poncelet import claims, svgplot
from poncelet.centers import excenters
from poncelet.cli import _NUMBER_DESTS, _build_family, _build_parser, main
from poncelet.families import (
    BicentricParams,
    ConfocalParams,
    FamilyConfig,
    bic1_config,
    bic2_config,
    bic3_config,
    conf1_config,
    conf2_config,
    conf3_config,
    degenerate_envelope_inradius,
)
from poncelet.svgplot import _SAMPLE_TRIANGLE_T, render_family


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trace_csv_shape(capsys):
    code, out, err = run(
        capsys, "trace", "--family", "bic-I", "--R", "1", "--r", "0.25",
        "--center", "X1", "-n", "16",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x,y,valid"
    assert len(lines) == 17
    d = math.sqrt(1.0 * (1.0 - 2.0 * 0.25))
    for row in lines[1:]:
        t, x, y, valid = row.split(",")
        assert valid == "1"
        assert abs(float(x) - d) < 1e-12
        assert abs(float(y)) < 1e-12
    # printed values survive a text round-trip at full precision
    printed = lines[1].split(",")[1]
    assert f"{float(printed):.17g}" == printed


def test_trace_requires_family_parameters(capsys):
    code, out, err = run(
        capsys, "trace", "--family", "bic-I", "--R", "1", "--center", "X1",
    )
    assert code == 2
    assert "--r" in err


def test_unknown_family_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "trace", "--family", "bogus", "--center", "X1",
    )
    assert code == 2


def test_classify_json(capsys):
    code, out, err = run(
        capsys, "classify", "--family", "conf-I", "--a", "2", "--b", "1",
        "--center", "X1", "-n", "256",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "ellipse"
    assert doc["family"] == "conf-I"
    axes = sorted(doc["semi_axes"], reverse=True)
    assert abs(axes[0] - 1.302775637731995) < 1e-9
    assert abs(axes[1] - 0.39444872453601076) < 1e-9
    assert list(doc) == sorted(doc)


def test_classify_point_payload(capsys):
    code, out, err = run(
        capsys, "classify", "--family", "bic-I", "--R", "1", "--r", "0.25",
        "--center", "X1", "-n", "128",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "point"
    d = math.sqrt(0.5)
    assert abs(doc["point"][0] - d) < 1e-12


def test_verify_single_claim(capsys):
    code, out, err = run(capsys, "verify", "thm:bicII-x1")
    assert code == 0
    assert "[PASS]" in out
    assert "checked claims: 1/1 passed" in out


def test_verify_json(capsys):
    code, out, err = run(capsys, "verify", "thm:bicII-x1", "--json")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 1
    assert docs[0]["claim"] == "thm:bicII-x1"
    assert docs[0]["status"] == "pass"
    assert docs[0]["label"] == "checked claim"


def test_verify_json_carries_the_gates(capsys):
    """Each gate as name, value, relation, bound and held; the first is
    the headline, whose value and bound are the metric and tolerance."""
    code, out, err = run(capsys, "verify", "thm:bicII-x1", "--json")
    assert code == 0
    (doc,) = json.loads(out)
    gates = doc["gates"]
    assert [set(g) for g in gates] == [{"name", "value", "relation", "bound", "held"}] * 4
    assert (gates[0]["value"], gates[0]["bound"]) == (doc["metric"], doc["tolerance"])
    assert all(g["held"] for g in gates)
    assert [g["relation"] for g in gates] == ["<=", "<=", ">", ">"]
    assert len(doc["notes"]) == len(gates) - 1


def test_verify_unknown_claim(capsys):
    code, out, err = run(capsys, "verify", "thm:does-not-exist")
    assert code == 2
    assert "does-not-exist" in err


def test_verify_conjecture_wording(capsys):
    code, out, err = run(capsys, "verify", "conj:bicII-stationary")
    assert code == 0
    assert "[EVIDENCE]" in out
    assert "numerical evidence, not a proof" in out
    assert "never gating" in out


def test_table_grid(capsys):
    code, out, err = run(capsys, "table")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l.strip()]
    assert len(lines) == 7
    assert lines[0].split()[:2] == ["family", "X1"]
    rows = {l.split()[0]: l.split()[1:] for l in lines[1:]}
    assert rows["bic-II"] == ["C", "6", "P", "C", "6", "6"]
    assert rows["conf-I"] == ["E", "E", "E", "E", "E", "E"]


def test_envelope_closed_form(capsys):
    code, out, err = run(
        capsys, "envelope", "--family", "bic-II",
        "--R", "1", "--r", "0.2", "--d", "0.3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["closed_form"] is True
    assert doc["kind"] == "circle"
    assert abs(doc["radius"] - 0.894698707885521) < 1e-12
    assert abs(doc["center"][0] - 0.05796401400797005) < 1e-12


# A small caustic offset is a well-posed bic-II family: its envelope
# radius is 0.92 to twelve digits, not a refusal.
_SMALL_OFFSET = ("--family", "bic-II", "--R", "1", "--r", "0.2", "--d", "1e-6")


def test_envelope_at_a_small_offset(capsys):
    code, out, err = run(capsys, "envelope", *_SMALL_OFFSET)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["kind"] == "circle"
    assert abs(doc["radius"] - 0.92) < 1e-12


def test_svg_at_a_small_offset(capsys):
    code, out, err = run(capsys, "svg", *_SMALL_OFFSET, "-n", "64")
    assert code == 0, err
    assert 'class="envelope"' in out


def test_verify_envelope_claim_at_a_small_offset(capsys):
    code, out, err = run(capsys, "verify", "prop:bicII-envelope", *_SMALL_OFFSET[2:])
    assert code == 0, err
    assert "[PASS] prop:bicII-envelope" in out


@pytest.mark.parametrize("branch", ["plus,plus", "plus,minus", "minus,plus", "minus,minus"])
@pytest.mark.parametrize(
    "family, kind",
    [
        (("bic-III", "--R", "1", "--r", "0.15", "--d", "0.25", "--u", "0.4"), "circle"),
        (("conf-III", "--a", "2", "--b", "1", "--lambda", "0.3", "--u", "0.5"), "ellipse"),
        # At d = 0 every tangency quadratic is linear.
        pytest.param(
            ("bic-III", "--R", "1", "--r", "0.15", "--d", "0", "--u", "0.4"), "circle", id="bic-III-concentric"
        ),
    ],
    ids=lambda v: v[0] if isinstance(v, tuple) else v,
)
def test_envelope_of_a_chain_family_is_its_pencil_member(family, kind, branch, capsys):
    """The JSON names the pencil member the family's free sides touch."""
    argv = ["envelope", "--family", *family, "--branch", branch]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    env = _build_family(_build_parser().parse_args(argv)).closed_form_envelope()
    axes = {"radius": env.semi_axes[0]} if kind == "circle" else {"semi_axes": list(env.semi_axes)}
    assert json.loads(out) == {
        "family": family[0], "closed_form": True, "kind": kind, "center": list(env.center), **axes,
    }


def test_svg_deterministic(capsys):
    argv = ("svg", "--family", "conf-I", "--a", "2", "--b", "1",
            "--center", "X1", "-n", "128")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.lstrip().startswith("<svg")
    assert 'class="locus"' in out1 or 'class="locus-dot"' in out1


def test_svg_plots_fewer_samples_than_a_fit_needs(capsys):
    """svg draws samples and fits none: like trace, it takes any positive
    n, and n = 0 stays a usage error."""
    argv = ("svg", "--family", "bic-I", "--R", "1", "--r", "0.25")
    code, out, err = run(capsys, *argv, "-n", "16")
    assert (code, err) == (0, "")
    assert out.startswith("<svg") and "locus of X1" in out
    code, out, err = run(capsys, *argv, "-n", "0")
    assert (code, out) == (2, "")
    assert "got 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--family", "conf-I", "--a", "1", "--b", "1"),
        ("verify", "prop:confII-x1", "--a", "1", "--b", "1"),
    ],
)
def test_circular_outer_for_a_confocal_family_is_a_usage_error(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"poncelet {argv[0]}: error: need a > b > 0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("classify", "--family", "bic-III", "--R", "1", "--r", "0.15", "--d", "0.25", "--u", "-5"),
            "pencil circle at u=-5.0 is imaginary",
        ),
        (
            ("classify", "--family", "conf-III", "--a", "2", "--b", "1", "--lambda", "0.3", "--u", "-8"),
            "pencil caustic at u=-8.0 is not an ellipse",
        ),
        (("verify", "prop:confII-x1", "--a", "1e-200", "--b", "5e-201"), "a must be of order 1e-30 to 1e30, got 1e-200"),
        (("trace", "--family", "bic-II", "--R", "1e31", "--r", "2e30", "--d", "3e30"), "R must be of order 1e-30 to 1e30, got 1e+31"),
        (("verify", "cor:confII-n4", "--a", "1e-200", "--b", "5e-201"), "a must be of order 1e-30 to 1e30, got 1e-200"),
        (("verify", "prop:confII-x2-n4", "--a", "1e200", "--b", "5e199"), "a must be of order 1e-30 to 1e30, got 1e+200"),
        (
            ("classify", "--family", "conf-II", "--a", "2", "--b", "1", "--lambda", "2.3e-16", "--center", "X1"),
            "conf-II's caustic is the outer conic to rounding",
        ),
        (
            ("classify", "--family", "bic-III", "--R", "1", "--r", "0.15", "--d", "0.25",
             "--u", "0.9999999999999999", "--center", "X1"),
            "bic-III's pencil caustic at u=0.9999999999999999 is the outer conic to rounding",
        ),
        (
            ("classify", "--family", "bic-II", "--R", "1", "--r", "0.9999999999999999", "--d", "0", "--center", "X1"),
            "bic-II's caustic is the outer conic to rounding",
        ),
    ],
    ids=[
        "bic-III", "conf-III", "confII-x1-small", "bic-II-large", "confII-n4-small", "confII-x2-n4-large",
        "conf-II-rounding", "bic-III-rounding", "bic-II-rounding",
    ],
)
def test_a_family_that_cannot_be_built_is_a_usage_error(argv, message, capsys):
    """An imaginary pencil caustic, a caustic that is the outer conic to
    rounding or an outer scale out of range: exit 2 with the reason on
    one line, before any sampling."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"poncelet {argv[0]}: error: {message}\n"


def test_a_closing_caustic_that_rounds_to_b_squared_is_a_usage_error(capsys):
    code, out, err = run(capsys, "classify", "--family", "conf-I", "--a", "1e4", "--b", "1", "--center", "X1")
    assert (code, out) == (2, "")
    assert err == "poncelet classify: error: the closing caustic at a/b=10000 rounds to lam = b^2\n"


@pytest.mark.parametrize(
    "argv, counts",
    [
        (("--family", "bic-II", "--R", "1e30", "--r", "1e-10", "--d", "1e-10"), "0 members missing, 512 collinear"),
        (("--family", "conf-II", "--a", "1e30", "--b", "1e-20", "--lambda", "5e-41"), "2 members missing, 510 collinear"),
    ],
    ids=["bic-II", "conf-II"],
)
def test_too_few_valid_samples_says_why_they_were_dropped(argv, counts, capsys):
    """A caustic far smaller than the outer conic gives collinear members:
    the error counts the dropped samples of the 512 by cause.  The conf-II
    caustic's major semi-axis rounds to a, so the members at t = 0 and pi,
    whose vertex lies on the caustic, are missing."""
    code, out, err = run(capsys, "classify", *argv, "--center", "X1")
    assert (code, out) == (2, "")
    assert err == (
        f"poncelet classify: error: only 0 valid samples for X1 ({counts},"
        " 0 with the point undefined or not finite)\n"
    )


class _NoSampleTriangle(FamilyConfig):
    """bic-II without a member at the sample triangle's angle, or raising
    ``error`` there; every other angle keeps its member."""

    error = None

    def triangles(self, t):
        tri = super().triangles(t)
        at_sample = np.asarray(t) == _SAMPLE_TRIANGLE_T
        if self.error is not None and at_sample.any():
            raise self.error
        return tri._replace(ok=tri.ok & ~at_sample)


def test_svg_without_its_sample_triangle_where_it_has_no_member():
    cfg = bic2_config(1.0, 0.2, 0.3)
    assert 'class="triangle"' in render_family(cfg, n=64)
    svg = render_family(_NoSampleTriangle(cfg.kind, cfg.params), n=64)
    assert svg.startswith("<svg") and 'class="triangle"' not in svg


def test_svg_sample_triangle_programming_error_propagates(monkeypatch):
    monkeypatch.setattr(_NoSampleTriangle, "error", TypeError("not geometry"))
    with pytest.raises(TypeError, match="not geometry"):
        render_family(_NoSampleTriangle("bic-II", BicentricParams(1.0, 0.2, 0.3)), n=64)


def test_svg_out_file(tmp_path, capsys):
    target = tmp_path / "fam.svg"
    code, out, err = run(
        capsys, "svg", "--family", "bic-II", "--R", "1", "--r", "0.2",
        "--d", "0.3", "--center", "X1", "--center", "X2",
        "-n", "128", "--out", str(target),
    )
    assert code == 0
    text = target.read_text()
    assert text.startswith("<svg") or text.lstrip().startswith("<svg")
    assert 'class="envelope"' in text
    assert 'class="caustic"' in text


def test_config_file_merges_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "fam.json"
    cfg.write_text(json.dumps(
        {"family": "bic-II", "R": 1.0, "r": 0.2, "d": 0.1, "center": "X1"}))
    # flag overrides the config's d
    code, out, err = run(
        capsys, "classify", "--config", str(cfg), "--d", "0.3", "-n", "256",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "circle"
    # matches the d=0.3 closed form, not d=0.1
    assert abs(doc["center"][0] - 0.13186813186813187) < 1e-9
    assert abs(doc["radius"] - 0.5604395604395604) < 1e-9


def test_poristic_violation_reported(capsys):
    code, out, err = run(
        capsys, "classify", "--family", "bic-I", "--R", "1", "--r", "0.25",
        "--d", "0.9", "--center", "X1", "-n", "128",
    )
    assert code == 2
    assert err.strip()


# The README parameter set of each family: flags, matching builder call.
README_FAMILIES = [
    (["--family", "bic-I", "--R", "1", "--r", "0.25"], bic1_config(1.0, 0.25)),
    (["--family", "bic-II", "--R", "1", "--r", "0.2", "--d", "0.3"], bic2_config(1.0, 0.2, 0.3)),
    (
        ["--family", "bic-III", "--R", "1", "--r", "0.15", "--d", "0.25", "--u", "0.4"],
        bic3_config(1.0, 0.15, 0.25, u=0.4),
    ),
    (["--family", "conf-I", "--a", "2", "--b", "1"], conf1_config(2.0, 1.0)),
    (["--family", "conf-II", "--a", "2", "--b", "1", "--lambda", "0.5"], conf2_config(2.0, 1.0, 0.5)),
    (
        ["--family", "conf-III", "--a", "2", "--b", "1", "--lambda", "0.3", "--u", "0.5"],
        conf3_config(2.0, 1.0, 0.3, 0.5),
    ),
]


# The README families, concentric bic-III, and the three families whose
# free-side envelope is a point: bic-II at Kerawala's radius, conf-II at
# 4 bounces and bic-III at its collapse parameter.
RENDERED_FAMILIES = [want for _, want in README_FAMILIES] + [
    bic3_config(1.0, 0.15, 0.0, 0.4),
    bic2_config(1.0, degenerate_envelope_inradius(1.0, 0.3), 0.3),
    conf2_config(2.0, 1.0, claims.n4_lambda(2.0, 1.0)),
    bic3_config(1.0, 0.15, 0.25, claims.bic3_collapse_u(1.0, 0.15, 0.25)),
]


@pytest.mark.parametrize(
    "cfg", RENDERED_FAMILIES,
    ids=[cfg.kind for _, cfg in README_FAMILIES]
    + ["bic-III-concentric", "bic-II-point", "conf-II-point", "bic-III-point"],
)
def test_every_drawn_conic_has_a_center_and_semi_axes(cfg, monkeypatch):
    """render_family draws the outer conic, the caustics and any closed-form
    envelope, each built by Conic.circle or Conic.axis_ellipse: each has a
    finite center and finite semi-axes, a point envelope too."""
    drawn = []
    draw = svgplot._conic_element

    def record(c, *args):
        drawn.append(c)
        return draw(c, *args)

    monkeypatch.setattr(svgplot, "_conic_element", record)
    render_family(cfg, ("X1", "P2'"), n=64)
    envelope = cfg.closed_form_envelope()
    assert drawn == [cfg.outer_conic(), *cfg.caustics(), envelope]
    for c in drawn:
        assert c.center is not None and c.semi_axes is not None
        assert all(map(math.isfinite, (*c.center, *c.semi_axes)))
    if cfg in RENDERED_FAMILIES[-3:]:
        assert max(envelope.semi_axes) <= 1e-15 * cfg.outer_scale


@pytest.mark.parametrize("flags, want", README_FAMILIES, ids=lambda v: getattr(v, "kind", ""))
def test_cli_builds_the_builder_family(flags, want):
    args = _build_parser().parse_args(["trace"] + flags)
    assert _build_family(args) == want


@pytest.mark.parametrize("flags, want", README_FAMILIES, ids=lambda v: getattr(v, "kind", ""))
def test_branch_flag_use(flags, want, capsys):
    """--branch moves P2 over the chain kinds, bic-III and conf-III; a pair
    kind takes only the default branch, and any other is a usage error."""
    _, plain, _ = run(capsys, "trace", *flags, "--center", "P2", "-n", "16")
    code, branched, err = run(capsys, "trace", *flags, "--branch", "minus,minus", "--center", "P2", "-n", "16")
    if want.kind in ("bic-III", "conf-III"):
        assert code == 0 and branched != plain
    else:
        assert (code, branched) == (2, "")
        assert len(err.splitlines()) == 1
        assert f"{want.kind} takes only the default tangent branch" in err
        assert run(capsys, "trace", *flags, "--branch", "plus", "--center", "P2", "-n", "16") == (0, plain, "")


@pytest.mark.parametrize(
    "flags, want",
    [(flags, want) for flags, want in README_FAMILIES if want.kind not in ("bic-III", "conf-III")],
    ids=lambda v: getattr(v, "kind", ""),
)
def test_pencil_flag_on_a_pair_kind_is_a_usage_error(flags, want, capsys):
    """--u places a chain kind's pencil caustic; a pair kind has one
    caustic, so --u there is a usage error, not an ignored flag."""
    code, out, err = run(capsys, "trace", *flags, "--u", "0.4", "--center", "X1", "-n", "16")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert f"{want.kind} takes no pencil parameter u" in err


@pytest.mark.parametrize("flags, want", README_FAMILIES, ids=lambda v: getattr(v, "kind", ""))
def test_missing_family_flag_is_named(flags, want, capsys):
    """Every parameter flag is required, except the caustic parameter of
    a closing family, which the CLI computes."""
    pairs = list(zip(flags[2::2], flags[3::2]))
    for k, (name, _) in enumerate(pairs):
        rest = [x for j, pair in enumerate(pairs) if j != k for x in pair]
        code, out, err = run(capsys, "trace", *flags[:2], *rest, "-n", "8")
        if want.kind in ("bic-I", "conf-I") and name in ("--d", "--lambda"):
            assert code == 0
            continue
        assert code == 2
        assert f"requires {name}" in err


UNKNOWN_CENTER_ERRORS = {
    "X7": "no built-in center X7",
    "foo": "not a center identifier: 'foo'",
    "P4": "not a center identifier: 'P4'",
}


@pytest.mark.parametrize("command", ["trace", "classify", "svg"])
@pytest.mark.parametrize("center", sorted(UNKNOWN_CENTER_ERRORS))
def test_unknown_center_is_a_usage_error(command, center, capsys):
    code, out, err = run(
        capsys, command, "--family", "bic-II", "--R", "1", "--r", "0.2", "--d", "0.3",
        "--center", center, "-n", "40",
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert center in err
    assert err == f"poncelet {command}: error: {UNKNOWN_CENTER_ERRORS[center]}\n"


@pytest.mark.parametrize("center", ["P2", "P3'"])
def test_trace_tracks_a_vertex_or_an_excenter(center, capsys):
    code, out, err = run(
        capsys, "trace", "--family", "bic-II", "--R", "1", "--r", "0.2", "--d", "0.3",
        "--center", center, "-n", "16",
    )
    assert (code, err) == (0, "")
    lines = out.strip().splitlines()
    assert lines[0] == "t,x,y,valid" and len(lines) == 17
    cfg = bic2_config(1.0, 0.2, 0.3)
    for row in lines[1:]:
        t, x, y, valid = row.split(",")
        tri = cfg.triangle(float(t))
        want = tri.p2 if center == "P2" else excenters(tri).p3p
        assert (valid, float(x), float(y)) == ("1", want.x, want.y)


@pytest.mark.parametrize("doc, key", [
    ({"family": "bic-II", "R": "1", "r": 0.2, "d": 0.3}, "R"),
    ({"family": "bic-II", "R": 1, "r": 0.2, "d": 0.3, "n": "5"}, "n"),
    ({"family": "bic-II", "R": 1, "r": 0.2, "d": 0.3, "n": 5.0}, "n"),
    ({"family": "bic-II", "R": 1, "r": 0.2, "d": True}, "d"),
    ({"family": 2, "R": 1, "r": 0.2, "d": 0.3}, "family"),
    ({"family": "bic-II", "R": 1, "r": 0.2, "d": 0.3, "center": ["X1"]}, "center"),
])
def test_config_value_of_the_wrong_type_is_a_usage_error(doc, key, tmp_path, capsys):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "trace", "--config", str(path))
    assert code == 2
    assert f"--config key {key!r}" in err
    assert "Traceback" not in err


def test_config_center_list_for_svg(tmp_path, capsys):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"family": "bic-I", "R": 1, "r": 0.25, "center": ["X1", "X2"]}))
    code, out, err = run(capsys, "svg", "--config", str(path), "-n", "64")
    assert code == 0
    assert "locus of X2" in out


def test_config_names_an_unknown_family(tmp_path, capsys):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"family": "bic-IV", "R": 1, "r": 0.2, "d": 0.3}))
    code, out, err = run(capsys, "trace", "--config", str(path))
    assert code == 2
    assert "bic-IV" in err


@pytest.mark.parametrize("n", ["0", "-5"])
def test_nonpositive_sample_count_is_a_usage_error(n, capsys):
    code, out, err = run(
        capsys, "trace", "--family", "bic-I", "--R", "1", "--r", "0.25", "-n", n,
    )
    assert code == 2
    assert out == ""
    assert f"got {n}" in err


@pytest.mark.parametrize("flag", [("--center", "X9"), ("-n", "128")], ids=lambda flag: flag[0])
@pytest.mark.parametrize(
    "family",
    [
        ("bic-II", "--R", "1", "--r", "0.2", "--d", "0.3"),
        ("bic-III", "--R", "1", "--r", "0.15", "--d", "0.25", "--u", "0.4"),
    ],
    ids=lambda family: family[0],
)
def test_envelope_takes_no_tracked_point_flags(family, flag, capsys):
    """No envelope reads a tracked point or a sample count, so either
    flag is an argparse usage error."""
    code, out, err = run(capsys, "envelope", "--family", *family, *flag)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in err


@pytest.mark.parametrize("command", ["trace", "classify"])
@pytest.mark.parametrize(
    "flags, field",
    [
        (("bic-II", "--R", "1", "--r", "0.2", "--d", "nan"), "d"),
        (("bic-III", "--R", "1", "--r", "0.15", "--d", "0.25", "--u", "nan"), "u"),
        (("conf-III", "--a", "2", "--b", "1", "--lambda", "0.3", "--u", "nan"), "u"),
        (("bic-II", "--R", "inf", "--r", "0.2", "--d", "0.3"), "R"),
        (("bic-III", "--R", "1", "--r", "0.15", "--d", "0.25", "--u", "inf"), "u"),
        (("conf-II", "--a", "inf", "--b", "1", "--lambda", "0.5"), "a"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
)
def test_nonfinite_parameter_is_a_usage_error(command, flags, field, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, command, "--family", *flags, "--center", "X1", "-n", "64")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert f"error: {field} must be finite" in err


_BIC2 = {"p": BicentricParams(1.0, 0.2, 0.3)}
_CONF2 = {"p": ConfocalParams(2.0, 1.0, 0.5)}
_AB = {"a": 2.0, "b": 1.0}

# Each registered claim in registry order: id, kind, and the defaults its
# flags start from.
_REGISTRY = [
    ("thm:bicII-x1", "theorem", _BIC2),
    ("cor:bicII-exc", "corollary", _BIC2),
    ("prop:bicII-x2", "proposition", _BIC2),
    ("prop:bicII-envelope", "proposition", _BIC2),
    ("thm:confII-exc", "theorem", _CONF2),
    ("prop:confII-x1", "proposition", _AB),
    ("prop:confII-x2-n4", "proposition", _AB),
    ("prop:confII-envelope", "proposition", _CONF2),
    ("cor:confII-n4", "corollary", _AB),
    ("cor:confII-n6", "corollary", _AB),
    ("prop:confII-x1-convex", "proposition", _AB),
    ("inv:conserved", "invariant", {}),
    ("table2", "table", {}),
    ("conj:bicII-stationary", "conjecture", {}),
    ("conj:bicIII", "conjecture", {"p": BicentricParams(1.0, 0.15, 0.25, u=0.4)}),
]


def test_registry_ids_and_kinds_in_order():
    assert [(c.claim_id, c.kind) for c in claims.all_claims()] == [
        (cid, kind) for cid, kind, _ in _REGISTRY
    ]


@pytest.mark.parametrize("claim", claims.all_claims(), ids=lambda c: c.claim_id)
def test_claim_defaults_match_the_check_signature(claim):
    """The defaults read off the check's signature are the table's, so a
    signature edit that changes a claim's flags fails here."""
    (want,) = [defaults for cid, _, defaults in _REGISTRY if cid == claim.claim_id]
    assert claim.defaults == want


def test_unknown_claim_id_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "thm:nonsense", "thm:bicII-x1")
    assert code == 2
    assert out == ""
    assert err == (
        "poncelet verify: error: unknown claim id(s): thm:nonsense;"
        f" known: {', '.join(claims.claim_ids())}\n"
    )


def test_verify_takes_exactly_the_number_flags_the_claims_read():
    assert set().union(*(c.flags for c in claims.all_claims())) == set(_NUMBER_DESTS)


@pytest.mark.parametrize("argv", [
    ("verify", "thm:bicII-x1", "--family", "conf-II"),
    ("verify", "thm:bicII-x1", "--branch", "minus"),
    ("verify", "thm:bicII-x1", "--center", "X9"),
    ("verify", "thm:bicII-x1", "-n", "7"),
    ("table", "--config", "fam.json"),
], ids=lambda argv: " ".join(argv))
def test_a_flag_the_command_does_not_read_is_a_usage_error(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def _params_lines(out):
    return [line for line in out.splitlines() if line.startswith("    params:")]


# A value each flag can take in every claim that reads it.
_FLAG_VALUES = {"R": "1.1", "r": "0.18", "d": "0.2", "u": "0.5", "a": "2.5", "b": "0.9", "lam": "0.4"}


@pytest.mark.parametrize("dest", sorted(_FLAG_VALUES))
def test_a_flag_reaches_exactly_the_claims_that_declare_it(dest, capsys):
    flag = "--lambda" if dest == "lam" else f"--{dest}"
    value = _FLAG_VALUES[dest]
    declared = [c for c in claims.all_claims() if dest in c.flags]
    assert declared
    for claim in claims.all_claims():
        if claim not in declared:
            # No argument: the check runs on its own defaults, as without the flag.
            assert claim.arguments({dest: float(value)}) == {}
    ids = [c.claim_id for c in declared]
    code, plain, _ = run(capsys, "verify", *ids)
    code, flagged, _ = run(capsys, "verify", *ids, flag, value)
    assert code in (0, 1)
    assert len(_params_lines(flagged)) == len(_params_lines(plain)) == len(ids)
    for before, after in zip(_params_lines(plain), _params_lines(flagged)):
        assert before != after
        assert f"{dest}={float(value):g}" in after


def test_a_shape_parameter_prints_digits_that_read_back(capsys):
    """:g alone printed a = 1.0000001 as a=1, equal to b, for a family
    that needs a > b: a value prints in :g only where that reads back as
    the value, and in full otherwise."""
    code, out, _ = run(capsys, "verify", "prop:confII-x1", "--a", "1.0000001", "--b", "1")
    assert code in (0, 1)
    assert _params_lines(out) == ["    params:   a=1.0000001 b=1 lam=0.750000075"]
    code, out, _ = run(capsys, "verify", "prop:confII-x1-convex", "--a", "1.0000001", "--b", "1")
    assert _params_lines(out) == ["    params:   a=1.0000001 b=1"]
    p = BicentricParams(1.0, 0.2, math.sqrt(0.6), u=1.0 / 3.0)
    assert claims._fmt_params(p) == "R=1 r=0.2 d=0.7745966692414834 u=0.3333333333333333"


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    """A second main in one process reuses the parser, and every call,
    --config, usage errors and all, gives the output of a first call."""
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"family": "bic-II", "R": 1.0, "r": 0.2, "d": 0.1, "center": "X1"}))
    calls = [
        ("classify", "--family", "conf-I", "--a", "2", "--b", "1", "--center", "X1", "-n", "128"),
        ("classify", "--config", str(path), "--d", "0.3", "-n", "128"),
        ("svg", "--config", str(path), "-n", "32"),
        ("trace", "--family", "bogus", "--center", "X1"),
        ("trace", "--family", "bic-II", "--R", "1", "--r", "0.2", "--d", "0.3", "-n", "0"),
        ("verify", "thm:bicII-x1", "--json"),
    ]
    first = []
    for argv in calls:
        _build_parser.cache_clear()
        first.append(run(capsys, *argv))
    assert [code for code, _, _ in first] == [0, 0, 0, 2, 2, 0]
    assert "invalid choice: 'bogus'" in first[3][2]
    parser = _build_parser()
    for argv, want in zip(calls + calls, first + first):
        assert run(capsys, *argv) == want
    assert _build_parser() is parser


@pytest.mark.parametrize("argv", [("verify", "--all"), ("verify", "thm:bicII-x1")])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(argv):
    """A reader that closes stdout early (``verify --all | head -1``) is not
    a usage error: the CLI writes nothing to stderr and exits 128 + SIGPIPE,
    also where the output fits the buffer that is flushed last."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "poncelet.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 141
    assert err == b""
