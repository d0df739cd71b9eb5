"""Command-line interface.

Subcommands: trace (CSV locus samples), classify (JSON verdict),
verify (run registered checks), table (verdict grid), envelope
(the free-side envelope conic, from the family flags alone), svg
(deterministic drawing).

Exit codes: 0 success, 1 check failure, 2 usage error, 141 (128 +
SIGPIPE) when the reader of stdout closed it early.  Output is
deterministic — JSON objects use sorted keys, CSV floats carry 17
significant digits, and no environment or network state is consulted.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import fields
from typing import List, Optional, Sequence

from . import claims as claims_mod
from .centers import kernel_of
from .families import (
    DEFAULT_BRANCH,
    FAMILY_SPECS,
    MINUS,
    PLUS,
    FamilyConfig,
    TangentBranch,
)
from .geom import Conic
from .loci import classify_locus, trace_locus
from .svgplot import render_family

__all__ = ["main"]

_DEFAULT_N = 512


class _CliUsage(Exception):
    """Invalid flag combination discovered after parsing."""


# The dests of the number flags; each is read by some claim.
_NUMBER_DESTS = ("R", "r", "d", "u", "a", "b", "lam")


def _add_number_flags(sp: argparse.ArgumentParser) -> None:
    """The number flags (``_NUMBER_DESTS``) and --config."""
    sp.add_argument("--R", type=float, default=None, help="outer circle radius")
    sp.add_argument("--r", type=float, default=None, help="caustic circle radius")
    sp.add_argument("--d", type=float, default=None, help="caustic center offset")
    sp.add_argument(
        "--u", type=float, default=None,
        help="pencil coordinate of the second caustic (three-caustic families)",
    )
    sp.add_argument("--a", type=float, default=None, help="outer ellipse major semi-axis")
    sp.add_argument("--b", type=float, default=None, help="outer ellipse minor semi-axis")
    sp.add_argument(
        "--lambda", dest="lam", type=float, default=None,
        help="confocal caustic parameter",
    )
    sp.add_argument(
        "--config", default=None,
        help="JSON file with default flag values (explicit flags win)",
    )


def _add_family_flags(sp: argparse.ArgumentParser) -> None:
    """--family, the number flags and --branch: the flags that pick a family."""
    sp.add_argument("--family", choices=sorted(FAMILY_SPECS))
    _add_number_flags(sp)
    sp.add_argument(
        "--branch", default=None,
        help="tangent branch of a chain family (bic-III, conf-III):"
        " plus|minus or a pair like plus,minus",
    )


def _add_tracked_flags(sp: argparse.ArgumentParser, multi_center: bool = False) -> None:
    """The family flags, --center (the tracked points) and -n (their sample count)."""
    _add_family_flags(sp)
    if multi_center:
        sp.add_argument(
            "--center", action="append", default=None,
            help="tracked point id (repeatable)",
        )
    else:
        sp.add_argument("--center", default=None, help="tracked point id")
    sp.add_argument("-n", type=int, default=None, help="number of samples")


def _apply_config(args: argparse.Namespace) -> None:
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise _CliUsage("--config must contain a JSON object")
    center_list = getattr(args, "command", "") == "svg"
    for key, value in data.items():
        dest = "lam" if key == "lambda" else key
        if not hasattr(args, dest) or getattr(args, dest) is not None:
            continue
        if dest == "center" and isinstance(value, str) and center_list:
            value = [value]
        if dest in _NUMBER_DESTS:
            want, ok = "a number", isinstance(value, (int, float))
        elif dest == "n":
            want, ok = "an integer", isinstance(value, int)
        elif dest == "center" and center_list:
            want = "a string or a list of strings"
            ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        else:
            want, ok = "a string", isinstance(value, str)
        if isinstance(value, bool) or not ok:
            raise _CliUsage(f"--config key {key!r} must be {want}")
        setattr(args, dest, value)


def _parse_branch(text: Optional[str]) -> TangentBranch:
    if not text:
        return DEFAULT_BRANCH
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        parts = parts * 2
    if len(parts) != 2 or any(p not in (PLUS, MINUS) for p in parts):
        raise _CliUsage(
            f"--branch must be plus|minus or a pair like plus,minus (got {text!r})"
        )
    return TangentBranch(parts[0], parts[1])


def _build_family(args: argparse.Namespace) -> FamilyConfig:
    """The family the flags describe; its kind's FamilySpec says which
    flags it needs (a closing kind computes a missing caustic parameter)."""
    family = getattr(args, "family", None)
    if family is None:
        raise _CliUsage("--family is required")
    if family not in FAMILY_SPECS:
        raise _CliUsage(f"unknown family {family!r}")
    spec = FAMILY_SPECS[family]
    branch = _parse_branch(getattr(args, "branch", None))
    dests = [f.name for f in fields(spec.params)]
    values = [getattr(args, dest) for dest in dests]
    for k, dest in enumerate(dests):
        if values[k] is None and k == 2 and spec.closure is not None:
            values[k] = spec.closure(*values[:2])
        elif values[k] is None and (spec.chain or dest != "u"):
            raise _CliUsage(f"family {family} requires --{'lambda' if dest == 'lam' else dest}")
    return FamilyConfig(family, spec.params(*values), branch)


def _check_tracked(ids: Sequence[str]) -> None:
    """An unknown tracked point id is a usage error."""
    for tracked in ids:
        try:
            kernel_of(tracked)
        except KeyError as exc:
            raise _CliUsage(exc.args[0]) from None


def _samples(args: argparse.Namespace) -> int:
    return _DEFAULT_N if args.n is None else args.n


def _write_conic(out: dict, conic: Conic, circle: bool, axis_angle: bool = False) -> None:
    """Add a conic's center, and its radius or semi-axes, to a JSON object."""
    out["center"] = [conic.center.x, conic.center.y]
    axes = conic.semi_axes
    if axes is not None:
        if circle:
            out["radius"] = axes[0]
        else:
            out["semi_axes"] = [axes[0], axes[1]]
            if axis_angle:
                out["axis_angle"] = conic.axis_angle


def _g17(x: float) -> str:
    return f"{x:.17g}"


def cmd_trace(args: argparse.Namespace) -> int:
    cfg = _build_family(args)
    center = args.center or "X1"
    _check_tracked([center])
    n = _samples(args)
    locus = trace_locus(cfg, center, n, min_valid=1)
    rows = zip(locus.t.tolist(), locus.x.tolist(), locus.y.tolist(), locus.ok.tolist())
    lines = ["t,x,y,valid"] + [f"{_g17(t)},{_g17(x)},{_g17(y)},{int(ok)}" for t, x, y, ok in rows]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    cfg = _build_family(args)
    center = args.center or "X1"
    _check_tracked([center])
    n = _samples(args)
    locus = trace_locus(cfg, center, n)
    fit = classify_locus(locus)
    out: dict = {
        "family": cfg.kind,
        "tracked": center,
        "samples": n,
        "verdict": fit.verdict,
        "degree": fit.degree,
        "residual": fit.residual,
    }
    if fit.verdict == "point":
        xy = locus.valid_xy()
        out["point"] = [math.fsum(xy[:, 0]) / len(xy), math.fsum(xy[:, 1]) / len(xy)]
    if fit.conic is not None:
        _write_conic(out, fit.conic, fit.verdict == "circle", axis_angle=True)
    sys.stdout.write(json.dumps(out, sort_keys=True, indent=2) + "\n")
    return 0


def _aligned(rows: Sequence[Sequence[str]]) -> List[str]:
    """Each row's cells right-justified to their column's width, two spaces apart."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in rows]


def _print_report(rep: "claims_mod.ClaimReport") -> None:
    if rep.kind == "conjecture":
        head = "EVIDENCE" if rep.passed else "EVIDENCE?"
        label = "numerical evidence, not a proof"
    else:
        head = "PASS" if rep.passed else "FAIL"
        label = rep.kind
    sys.stdout.write(
        f"[{head}] {rep.claim_id} ({label})"
        f" metric={rep.metric:.3e} tolerance={rep.tolerance:.1e}\n"
    )
    sys.stdout.write(f"    params:   {rep.params}\n")
    sys.stdout.write(f"    expected: {rep.expected}\n")
    sys.stdout.write(f"    observed: {rep.observed}\n")
    for note in rep.notes:
        sys.stdout.write(f"    note: {note}\n")
    for line in _aligned(rep.rows):
        sys.stdout.write(f"    | {line}\n")


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        selected = claims_mod.select_claims(None if args.all else args.claims)
    except KeyError as exc:
        raise _CliUsage(exc.args[0]) from None

    values = vars(args)
    reports = [claim.run(**claim.arguments(values)) for claim in selected]

    if args.json:
        sys.stdout.write(
            json.dumps([rep.to_dict() for rep in reports], sort_keys=True, indent=2)
            + "\n"
        )
    else:
        for rep in reports:
            _print_report(rep)
    gating = [rep for rep in reports if rep.gating]
    failed = [rep for rep in gating if not rep.passed]
    conjectures = [rep for rep in reports if not rep.gating]
    if not args.json:
        sys.stdout.write(
            f"checked claims: {len(gating) - len(failed)}/{len(gating)} passed"
        )
        if conjectures:
            consistent = sum(1 for rep in conjectures if rep.passed)
            sys.stdout.write(
                f"; conjecture evidence: {consistent}/{len(conjectures)} consistent"
                " (reported, never gating)"
            )
        sys.stdout.write("\n")
    return 1 if failed else 0


def cmd_table(args: argparse.Namespace) -> int:
    rep = claims_mod.summary_table()
    for line in _aligned(rep.rows):
        sys.stdout.write(line + "\n")
    if not rep.passed:
        sys.stdout.write("mismatched cells:\n")
        for note in rep.notes:
            sys.stdout.write(f"  {note}\n")
    return 0 if rep.passed else 1


def cmd_envelope(args: argparse.Namespace) -> int:
    cfg = _build_family(args)
    env = cfg.closed_form_envelope()
    out: dict = {"family": cfg.kind, "closed_form": True, "kind": env.kind}
    _write_conic(out, env, env.kind == "circle")
    sys.stdout.write(json.dumps(out, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_svg(args: argparse.Namespace) -> int:
    cfg = _build_family(args)
    centers = args.center or ["X1"]
    _check_tracked(centers)
    n = _samples(args)
    doc = render_family(cfg, centers, n=n)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="poncelet",
        description="Trace, classify, verify, and draw triangle-family loci.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("trace", help="print locus samples as CSV")
    _add_tracked_flags(sp)
    sp.set_defaults(handler=cmd_trace)

    sp = sub.add_parser("classify", help="classify a locus, print JSON")
    _add_tracked_flags(sp)
    sp.set_defaults(handler=cmd_classify)

    sp = sub.add_parser("verify", help="run registered numerical checks")
    sp.add_argument("claims", nargs="*", help="claim ids (default: all)")
    sp.add_argument("--all", action="store_true", help="run every registered check")
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    _add_number_flags(sp)
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("table", help="print the verdict grid for all six families")
    sp.set_defaults(handler=cmd_table)

    sp = sub.add_parser("envelope", help="describe the free-side envelope, print JSON")
    _add_family_flags(sp)
    sp.set_defaults(handler=cmd_envelope)

    sp = sub.add_parser("svg", help="render a family as a deterministic SVG document")
    _add_tracked_flags(sp, multi_center=True)
    sp.add_argument("--out", default=None, help="output file (default: stdout)")
    sp.set_defaults(handler=cmd_svg)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code) if exc.code is not None else 0
    try:
        _apply_config(args)
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone: say nothing, and keep the flush at exit quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (_CliUsage, ValueError, OSError) as exc:  # GeometryError is a ValueError
        sys.stderr.write(f"poncelet {args.command}: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
