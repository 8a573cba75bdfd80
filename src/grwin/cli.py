"""Command-line front end: deterministic text and JSON output.

The library returns values; this module alone reads and writes their text
and JSON syntax: the comma-separated partition, the □ diagram, bundle and
complex names, and the JSON documents.  The parser carries each subcommand's
handler, which returns (exit code, output): one JSON document with --json,
else an iterable of text lines.  Only `main` writes stdout.

Exit codes: 0 success, 1 verification failure (a failed exactness check or
an InternalConsistencyError), 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from math import comb

from . import autoequiv, bundles, characters, resolutions, windows
from .bundles import BundleLabel, GradedComplex
from .bott import bwb_cohomology
from .partitions import canonical, staircase


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse a comma-separated row list; empty string means ∅."""
    text = text.strip()
    if not text:
        return ()
    try:
        rows = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed partition {text!r}: expected comma-separated integers")
    return canonical(rows)


def format_partition(p: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in p)


def ascii_diagram(p: tuple[int, ...]) -> str:
    """One '□'-row per partition row; '∅' for the empty diagram."""
    if not p:
        return "∅"
    return "\n".join("□" * x for x in p)


def _schur_name(schur: tuple[int, ...], letter: str) -> str:
    if not schur:
        return "O"
    if schur == (1,):
        return f"{letter}∨"
    if len(schur) == 1:
        return f"Sym^{schur[0]}{letter}∨"
    if all(x == 1 for x in schur):
        return f"∧^{len(schur)}{letter}∨"
    return f"S^({format_partition(schur)}){letter}∨"


def format_label(label: BundleLabel) -> str:
    out = _schur_name(label.schur, label.side)
    if label.det_twist:
        brackets = "⟨{}⟩" if label.side == "H" else "({})"
        out += brackets.format(label.det_twist)
    if label.bracket_twist:
        out += f"⟨{label.bracket_twist}⟩"
    if label.wedge:
        out += "⊗V" if label.wedge == 1 else f"⊗∧^{label.wedge}V"
    return out


def format_complex(cx: GradedComplex) -> str:
    """Arrow-joined terms in ascending degree; a caret line marks degree 0,
    which every complex the CLI prints has: each display's degrees end or start there."""
    chunks = {degree: " + ".join(format_label(lb) + (f"^{m}" if m > 1 else "")
                                 for lb, m in labels)
              for degree, labels in cx.terms}
    # the chunks left of degree 0, each with its arrow
    head = " -> ".join([chunk for degree, chunk in chunks.items() if degree < 0] + [""])
    return f"{' -> '.join(chunks.values())}\n{' ' * len(head)}{'^' * len(chunks[0])}"


def label_to_json(label: BundleLabel, multiplicity: int | None = None) -> dict:
    doc: dict = {"schur": list(label.schur), "twist": label.det_twist, "side": label.side,
                 "v_shape": [1] * label.wedge, "rank": label.taut_rank}
    if label.bracket_twist:
        doc["bracket"] = label.bracket_twist
    if multiplicity is not None:
        doc["multiplicity"] = multiplicity
    return doc


def complex_to_json(cx: GradedComplex) -> list[dict]:
    return [{"degree": degree, "terms": [label_to_json(label, mult) for label, mult in labels]}
            for degree, labels in cx.terms]


def _emit_complex(cx: GradedComplex, args):
    if args.expand_multiplicities:
        cx = cx.expand_multiplicities(args.d)
    return 0, complex_to_json(cx) if args.json else [format_complex(cx)]


# C(12,6): the largest K-matrix basis computed by default; (12,6) takes about
# 0.22 s cold with --json and 0.23 s as text (4.3 MB) on a 2-core x86_64 host,
# and (13,6) has 1716 generators, 0.53 s and 0.62 s, and 15 MB of text
MAX_BASIS = 924


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)  # every subcommand's flags
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument("--pretty", action="store_true", help="human-oriented output")
    common.add_argument("--expand-multiplicities", action="store_true",
                        help="replace V factors by their dimensions")
    parser = argparse.ArgumentParser(
        prog="grwin", description="window-shift calculus on Grassmannian flop models")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, handler, **kwargs):
        p = subparsers.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(run=handler)
        return p

    p = add_parser("windows", cmd_windows, help="window generator list")
    p.add_argument("d", type=int)
    p.add_argument("r", type=int)
    p.add_argument("k", type=int)

    p = add_parser("staircase", cmd_staircase, help="column-filling sequence")
    p.add_argument("delta", type=str)
    p.add_argument("r", type=int)
    p.add_argument("K", type=int)

    p = add_parser("resolve", cmd_resolve, help="staircase resolution of a seed diagram")
    p.add_argument("delta", type=str)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--twisted", action="store_true",
                   help="down-shift route: strip, resolve, cancel, twist")

    for name, image, flag, metavar, shift in (
            ("twist", autoequiv.twist_on_generator, "--r", "R", "up"),
            ("cotwist", autoequiv.cotwist_on_generator, "--n", "N", "down")):
        p = add_parser(name, cmd_image, help=f"{shift}-shift image of a window generator")
        p.set_defaults(image=image)
        p.add_argument("delta", type=str)
        p.add_argument("--d", type=int, required=True)
        p.add_argument(flag, type=int, required=True, dest="r", metavar=metavar)

    p = add_parser("bwb", cmd_bwb, help="cohomology classifier for a weight")
    p.add_argument("delta", type=str)
    p.add_argument("i", type=int)
    p.add_argument("r", type=int)

    p = add_parser("kmatrix", cmd_kmatrix, help="functor matrix on K-theory")
    p.add_argument("--which", choices=["twist", "cotwist", "identity"], required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-basis", type=int, default=MAX_BASIS, metavar="N",
                   help=f"refuse a basis of more than N = C(d,r) generators "
                        f"(default {MAX_BASIS} = C(12,6))")

    p = add_parser("verify-exactness", cmd_verify_exactness,
                   help="character oracle for a resolution")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--delta", type=str, required=True)
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--report", choices=["json"], dest="json")  # same as --json

    return parser


def cmd_windows(args):
    gens = windows.window_generators(args.d, args.r, args.k)
    if args.json:
        return 0, [dict(label_to_json(g), bundle_rank=bundles.rank(g, args.d))
                   for g in gens]
    return 0, (format_label(g) + ("" if args.pretty else f"  rank {bundles.rank(g, args.d)}")
               for g in gens)


def cmd_staircase(args):
    seed = parse_partition(args.delta)
    steps = staircase(seed, args.r, args.K)[1:]
    if args.json:
        return 0, {"seed": list(seed), "height_param": args.r,
                   "steps": [{"k": k, "delta": list(dk), "s": sk} for k, dk, sk in steps]}
    return 0, (line for k, dk, sk in steps
               for line in [f"k={k}  delta={format_partition(dk) or '()'}  s={sk}"]
               + ([ascii_diagram(dk)] if args.pretty else []))


def cmd_resolve(args):
    delta = parse_partition(args.delta)
    if args.twisted:
        return _emit_complex(resolutions.unstable_resolution_twisted(delta, args.d, args.r), args)
    cx = resolutions.theorem_resolution(delta, args.d, args.r)
    if args.json:
        return 0, {"complex": complex_to_json(cx),
                   "cokernel": {"delta": list(delta), "h_rank": args.r - 1}}
    return 0, [format_complex(cx), f"cokernel: push of S^({format_partition(delta)}) "
                                   f"of the rank-{args.r - 1} dual bundle"]


def cmd_image(args):  # twist and cotwist: the parser stores the image function
    return _emit_complex(args.image(parse_partition(args.delta), args.d, args.r), args)


def cmd_bwb(args):
    delta = parse_partition(args.delta)
    # validates and classifies once; regular weights land in degree l(w) >= 1
    result = bwb_cohomology(delta, args.i, args.r)
    kind = "non-regular" if result is None else "regular" if result[0] else "dominant"
    if args.json:
        doc: dict = {"alpha": list(delta + (0,) * (args.r - 1 - len(delta)) + (args.i,)),
                     "class": kind}
        if kind == "regular":
            doc["length"] = result[0]
        doc["cohomology"] = (None if result is None
                             else {"degree": result[0], "shape": list(result[1])})
        return 0, doc
    if result is None:
        return 0, ["non-regular: all cohomology vanishes"]
    kind += f" l={result[0]}" if result[0] else ""
    return 0, [f"{kind}: H^{result[0]} has shape ({format_partition(result[1])})"]


def cmd_kmatrix(args):
    d, r, k = args.d, args.r, min(args.r, args.d - args.r)
    # C(d,r) = C(d,k) >= d, and C(d,i) >= 2^i rises up to i = k: at most log2(limit) + 2 steps
    if k > 0 and (d > args.max_basis or any(comb(d, i) > args.max_basis for i in range(k + 1))):
        raise ValueError(f"C({d},{r}) is above the limit of {args.max_basis} generators; "
                         "pass a larger --max-basis to compute it")
    matrix = autoequiv.k_matrix(args.which, d, r)
    try:
        det = autoequiv.determinant(matrix)
    except autoequiv.InternalConsistencyError as exc:  # name the column's generator
        delta = windows.gamma_set(d, r)[exc.column]
        raise type(exc)(f"(d,r)=({d},{r}), delta={delta}: {args.which} K-matrix {exc}") from None
    if args.json:
        return 0, {"which": args.which, "d": args.d, "r": args.r,
                   "matrix": [list(row) for row in matrix], "determinant": det}
    row_format = " ".join(["%4d"] * len(matrix))
    return 0, chain((row_format % tuple(row) for row in matrix), [f"determinant: {det}"])


def cmd_verify_exactness(args):
    delta = parse_partition(args.delta)
    diffs = characters.exactness_report(delta, args.d, args.r, args.degree)  # empty if exact
    if not args.json:
        return (1 if diffs else 0), ["NOT exact" if diffs else "exact"]
    doc = {"ok": not diffs, "diffs": [{"lambda": list(lam), "mu": list(mu), "euler": a,
                                       "pushforward": b} for (lam, mu), a, b in diffs]}
    if diffs:  # where it broke: the lowest ambient degree and the (k, delta_k, s_k)
        doc["lowest_degree"] = min(sum(lam) for (lam, _), _, _ in diffs)
        doc["terms"] = characters.resolution_terms(delta, args.d, args.r)
    return (1 if diffs else 0), doc


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, out = args.run(args)
        if args.json:
            out = [json.dumps(out, indent=2) if args.pretty
                   else json.dumps(out, separators=(",", ":"))]
        for line in out:
            print(line)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except autoequiv.InternalConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
