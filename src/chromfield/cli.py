"""Command-line front end.

Subcommands map onto the library surface: ``compute`` (exact polynomials
from the Z engines), ``family`` (closed forms), ``oracle`` (direct
coloring enumeration for cross-checks), ``check`` (identity suite),
``strips`` (transfer multiplicity structure), ``zeros`` (univariate zero
slices), ``phi`` and ``qc`` (infinite-circuit asymptotics).

Output is one JSON document per invocation with sorted keys, so repeated
runs are byte-identical.  Exit status: 0 on success, 1 when a requested
check fails or on a domain error (a cap refused, a float result that
overflowed), 2 on usage errors and unreadable input (argparse's
convention), with an error message and no traceback.

A subcommand imports the modules that only it uses (``families``,
``identities``, ``strips``, ``zeros``, ``asymptotics``) when it runs, so
each one-shot invocation loads no more than its own work needs.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

# no computation uses numpy; perfbench/run.py:import_times reads numpy's
# import time out of "import chromfield.cli", so the CLI still imports it
import numpy  # noqa: F401

from .errors import (BadInputError, CapExceededError, ChromfieldError,
                     PreconditionUnmetError)
from .graphs import FAMILY_BUILDERS, Graph, make_family
from .partition import (DEFAULT_VERTEX_CAP, chromatic_poly, oracle_z, ph_poly,
                        tutte_poly, z_poly, zero_field_poly)
from .poly import VARS

# strips checks take time growing about as ly^4: --ly 40 ran in 3-7 s and
# --ly 60 in 38 s (2 vCPUs), so wider strips are refused before any work
STRIP_WIDTH_CAP = 40


def _parse_family(text: str) -> tuple[str, int]:
    kind, _, size = text.partition(":")
    try:
        return kind, int(size)
    except ValueError:
        raise BadInputError(
            f"--family wants KIND:N with an integer N, got {text!r}") from None


def _fraction(text: str, error: str) -> Fraction:
    # Fraction builds 10^exponent exactly (1e9999999 takes 15 s), so an
    # exponent of five or more digits is refused before it is built
    if re.search(r"[eE][+-]?0*[1-9]\d{4}", text.replace("_", "")):
        raise BadInputError(error + " (exponent too large)")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise BadInputError(error) from None


def _load_graph(args) -> Graph:
    if args.family:
        return make_family(*_parse_family(args.family))
    if args.graph:
        try:
            text = (sys.stdin.read() if args.graph == "-"
                    else Path(args.graph).read_text())
        except OSError as exc:
            raise BadInputError(f"cannot read {args.graph}: {exc.strerror}") from None
        stripped = text.lstrip()
        if stripped.startswith("{"):
            try:
                return Graph.from_json_dict(json.loads(text))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                raise BadInputError(f"bad JSON graph: {exc!r}") from None
        return Graph.from_edge_list_text(text)
    print("error: need --graph FILE or --family KIND:N", file=sys.stderr)
    raise SystemExit(2)


def _add_graph_args(sub) -> None:
    sub.add_argument("--graph", help="edge-list or JSON file ('-' for stdin)")
    sub.add_argument("--family",
                     help="named graph KIND:N, kinds: "
                     + ",".join(sorted(FAMILY_BUILDERS)))


def _emit(payload: dict) -> None:
    """Print the payload; a float that overflowed to inf or nan has no JSON
    form, so it is a domain error rather than an ``Infinity`` token."""
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:
        raise PreconditionUnmetError(
            "the result is not finite in floating point "
            "at these arguments") from None
    print(text)


def _workers(args) -> int:
    if args.workers < 1:
        raise BadInputError(f"--workers wants a count >= 1, got {args.workers}")
    return args.workers


def _cmd_compute(args) -> int:
    workers = _workers(args)
    g = _load_graph(args)
    names = VARS
    if args.mode == "z":
        p = z_poly(g, workers)
    elif args.mode == "ph":
        p = ph_poly(g, workers)
    elif args.mode == "zero-field":
        p = zero_field_poly(g, workers)
    elif args.mode == "chromatic":
        p = chromatic_poly(g)
    else:
        p, names = tutte_poly(g), ("x", "y", "_", "_")
    payload = {
        "graph_hash": g.graph_hash(),
        "n": g.n,
        "edges": g.e,
        "mode": args.mode,
        "poly": p.to_json_dict(names),
    }
    if args.text:
        payload["text"] = p.render(names=names)
    _emit(payload)
    return 0


def _cmd_family(args) -> int:
    kind, n = _parse_family(args.family)
    if n > DEFAULT_VERTEX_CAP:
        raise CapExceededError(
            f"{n} vertices exceeds the family cap of {DEFAULT_VERTEX_CAP}, "
            "the engines' vertex cap")
    from . import families
    p = families.family_ph(kind, n) if args.ph else families.family_z(kind, n)
    _emit({
        "family": kind,
        "n": n,
        "mode": "ph" if args.ph else "z",
        "poly": p.to_json_dict(),
        "text": p.render(),
    })
    return 0


def _cmd_oracle(args) -> int:
    g = _load_graph(args)
    v = _fraction(args.v, f"--v wants a number, got {args.v!r}")
    w = _fraction(args.w, f"--w wants a number, got {args.w!r}")
    value = oracle_z(g, args.q, args.s, v, w)
    _emit({
        "graph_hash": g.graph_hash(),
        "q": args.q,
        "s": args.s,
        "v": str(args.v),
        "w": str(args.w),
        "value": str(value),
    })
    return 0


def _print_verdicts(verdicts: list[tuple[str, bool, str]]) -> int:
    """Print an ``ok  `` or ``FAIL`` line per (name, holds, detail)
    verdict, a failing one with its detail, and return how many failed."""
    for name, holds, detail in verdicts:
        detail = f": {detail}" if detail and not holds else ""
        print(f"{'ok  ' if holds else 'FAIL'} {name}{detail}")
    return sum(not holds for _, holds, _ in verdicts)


def _cmd_check(args) -> int:
    workers = _workers(args)
    g = _load_graph(args)
    from . import identities
    verdicts = identities.identity_suite(g, workers)
    bad = _print_verdicts([(v.name, v.holds, v.detail) for v in verdicts])
    print(f"{len(verdicts) - bad}/{len(verdicts)} identities hold")
    return 1 if bad else 0


def _cmd_strips(args) -> int:
    if args.ly < 1:
        raise BadInputError(f"--ly wants a strip width >= 1, got {args.ly}")
    if args.growth_s < 0:
        raise BadInputError(
            f"--growth-s wants an s >= 1, or 0 for none, got {args.growth_s}")
    if args.ly > STRIP_WIDTH_CAP:
        raise CapExceededError(
            f"--ly {args.ly} exceeds the strip width cap of {STRIP_WIDTH_CAP}")
    from . import strips
    zh, ph = strips.zh_count_rows(args.ly), strips.ph_count_rows(args.ly)
    checks = {
        "rows": strips.verify_row_structure(zh, ph),
        "sums": strips.verify_sum_identities(zh, ph),
        "totals": strips.verify_totals(zh, ph),
        "coeffs": strips.verify_c_values(),
    }
    bad = _print_verdicts([(f"strips-{name}", not failures, "; ".join(failures))
                           for name, failures in checks.items()])
    if args.growth_s:
        for kind in ("zh", "ph"):
            rep = strips.growth_report(kind, args.growth_s, args.ly + 4)
            print(f"growth {kind} s={args.growth_s}: "
                  f"ratios={['%.3f' % r for r in rep.ratios]} "
                  f"limit={rep.limit} monotone={rep.monotone}")
    return 1 if bad else 0


def _cmd_zeros(args) -> int:
    g = _load_graph(args)
    p = ph_poly(g) if args.mode == "ph" else z_poly(g)
    fixed = {}
    for item in (args.fix or "").split(","):
        if not item:
            continue
        name, _, val = item.partition("=")
        name = name.strip()
        if name not in VARS or name == args.var:
            others = ", ".join(v for v in VARS if v != args.var)
            raise BadInputError(
                f"--fix wants one of {others} (not --var {args.var}), got {name!r}")
        if name in fixed:
            raise BadInputError(f"--fix names {name} more than once")
        value = _fraction(val, f"--fix wants name=number, got {item!r}")
        try:
            as_float = float(value)
        except OverflowError:
            as_float = math.inf
        # float() turns a nonzero value that underflows into 0.0, which
        # would solve the slice at 0 instead
        if math.isinf(as_float) or (value != 0 and as_float == 0.0):
            raise BadInputError(
                f"--fix value {val.strip()!r} is outside the float range")
        fixed[name] = as_float
    from . import zeros
    sl = zeros.zeros_in(p, args.var, fixed, drop_tol=args.drop_tol)
    _emit({
        "graph_hash": g.graph_hash(),
        "mode": args.mode,
        "variable": sl.variable,
        "fixed": {k: v for k, v in sorted(sl.fixed.items())},
        "nominal_degree": sl.nominal_degree,
        "actual_degree": sl.actual_degree,
        # + 0.0 prints a zero part as 0.0 whatever sign rounding left it
        "roots": sorted([[round(z.real, 12) + 0.0, round(z.imag, 12) + 0.0]
                         for z in sl.roots]),
    })
    return 0


def _finite(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if not math.isfinite(value):
            raise BadInputError(f"--{name} wants a finite number, got {value}")


def _cmd_phi(args) -> int:
    _finite(args, "q", "s", "w")
    from . import asymptotics
    rep = asymptotics.phi_circuit(args.q, args.s, args.w)
    _emit({
        "q": args.q, "s": args.s, "w": args.w,
        "phi": rep.phi,
        "dominant": rep.dominant,
        "region": rep.region,
        "candidates": {k: [v.real, v.imag]
                       for k, v in sorted(rep.candidates.items())},
    })
    return 0


def _cmd_qc(args) -> int:
    _finite(args, "s", "w")
    from . import asymptotics
    res = asymptotics.qc_circuit(args.s, args.w)
    payload = {"s": args.s, "w": args.w, "mode": res.mode,
               "value": res.value, "note": res.note}
    if res.value is not None:
        if res.mode == "unit-modulus":
            located = asymptotics.qc_locate_unit_modulus(args.s, args.w)
        else:
            located = asymptotics.qc_locate_pair_degeneracy(args.s, args.w)
        payload["located"] = located
        payload["residual"] = abs(located - res.value)
    _emit(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chromfield",
        description="Exact magnetic-field Potts partition sums and "
                    "weighted-set chromatic polynomials")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="exact polynomial via the Z engines")
    _add_graph_args(p)
    p.add_argument("--mode", default="z",
                   choices=["z", "ph", "zero-field", "tutte", "chromatic"])
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--text", action="store_true",
                   help="include a rendered form")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("family", help="closed-form family polynomial")
    p.add_argument("--family", required=True, help="KIND:N")
    p.add_argument("--ph", action="store_true", help="v = -1 slice")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("oracle", help="direct coloring-sum evaluation")
    _add_graph_args(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--v", default="-1")
    p.add_argument("--w", default="1")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("check", help="run the identity suite on a graph")
    _add_graph_args(p)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("strips", help="strip multiplicity structure checks")
    p.add_argument("--ly", type=int, default=4)
    p.add_argument("--growth-s", type=int, default=0,
                   help="also report total growth at this s")
    p.set_defaults(fn=_cmd_strips)

    p = sub.add_parser("zeros", help="zeros in one variable, others fixed")
    _add_graph_args(p)
    p.add_argument("--var", required=True, choices=["q", "s", "v", "w"])
    p.add_argument("--fix", help="comma list name=value (fractions ok)")
    p.add_argument("--mode", default="ph", choices=["z", "ph"])
    p.add_argument("--drop-tol", type=float, default=0.0)
    p.set_defaults(fn=_cmd_zeros)

    p = sub.add_parser("phi", help="infinite-circuit growth factor")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--w", type=float, required=True)
    p.set_defaults(fn=_cmd_phi)

    p = sub.add_parser("qc", help="real-axis locus crossing q_c")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--w", type=float, required=True)
    p.set_defaults(fn=_cmd_qc)

    return ap


def _join_signed_values(argv: list[str]) -> list[str]:
    """Write ``oracle --v -1/3`` as ``--v=-1/3``.  argparse reads a word
    that starts with '-' as an option unless it is shaped like -1 or -0.5,
    so a negative fraction given to --v or --w as its own word would be
    refused as a missing value."""
    out = list(argv)
    if out[:1] == ["oracle"]:
        for i in range(len(out) - 2, 0, -1):
            if out[i] in ("--v", "--w") and re.match(r"-[\d.]", out[i + 1]):
                out[i:i + 2] = [f"{out[i]}={out[i + 1]}"]
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_signed_values(argv))
    try:
        return args.fn(args)
    except BadInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChromfieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
