"""Command-line surface: single-semigroup queries, family scans, identity
verification, and quasipolynomial fitting, with deterministic human / JSON /
CSV output.

Exit status: 0 on success, 1 on usage or data errors, 2 when a verification
subcommand finds a mismatch inside its guaranteed regime (a mismatch below the
regime bound is reported but exits 0).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from .factorizations import betti_elements, minimal_presentation
from .parametric import (
    LinearFamily,
    SCAN_INVARIANTS,
    family_from_spec,
    pf_transport,
    scan,
    transport_presentation,
    verify_fast_apery,
    betti_bijection,
)
from .quasipoly import FitMismatch, fit, leading_coefficient
from .semigroup import Semigroup
from .weighted import (
    delta_set_up_to,
    delta_w_of_element,
    max_delta_w,
    min_delta_w,
    weighted_delta_union_up_to,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REGIME_MISMATCH = 2


def _exact(value):
    """The JSON encoder's hook for what it cannot write: a Fraction becomes
    its exact string; any other type is still an error."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(payload: dict, rows, args) -> None:
    """payload: full structured result (JSON mode; tuples are arrays and
    Fractions exact strings); rows: list of (key, value) pairs for the human
    table and CSV."""
    if args.json:
        print(json.dumps(payload, indent=2, default=_exact))
        return
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for key, value in rows:
            writer.writerow([key, _cell(value, ";", "")])
        sys.stdout.write(buf.getvalue())
        return
    width = max((len(str(k)) for k, _ in rows), default=0)
    for key, value in rows:
        print(f"{str(key):<{width}}  {_cell(value, ' ', '-')}")


def _cell(value, sep: str, none):
    """A table cell: lists and tuples joined by sep, None shown as none."""
    if isinstance(value, (list, tuple)):
        return sep.join(str(_cell(v, sep, none)) for v in value)
    return none if value is None else value


def _relation(rel) -> dict:
    return {"degree": rel.degree, "left": rel.left, "right": rel.right}


def _relation_row(rel):
    left = "(" + ",".join(map(str, rel.left)) + ")"
    right = "(" + ",".join(map(str, rel.right)) + ")"
    return f"{left} = {right}"


def cmd_invariants(args) -> int:
    S = Semigroup(args.generators)
    base = args.apery if args.apery is not None else S.multiplicity
    ap = S.apery_set(base)
    payload = {
        "generators": S.generators,
        "gcd": S.d,
        "minimal_generators": S.minimal_generators(),
        "frobenius": S.frobenius(),
        "genus": S.genus(),
    }
    if S.d == 1:
        payload["type"] = S.type()
        payload["pseudo_frobenius"] = S.pseudo_frobenius()
        payload["wilf_standard"] = S.wilf_number("standard")
        payload["wilf_variant"] = S.wilf_number("variant")
    else:
        payload["type"] = None
        payload["pseudo_frobenius"] = None
        payload["wilf_standard"] = None
        payload["wilf_variant"] = None
    payload["apery"] = {"base": base, "elements": ap.elements}
    rows = [(k, v) for k, v in payload.items() if k != "apery"]
    rows.append(("apery base", base))
    rows.append(("apery", ap.elements))
    _emit(payload, rows, args)
    return EXIT_OK


def cmd_minpres(args) -> int:
    S = Semigroup(args.generators)
    rels = minimal_presentation(S)
    payload = {
        "generators": S.generators,
        "relations": [_relation(r) for r in rels],
    }
    rows = [("relations", len(rels))]
    rows += [(f"degree {r.degree}", _relation_row(r)) for r in rels]
    _emit(payload, rows, args)
    return EXIT_OK


def cmd_delta(args) -> int:
    if args.max_element is not None and args.max_element < 0:
        raise ValueError(f"--max-element must be non-negative, got {args.max_element}")
    S = Semigroup(args.generators)
    w = (
        tuple(Fraction(x) for x in args.weights)
        if args.weights
        else (Fraction(1),) * S.k
    )
    dmin = min_delta_w(S, w)
    dmax = max_delta_w(S, w)
    betti_union = sorted(
        {g for b in betti_elements(S) for g in delta_w_of_element(S, b, w)}
    )
    payload = {
        "generators": S.generators,
        "weights": w,
        "min_delta": dmin,
        "max_delta": dmax,
        "union_over_betti_elements": betti_union,
    }
    rows = [
        ("min delta", dmin if dmin != 0 else "0 (empty delta set)"),
        ("max delta", dmax),
        ("union over Betti elements", betti_union),
    ]
    if args.max_element is not None:
        if all(x == 1 for x in w):
            brute = delta_set_up_to(S, args.max_element)
        else:
            brute = weighted_delta_union_up_to(S, w, args.max_element)
        payload["brute_force"] = {"max_element": args.max_element, "deltas": brute}
        rows.append((f"brute force up to {args.max_element}", brute))
    _emit(payload, rows, args)
    return EXIT_OK


def _load_family(args, linear=False):
    if args.spec == "-":
        doc = json.load(sys.stdin)
    else:
        with open(args.spec, encoding="utf-8") as fh:
            doc = json.load(fh)
    family = family_from_spec(doc)
    if linear and not isinstance(family, LinearFamily):
        raise ValueError(
            f'{args.subcommand} needs a linear family spec {{"w": [...], "r": [...]}}, '
            'not a "polys" spec'
        )
    return family, doc


def _family_range(args, doc):
    if args.range:
        lo, hi = args.range
    elif "range" in doc:
        lo, hi = doc["range"]
    else:
        raise ValueError('no parameter range: pass --range A B or put "range" in the spec file')
    if args.step <= 0:
        raise ValueError(f"--step must be positive, got {args.step}")
    if lo > hi:
        raise ValueError(f"empty parameter range: start {lo} exceeds end {hi}")
    return range(lo, hi + 1, args.step)


def _scan_as_written(args, family, doc) -> list:
    """(n, value) rows of the invariant over the range, n as the user wrote
    it (the library scans at n - shift)."""
    ns = _family_range(args, doc)
    rows = scan(family, [n - family.shift for n in ns], args.invariant)
    return [(u, v) for u, (_, v) in zip(ns, rows)]


def cmd_family_scan(args) -> int:
    family, doc = _load_family(args)
    rows = _scan_as_written(args, family, doc)
    payload = {"invariant": args.invariant, "rows": rows}
    table = [("n", args.invariant)] + rows if not (args.json or args.csv) else rows
    _emit(payload, table, args)
    return EXIT_OK


def cmd_family_verify_phi(args) -> int:
    family, _ = _load_family(args, linear=True)
    rep = transport_presentation(family, args.n - family.shift)
    payload = {
        "n": args.n,
        "period": rep.period,
        "in_guaranteed_regime": rep.in_guaranteed_regime,
        "ok": rep.ok,
        "problems": rep.problems,
        "image": [_relation(r) for r in rep.image],
    }
    rows = [
        ("verify-phi", "PASS" if rep.ok else "FAIL"),
        ("n", args.n),
        ("period", rep.period),
        ("guaranteed regime", rep.in_guaranteed_regime),
    ]
    rows += [(f"image degree {r.degree}", _relation_row(r)) for r in rep.image]
    rows += [("problem", p) for p in rep.problems]
    _emit(payload, rows, args)
    return EXIT_REGIME_MISMATCH if (not rep.ok and rep.in_guaranteed_regime) else EXIT_OK


def cmd_family_verify_betti(args) -> int:
    family, _ = _load_family(args, linear=True)
    rep = betti_bijection(family, args.n - family.shift)
    ok = rep.is_bijection
    payload = {
        "n": args.n,
        "period": rep.period,
        "delta": rep.delta,
        "in_guaranteed_regime": rep.in_guaranteed_regime,
        "ok": ok,
        "mapping": rep.mapping,
        "anomalies": rep.anomalies,
    }
    rows = [
        ("verify-betti-bijection", "PASS" if ok else "FAIL"),
        ("n", args.n),
        ("delta", rep.delta),
        ("guaranteed regime", rep.in_guaranteed_regime),
    ] + [(f"{src}", f"-> {dst}") for src, dst in rep.mapping]
    rows += [(f"anomaly {beta}", lengths) for beta, lengths in rep.anomalies]
    _emit(payload, rows, args)
    return EXIT_REGIME_MISMATCH if (not ok and rep.in_guaranteed_regime) else EXIT_OK


def cmd_family_verify_apery(args) -> int:
    if args.n is not None and args.range:
        raise ValueError("verify-apery takes --n or --range, not both")
    family, doc = _load_family(args, linear=True)
    ns = [args.n] if args.n is not None else _family_range(args, doc)
    checks = [(n, verify_fast_apery(family, n - family.shift)) for n in ns]
    results = [
        {
            "n": n,
            "ok": chk.ok,
            "matches_direct": chk.matches,
            "singletons_ok": not chk.singleton_failures,
            "in_guaranteed_regime": chk.in_guaranteed_regime,
        }
        for n, chk in checks
    ]
    rows = [(f"n={r['n']}", "PASS" if r["ok"] else "FAIL") for r in results]
    _emit({"results": results}, rows, args)
    regime_fail = any(not r["ok"] and r["in_guaranteed_regime"] for r in results)
    return EXIT_REGIME_MISMATCH if regime_fail else EXIT_OK


def cmd_family_verify_pf(args) -> int:
    family, _ = _load_family(args, linear=True)
    rep = pf_transport(family, args.n - family.shift)
    ok = rep.is_bijection and rep.types_equal
    payload = {
        "n": args.n,
        "step": rep.step,
        "in_guaranteed_regime": rep.in_guaranteed_regime,
        "ok": ok,
        "type_n": rep.type_n,
        "type_next": rep.type_next,
        "mapping": rep.mapping,
    }
    rows = [
        ("verify-pf", "PASS" if ok else "FAIL"),
        ("n", args.n),
        ("type at n", rep.type_n),
        (f"type at n+{rep.step}", rep.type_next),
        ("guaranteed regime", rep.in_guaranteed_regime),
    ] + [(f"{a}", f"-> {b}") for a, b in rep.mapping]
    _emit(payload, rows, args)
    return EXIT_REGIME_MISMATCH if (not ok and rep.in_guaranteed_regime) else EXIT_OK


def _read_scan_rows(source) -> dict:
    """Parse a previously emitted scan (JSON payload or CSV n,value rows)."""
    text = sys.stdin.read() if source == "-" else Path(source).read_text(encoding="utf-8")
    text = text.strip()
    rows = []  # (n, value, kind, where) in input order
    if text.startswith("{"):
        pairs = json.loads(text).get("rows")
        if not isinstance(pairs, list) or any(not isinstance(r, list) or len(r) != 2 for r in pairs):
            raise ValueError('a JSON scan needs a "rows" list of [n, value] pairs')
        for i, (n, v) in enumerate(pairs, 1):
            where = f"row {i}: {json.dumps([n, v])}"
            if type(n) is not int:
                raise ValueError(f"a JSON scan needs integer n in every row, got {where}")
            bad_value = f"a JSON scan needs a rational value in every row, got {where}"
            if type(v) not in (int, str):
                raise ValueError(bad_value)
            try:
                rows.append((n, Fraction(v), "JSON", where))
            except ValueError:
                raise ValueError(bad_value) from None
    else:
        for i, line in enumerate(text.splitlines(), 1):
            try:
                n, value = line.split(",", 1)
                rows.append((int(n), Fraction(value), "CSV", f"line {i}: {line!r}"))
            except ValueError:
                raise ValueError(f"a CSV scan needs n,value rows, got line {i}: {line!r}") from None
    samples = {}
    for n, value, kind, where in rows:
        if n in samples:
            raise ValueError(f"a {kind} scan repeats n={n}, got {where}")
        samples[n] = value
    return samples


def cmd_family_fit(args) -> int:
    family, doc = _load_family(args)
    if args.from_scan:
        samples = _read_scan_rows(args.from_scan)
    else:
        samples = dict(_scan_as_written(args, family, doc))
    result = fit(samples, args.period, args.degree)
    if isinstance(result, FitMismatch):
        payload = {"fit": None, "mismatch_n": result.mismatch_n, "reason": result.reason}
        _emit(payload, [("fit", "MISMATCH"), ("at n", result.mismatch_n), ("reason", result.reason)], args)
        return EXIT_ERROR
    lead = leading_coefficient(result)
    payload = {
        "invariant": args.invariant,
        "period": result.period,
        "degree": result.degree,
        "n_min": result.n_min,
        "leading_coefficient": lead,
        "coefficients": result.coeffs,
    }
    rows_out = [
        ("invariant", args.invariant),
        ("period", result.period),
        ("degree", result.degree),
        ("n_min", result.n_min),
        ("leading coefficient", lead),
    ]
    rows_out += [(f"coeff n^{j}", row) for j, row in enumerate(result.coeffs)]
    _emit(payload, rows_out, args)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process on the first call.

    Each subcommand stores its handler's name, not the function: ``main``
    looks the name up in this module at call time, so a ``cmd_*`` attribute
    swapped in after the first build (a tracing wrapper, a test double) is
    the one that runs.  Parsing leaves no state on the parser.
    """
    parser = argparse.ArgumentParser(
        prog="numsgps",
        description="Factorization invariants of numerical semigroups and parametrized families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    group = fmt.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="machine-readable JSON output")
    group.add_argument("--csv", action="store_true", help="CSV output (vectors and sets joined with ';')")
    gens = argparse.ArgumentParser(add_help=False)
    gens.add_argument("generators", nargs="+", type=int)
    span = argparse.ArgumentParser(add_help=False)
    span.add_argument("--range", nargs=2, type=int, metavar=("A", "B"))
    span.add_argument("--step", type=int, default=1)

    p_inv = sub.add_parser("invariants", parents=[gens, fmt],
                           help="Frobenius, genus, type, Wilf numbers, Apery set")
    p_inv.add_argument("--apery", type=int, metavar="M",
                       help="base element for the Apery set (default: smallest generator)")
    p_inv.set_defaults(func="cmd_invariants")

    p_mp = sub.add_parser("minpres", parents=[gens, fmt],
                          help="canonical minimal presentation with degrees")
    p_mp.set_defaults(func="cmd_minpres")

    p_d = sub.add_parser("delta", parents=[gens, fmt],
                         help="(weighted) delta set: min, max, union over Betti elements")
    p_d.add_argument("--weights", nargs="+", metavar="W",
                     help="rational weights, e.g. 3 1/2 -1 (default: all 1)")
    p_d.add_argument("--max-element", type=int, metavar="N",
                     help="also brute-force the delta sets of all elements <= N")
    p_d.set_defaults(func="cmd_delta")

    p_f = sub.add_parser("family", help="parametrized family operations")
    p_f.add_argument("--spec", required=True, metavar="FILE",
                     help='JSON family spec: {"w": [...], "r": [...]} or {"polys": [[c0,c1,...], ...]},'
                          ' optional {"range": [a, b]}; "-" reads stdin')
    fsub = p_f.add_subparsers(dest="subcommand", required=True)

    p_scan = fsub.add_parser(
        "scan",
        parents=[span, fmt],
        help="exact invariant table over a parameter range",
        description="Exact invariant values per parameter. CSV columns: n,value "
        "(multiset values are ';'-joined).",
    )
    p_scan.add_argument("--invariant", required=True, choices=SCAN_INVARIANTS)
    p_scan.set_defaults(func="cmd_family_scan")

    p_phi = fsub.add_parser("verify-phi", parents=[fmt],
                            help="transport the minimal presentation to n+p and check it")
    p_phi.add_argument("--n", type=int, required=True)
    p_phi.set_defaults(func="cmd_family_verify_phi")

    p_bb = fsub.add_parser("verify-betti-bijection", parents=[fmt],
                           help="map Betti elements to n+p and compare")
    p_bb.add_argument("--n", type=int, required=True)
    p_bb.set_defaults(func="cmd_family_verify_betti")

    p_va = fsub.add_parser("verify-apery", parents=[span, fmt],
                           help="closed-form Apery set vs direct computation (--n or --range)")
    p_va.add_argument("--n", type=int)
    p_va.set_defaults(func="cmd_family_verify_apery")

    p_vp = fsub.add_parser("verify-pf", parents=[fmt], help="pseudo-Frobenius transport to n+r_k")
    p_vp.add_argument("--n", type=int, required=True)
    p_vp.set_defaults(func="cmd_family_verify_pf")

    p_fit = fsub.add_parser(
        "fit",
        parents=[span, fmt],
        help="scan an invariant and fit an exact quasipolynomial",
        description="Fit an exact quasipolynomial, either scanning the family "
        "directly (--invariant + --range) or consuming a previous scan's "
        "output (--from FILE, or --from - for a pipe; accepts the JSON "
        "payload or CSV n,value rows).",
    )
    p_fit.add_argument("--invariant", required=True, choices=SCAN_INVARIANTS)
    p_fit.add_argument("--degree", type=int, required=True)
    p_fit.add_argument("--period", type=int, required=True)
    p_fit.add_argument("--from", dest="from_scan", metavar="FILE",
                       help="read scan output instead of scanning (- for stdin)")
    p_fit.set_defaults(func="cmd_family_fit")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # argparse exits with 2 on a usage error, the regime-mismatch status
            return EXIT_ERROR
        raise  # --help
    try:
        return globals()[args.func](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ZeroDivisionError as exc:  # a rational input such as 1/0
        print(f"error: zero denominator in {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
