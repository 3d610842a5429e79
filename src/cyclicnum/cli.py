"""Command-line front end.

Subcommands: check, sieve, witness, verify, analyze, enumerate.  Default
output is one fact per line so reports diff cleanly; --json switches to a
machine format carrying a top-level "schema": 1 marker (certificate files
and the sieve array are fixed formats of their own and omit it).

Exit status contract, uniform across subcommands: 0 for success or an
affirmative answer, 1 for a mathematically negative answer (a non-cyclic
number in `check`, a failed verification, a witness request for an order
that has none), 2 for unusable input, bad files, or exceeded caps.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Sequence

from .cayley import element_orders, enumerate_groups
from .errors import CapacityError
from .groups import DEFAULT_CLOSURE_CAP, DEFAULT_SUBGROUP_BOUND, analyze, closure
from .numtheory import cyclic_numbers, factorize, gcd
from .perm import Permutation
from .witness import DEGREE_CAP, WitnessCertificate, build_witness, verify_certificate

SIEVE_LIMIT = 10**6


# ---------------------------------------------------------------------------
# serialization

def certificate_to_dict(cert: WitnessCertificate) -> dict:
    # Field order is part of the file format; dicts preserve it.
    return {
        "n": cert.n,
        "reason": cert.reason,
        "params": dict(cert.params),
        "degree": cert.degree,
        "generators": [list(g.images) for g in cert.generators],
    }


def certificate_from_dict(data: dict) -> WitnessCertificate:
    if not isinstance(data, dict):
        raise ValueError("certificate file must contain a JSON object")
    try:
        return WitnessCertificate(
            n=data["n"],
            reason=data["reason"],
            params=dict(data["params"]),
            degree=data["degree"],
            generators=_read_generators(data["generators"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"certificate file is missing or mistypes a field: {exc}") from exc


def load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path} must contain a JSON object")
    return data


def _read_generators(raw) -> tuple[Permutation, ...]:
    """Permutations from the JSON value of a 'generators' field."""
    if not isinstance(raw, list) or not raw or not all(isinstance(images, list) for images in raw):
        raise ValueError("'generators' must be a non-empty list of image lists")
    return tuple(Permutation(images) for images in raw)


def load_generators(data: dict) -> tuple[Permutation, ...]:
    """Generators of the stated degree from any object with those two fields.

    Accepts both plain group files and witness certificates, which share
    the keys that matter here.
    """
    try:
        degree = data["degree"]
        raw = data["generators"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc} (need 'degree' and 'generators')") from exc
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise ValueError("'degree' must be a positive integer")
    gens = _read_generators(raw)
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator of degree {g.degree} does not match degree {degree}")
    return gens


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report(args, payload: dict, lines: list[str], status: int = 0) -> int:
    """Write one report, as JSON under --json and as text lines otherwise."""
    if args.json:
        _write_output(_dump_json({"schema": 1, **payload}), args.out)
    else:
        _write_output("\n".join(lines) + "\n", args.out)
    return status


# ---------------------------------------------------------------------------
# subcommands

def _format_factorization(factors: tuple[tuple[int, int], ...]) -> str:
    if not factors:
        return "1"
    return " * ".join(f"{p}^{a}" if a > 1 else str(p) for p, a in factors)


def cmd_check(args) -> int:
    n = args.n
    fact = factorize(n)
    report = fact.conditions()
    phi = fact.phi
    g = gcd(n, phi)
    cyclic_number = report.squarefree_ok and report.arrow_ok
    verdict = (
        f"every group of order {n} is cyclic"
        if cyclic_number
        else f"a non-cyclic group of order {n} exists"
    )
    p, pair = report.square_prime, report.arrow_pair
    payload = {
        "n": n,
        "factorization": [list(factor) for factor in fact.factors],
        "phi": phi,
        "gcd": g,
        "squarefree_ok": report.squarefree_ok,
        "square_prime": p,
        "arrow_ok": report.arrow_ok,
        "arrow_pair": list(pair) if pair else None,
        "cyclic_number": cyclic_number,
        "verdict": verdict,
    }
    lines = [
        f"n: {n}",
        f"factorization: {_format_factorization(fact.factors)}",
        f"phi(n): {phi}",
        f"gcd(n, phi(n)): {g}",
        "squarefree: yes" if p is None else f"squarefree: no ({p}^2 divides {n})",
        "prime pair with p dividing q-1: " + ("none" if pair is None else f"({pair[0]}, {pair[1]})"),
        f"verdict: {verdict}",
    ]
    return _report(args, payload, lines, 0 if cyclic_number else 1)


def cmd_sieve(args) -> int:
    lo, hi = args.lo, args.hi
    if not 1 <= lo <= hi <= SIEVE_LIMIT:
        raise ValueError(f"need 1 <= LO <= HI <= {SIEVE_LIMIT}")
    hits = cyclic_numbers(lo, hi)
    if args.json:
        _write_output(json.dumps(hits) + "\n", args.out)
    else:
        _write_output("%d\n" * len(hits) % tuple(hits), args.out)
    return 0


def cmd_witness(args) -> int:
    cert = build_witness(args.n, max_degree=args.max_degree)
    if cert is None:
        print(f"{args.n} is a cyclic number; no non-cyclic group of that order exists", file=sys.stderr)
        return 1
    fields = (f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in certificate_to_dict(cert).items())
    _write_output("{\n" + ",\n".join(fields) + "\n}\n", args.out)  # README's layout, on json's C encoder
    return 0


def cmd_verify(args) -> int:
    target = args.target
    if target.isdigit():
        n = int(target)
        cert = build_witness(n)
        if cert is None:
            print(f"{n} is a cyclic number; there is no witness to verify", file=sys.stderr)
            return 1
    else:
        cert = certificate_from_dict(load_json_file(target))
    report = verify_certificate(cert, max_size=args.max_order)
    payload = {
        "n": cert.n,
        "reason": cert.reason,
        "group_size": report.group_size,
        "order_ok": report.order_ok,
        "max_element_order": report.max_element_order,
        "noncyclic_ok": report.noncyclic_ok,
        "passed": report.passed,
    }
    lines = [
        f"n: {cert.n}",
        f"reason: {cert.reason}",
        f"group size: {report.group_size}",
        f"order matches n: {'yes' if report.order_ok else 'no'}",
        f"max element order: {report.max_element_order}",
        f"non-cyclic: {'yes' if report.noncyclic_ok else 'no'}",
        f"verdict: {'pass' if report.passed else 'FAIL'}",
    ]
    return _report(args, payload, lines, 0 if report.passed else 1)


def cmd_analyze(args) -> int:
    gens = load_generators(load_json_file(args.path))
    G = closure(gens, max_size=args.max_order)
    info = analyze(G)
    lines = [
        f"degree: {info['degree']}",
        f"group order: {info['order']}",
        f"cyclic: {'yes (generator ' + str(info['generator']) + ')' if info['cyclic'] else 'no'}",
        f"abelian: {'yes' if info['abelian'] else 'no'}",
        "element orders: "
        + " ".join(f"{k}:{v}" for k, v in info["element_orders"].items()),
        f"center size: {info['center_size']}",
        "conjugacy class sizes: "
        + " ".join(str(s) for s in info["conjugacy_class_sizes"]),
    ]
    if info["maximal_subgroups"] is None:
        lines.append(f"maximal subgroups: skipped (order above {DEFAULT_SUBGROUP_BOUND})")
    else:
        lines.append(f"maximal subgroups: {len(info['maximal_subgroups'])}")
        for idx, row in enumerate(info["maximal_subgroups"], start=1):
            lines.append(
                f"maximal {idx}: size {row['size']}, "
                f"normalizer size {row['normalizer_size']}, "
                f"conjugates {row['conjugate_count']}"
            )
    return _report(args, info, lines)


def cmd_enumerate(args) -> int:
    n = args.n
    reports = []
    for c in enumerate_groups(n):
        orders = element_orders(c)
        reports.append({"cyclic": orders[-1] == n, "element_orders": list(orders)})
    payload = {
        "n": n,
        "classes": len(reports),
        "cyclic_classes": sum(1 for r in reports if r["cyclic"]),
        "class_reports": reports,
    }
    lines = [
        f"n: {n}",
        f"classes: {payload['classes']}",
        f"cyclic classes: {payload['cyclic_classes']}",
    ]
    for idx, r in enumerate(reports, start=1):
        orders = " ".join(str(o) for o in r["element_orders"])
        lines.append(f"class {idx}: cyclic {'yes' if r['cyclic'] else 'no'}, element orders {orders}")
    return _report(args, payload, lines)


# ---------------------------------------------------------------------------
# parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The subcommand parser, built once per process.

    Parsing does not change the parser and ``prog`` is fixed, so every
    call to main shares it.  Each ``set_defaults(func=cmd_*)`` binds the
    function object found at the first build.
    """
    parser = argparse.ArgumentParser(
        prog="cyclicnum",
        description="Decide which group orders force cyclicity, and build/check witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, as_json=True):
        if as_json:
            p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")

    p = sub.add_parser("check", help="is every group of order N cyclic?")
    p.add_argument("n", type=int, metavar="N")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sieve", help="list cyclic numbers in [LO, HI]")
    p.add_argument("lo", type=int, metavar="LO")
    p.add_argument("hi", type=int, metavar="HI")
    add_common(p)
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("witness", help="emit a non-cyclic witness certificate for order N")
    p.add_argument("n", type=int, metavar="N")
    p.add_argument(
        "--max-degree", type=int, default=DEGREE_CAP, metavar="CAP",
        help=f"refuse witnesses needing more than CAP points (default {DEGREE_CAP})",
    )
    add_common(p, as_json=False)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="re-verify a certificate file, or the built-in witness for a number")
    p.add_argument("target", metavar="N|CERT.json")
    p.add_argument(
        "--max-order", type=int, default=DEFAULT_CLOSURE_CAP, metavar="CAP",
        help=(
            "closure size cap for each block of generators whose moved points meet;"
            f" a one-generator block is not closed (default {DEFAULT_CLOSURE_CAP})"
        ),
    )
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="structural report on a group given by generators")
    p.add_argument("path", metavar="GROUP.json")
    p.add_argument(
        "--max-order", type=int, default=DEFAULT_CLOSURE_CAP, metavar="CAP",
        help=f"closure size cap (default {DEFAULT_CLOSURE_CAP})",
    )
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("enumerate", help="enumerate all groups of order N up to relabeling")
    p.add_argument("n", type=int, metavar="N")
    add_common(p)
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors and 0 for --help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
