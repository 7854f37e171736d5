"""Command-line surface.

Each verified statement maps to one subcommand with machine-readable
output.  Exit codes: 0 = pass or pure query, 1 = verification or solver
failure, 2 = invalid input.  Exact rationals are printed as "p/q"; only
`fit` prints decimals (it is statistical by nature).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from math import comb

from . import cone, counting, fiber, forms, picard


def _emit(payload: dict, fmt: str, csv_rows=None) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif fmt == "csv":
        rows = csv_rows if csv_rows is not None else [
            (key, payload[key]) for key in sorted(payload)
        ]
        for row in rows:
            print(",".join(str(cell) for cell in row))
    else:
        for key in payload:
            value = payload[key]
            if isinstance(value, (list, dict)):
                value = json.dumps(value, sort_keys=True)
            print(f"{key}: {value}")


class SystemExit2(Exception):
    """Invalid input, mapped to exit code 2."""


# Largest n for cone-cert, pairings and relation.  From n = 150 to 300 the
# certificate's cost grows about like n^2.7: `cone-cert --n 300` takes about
# 1.6 s and 55 MiB as a process on a 2-core Xeon (CPython 3.11) and prints
# 2.6 MB of JSON.  The relation trace prints O(n^2) digits.
MAX_N = 300
# Largest n for kodaira and fiber-check.  fiber-check reads n + 1 Fraction
# coordinates for each of n - 3 classes: --n 1000 takes about 0.6 s as a
# process on the same host and --n 2000 1.5 s.
MAX_N_FIBER = 1000


def _require_n(args, limit: int) -> int:
    if args.n < 3:
        raise SystemExit2(f"n must be at least 3 (got {args.n})")
    if args.n > limit:
        raise SystemExit2(f"n must be at most {limit} (got {args.n})")
    return args.n


def _cmd_pairings(args) -> int:
    n = _require_n(args, MAX_N)
    matrix = picard.pairing_matrix(n)
    curves = [c.label() for c in picard.matrix_curves(n)]
    cols = picard.b_labels(n)
    payload = {
        "command": "pairings", "n": n, "columns": cols,
        "rows": [{"curve": lab, "pairings": row} for lab, row in zip(curves, matrix)],
    }
    csv_rows = [["curve"] + cols] + [[lab] + row for lab, row in zip(curves, matrix)]
    _emit(payload, args.format, csv_rows)
    return 0


def _cmd_cone_cert(args) -> int:
    n = _require_n(args, MAX_N)
    cert = picard.cone_certificate(n)
    payload = {"command": "cone-cert", "n": n,
               "certificate": cert.as_dict(),
               "verdict": "pass" if cert.passed else "fail"}
    csv_rows = [["coordinate", "minimum"]] + [
        [lab, str(mn)] for lab, mn in zip(cert.labels, cert.minima)
    ] + [["verdict", payload["verdict"]]]
    _emit(payload, args.format, csv_rows)
    return 0 if cert.passed else 1


def _cmd_kodaira(args) -> int:
    n = _require_n(args, MAX_N_FIBER)
    value = picard.kodaira_full(n) if args.space == "full" else fiber.kodaira_fiber(n)
    expected = Fraction(2, n)
    verdict = "pass" if value == expected else "fail"
    payload = {"command": "kodaira", "n": n, "space": args.space,
               "value": str(value), "expected": str(expected), "verdict": verdict}
    _emit(payload, args.format)
    return 0 if verdict == "pass" else 1


def _cmd_relation(args) -> int:
    n = _require_n(args, MAX_N)
    rel = picard.derive_l_relation(n)
    trace = []
    for s in range(2, n + 1):
        trace.append({
            "s": s,
            "subsets_per_pair": comb(n - 2, s - 2),
            "pair_incidences": comb(n, 2) * comb(n - 2, s - 2),
            "subsets": comb(n, s),
            "coefficient": str(-rel.b(s)),
        })
    payload = {"command": "relation", "n": n, "relation": str(rel),
               "coefficients": trace}
    csv_rows = [["s", "coefficient"]] + [[t["s"], t["coefficient"]] for t in trace]
    _emit(payload, args.format, csv_rows)
    return 0


def _cmd_fiber_check(args) -> int:
    n = _require_n(args, MAX_N_FIBER)
    checks: list[tuple[str, bool]] = []

    k = fiber.fiber_class(n, "K")
    checks.append(("canonical_in_A_basis",
                   fiber.to_A_basis(k) == fiber.AClass(n, -1, -2)))
    lh = fiber.fiber_class(n, "Lhalf")
    lhs = ((n - 2) * fiber.fiber_class(n, "A_sub")
           + n * fiber.fiber_class(n, "A_top"))
    rhs = (n - 2) * (fiber.fiber_class(n, "g1") + fiber.fiber_class(n, "g2")
                     + fiber.fiber_class(n, "g3"))
    rhs = rhs - (n - 3) * fiber.fiber_class(n, "E")
    # F_4 + ... + F_n summed coordinatewise, then scaled once
    f_sum = [0] * (n + 1)
    for m in range(4, n + 1):
        for i, q in enumerate(fiber.fiber_class(n, f"F{m}").coords):
            if q:
                f_sum[i] += q
    rhs = rhs - (n - 2) * fiber.FiberClass(n, tuple(f_sum))
    checks.append(("hyperplane_expansion", lhs == 2 * rhs and lhs == 2 * lh))
    checks.append(("curve_pairing_A_sub",
                   fiber.pair_R(fiber.AClass(n, 1, 0)) == n))
    checks.append(("curve_pairing_A_top",
                   fiber.pair_R(fiber.AClass(n, 0, 1)) == 2 - n))
    checks.append(("hyperplane_misses_curve",
                   fiber.pair_R(fiber.to_A_basis(lh)) == 0))
    checks.append(("threshold_matches_full_space",
                   fiber.kodaira_fiber(n) == picard.kodaira_full(n)))
    if n == 3:
        checks.append(("large_diagonal_coherence",
                       fiber.fiber_class(3, "B2_n3") == fiber.fiber_class(3, "A_sub")))

    verdict = "pass" if all(ok for _, ok in checks) else "fail"
    payload = {"command": "fiber-check", "n": n,
               "checks": [{"name": name, "pass": ok} for name, ok in checks],
               "verdict": verdict}
    csv_rows = [["check", "pass"]] + [[name, ok] for name, ok in checks]
    _emit(payload, args.format, csv_rows)
    return 0 if verdict == "pass" else 1


def _cmd_disc(args) -> int:
    try:
        f = forms.BinaryForm.from_csv(args.coeffs)
        value = forms.disc(f)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    payload = {"command": "disc", "coeffs": list(f.coeffs), "disc": value}
    _emit(payload, args.format)
    return 0


def _cmd_act(args) -> int:
    try:
        f = forms.BinaryForm.from_csv(args.coeffs)
        m = forms.UnimodularMatrix.from_csv(args.matrix)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    g = forms.act(f, m)
    payload = {"command": "act", "coeffs": list(f.coeffs),
               "matrix": list(m.entries()), "result": list(g.coeffs)}
    _emit(payload, args.format)
    return 0


def _cmd_count(args) -> int:
    try:
        f = forms.BinaryForm.from_csv(args.coeffs)
        if args.grid < 1 or args.bmax < 1:
            raise ValueError("grid length and bmax must be positive")
        steps = min(args.grid, args.bmax.bit_length())  # later steps give 0
        grid = sorted({args.bmax // 2**k for k in range(steps)} - {0})
        series = counting.count_series(f, grid)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    payload = {"command": "count", "coeffs": list(f.coeffs),
               "series": [[b, cnt] for b, cnt in series.points]}
    csv_rows = [["B", "N"]] + [[b, cnt] for b, cnt in series.points]
    _emit(payload, args.format, csv_rows)
    return 0


def _cmd_fit(args) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as handle:
            series = counting.CountSeries.from_csv(handle.read())
        result = counting.fit_exponent(series)
    except (OSError, ValueError) as exc:
        raise SystemExit2(str(exc))
    payload = {"command": "fit", "slope": result.slope,
               "intercept": result.intercept,
               "residual_norm": result.residual_norm,
               "points_used": result.points_used}
    _emit(payload, args.format)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then shared:
    parsing fills a new namespace each time and leaves the parser as it
    was."""
    parser = argparse.ArgumentParser(
        prog="effcone",
        description="Exact effective-cone certificates, effectivity thresholds, "
                    "and binary-form orbit counting.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=("human", "json", "csv"),
                       default="human")
        return p

    p = add("pairings", _cmd_pairings, help="dump the curve/boundary pairing matrix")
    p.add_argument("--n", type=int, required=True)

    p = add("cone-cert", _cmd_cone_cert,
            help="certify that the boundary classes generate the invariant effective cone")
    p.add_argument("--n", type=int, required=True)

    p = add("kodaira", _cmd_kodaira, help="exact effectivity threshold (certifies 2/n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--space", choices=("full", "fiber"), default="full")

    p = add("relation", _cmd_relation, help="derivation trace of the L-elimination relation")
    p.add_argument("--n", type=int, required=True)

    p = add("fiber-check", _cmd_fiber_check, help="verify the fiber basis identities")
    p.add_argument("--n", type=int, required=True)

    p = add("disc", _cmd_disc, help="exact discriminant of an integer binary form")
    p.add_argument("--coeffs", required=True, help="comma-separated x0,..,xn")

    p = add("act", _cmd_act, help="substitute a determinant-1 matrix into a form")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--matrix", required=True, help="a,b,c,d with a*d - b*c = 1")

    p = add("count", _cmd_count, help="orbit counts N(B) over a geometric grid")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--bmax", type=int, required=True)
    p.add_argument("--grid", type=int, default=9, help="number of grid points")

    p = add("fit", _cmd_fit, help="fit the growth exponent from a B,N csv file")
    p.add_argument("--in", dest="infile", required=True)

    return parser


_CSV_OPTIONS = ("--coeffs", "--matrix")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite `--coeffs -1,0,1` as `--coeffs=-1,0,1`.

    argparse reads a separate token that starts with "-" and is not a plain
    number as an option, so a list with a negative first entry would be
    refused.
    """
    out: list[str] = []
    for token in argv:
        if (out and out[-1] in _CSV_OPTIONS and len(token) > 1
                and token[0] == "-" and token[1].isdigit()):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (cone.ConeError, cone.PivotLimitExceeded,
            counting.CountingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
