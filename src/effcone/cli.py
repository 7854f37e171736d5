"""Command-line surface.

Each verified statement maps to one subcommand with machine-readable
output.  Exit codes: 0 = pass or pure query, 1 = verification, solver or
exactness failure, 2 = invalid input.  A subcommand returns what it
computed, a payload and, where the default key/value rows do not fit, its
csv rows, and raises on failure.  `main` alone names the payload after its
subcommand, prints it, and maps the verdict and the exceptions to exit
codes: a "fail" verdict, a `cone.ConeError` or an `ExactnessError` to 1, a
ValueError to 2.  Outside input, the --coeffs and --matrix lists and the
`fit` file, is read and checked here, where it enters; the library takes
plain integer tuples.  Exact rationals are printed as "p/q"; only `fit`
prints decimals (it is statistical by nature).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import operator
import sys
from fractions import Fraction

from . import cone, counting, fiber, forms, picard
from ._terms import ExactnessError, format_terms


def _text(value):
    """A list or dict prints as its JSON text, in one cell or one line."""
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True)
    return value


def _emit(payload: dict, fmt: str, csv_rows=None) -> None:
    # an exact result prints in full: CPython's int-to-str digit limit
    # (3.10.7 on) is lifted while printing, so it still refuses long input
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            print(json.dumps(payload, sort_keys=True))
        elif fmt == "csv":
            rows = csv_rows if csv_rows is not None else [
                (key, payload[key]) for key in sorted(payload)
            ]
            csv.writer(sys.stdout, lineterminator="\n").writerows(
                [_text(cell) for cell in row] for row in rows)
        else:
            for key in payload:
                print(f"{key}: {_text(payload[key])}")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


# Largest n for cone-cert, pairings and relation.  From n = 150 to 300 the
# certificate's in-process cost grows about like n^2.2: `cone-cert --n 300`
# takes 0.49-0.80 s and 39 MiB as a process on a 2-core Xeon (CPython 3.11.7,
# no bytecode cache) and prints 2.6 MB of JSON.  The relation trace prints
# O(n^2) digits.
MAX_N = 300
# Largest n for kodaira and fiber-check.  fiber-check reads n + 1 integer
# coordinates for each of the n + 1 basis rows, so its cost grows about like
# n^2: --n 1000 takes 0.17-0.27 s and 17 MiB as a process on the same host.
MAX_N_FIBER = 1000
# Largest degree for every --coeffs.  On a dense degree-100 form (entries
# +-1..9), `disc` takes 0.2-0.4 s and `count --bmax 1` 0.5-1.0 s as a process
# on the same host; at degree 110, count takes up to 1.2 s.
MAX_DEGREE = 100


def _require_n(args, limit: int) -> int:
    if args.n < 3:
        raise ValueError(f"n must be at least 3 (got {args.n})")
    if args.n > limit:
        raise ValueError(f"n must be at most {limit} (got {args.n})")
    return args.n


def _read_form(args) -> tuple[int, ...]:
    xs = tuple(int(part) for part in args.coeffs.split(","))
    if len(xs) < 2:
        raise ValueError("a binary form has degree at least 1")
    if len(xs) - 1 > MAX_DEGREE:
        raise ValueError(f"degree must be at most {MAX_DEGREE} (got {len(xs) - 1})")
    return xs


def _read_series(text: str) -> tuple[tuple[int, int], ...]:
    """The (B, N) pairs of a `fit` file: rows `B,N` of two integers, B >= 1
    increasing and N >= 0 nondecreasing; blank lines are skipped, and a
    first line `B,N` (in either case) is the header.  A row that is not two
    integers raises a ValueError that names its line."""
    points = []
    for number, line in enumerate(text.splitlines(), 1):
        row = line.strip()
        if not row or (number == 1 and row.lower() == "b,n"):
            continue
        try:
            b, n = map(int, row.split(","))
        except ValueError:
            raise ValueError(f"line {number}: expected B,N as two "
                             f"integers, got {row!r}") from None
        points.append((b, n))
    for b, n in points:
        if b < 1 or n < 0:
            raise ValueError(f"point ({b}, {n}) needs B >= 1 and N >= 0")
    for (b1, n1), (b2, n2) in zip(points, points[1:]):
        if b2 <= b1 or n2 < n1:
            raise ValueError("series must be increasing in B, nondecreasing in N")
    return tuple(points)


def _cmd_pairings(args):
    n = _require_n(args, MAX_N)
    matrix = picard.pairing_matrix(n)
    curves = picard.curve_labels(n)
    cols = picard.b_labels(n)
    return ({"n": n, "columns": cols,
             "rows": [{"curve": lab, "pairings": row}
                      for lab, row in zip(curves, matrix)]},
            [["curve"] + cols] + [[lab] + row for lab, row in zip(curves, matrix)])


def _cmd_cone_cert(args):
    n = _require_n(args, MAX_N)
    cert = picard.cone_certificate(n)
    certificate = cert.as_dict()
    verdict = "pass" if cert.passed else "fail"
    return ({"n": n, "certificate": certificate, "verdict": verdict},
            [["coordinate", "minimum"]] + list(certificate["minima"].items())
            + [["verdict", verdict]])


def _cmd_kodaira(args):
    n = _require_n(args, MAX_N_FIBER)
    value = (picard.kodaira_full(n) if args.space == "full"
             else fiber.kodaira_fiber(n))
    expected = Fraction(2, n)
    return ({"n": n, "space": args.space, "value": str(value),
             "expected": str(expected),
             "verdict": "pass" if value == expected else "fail"}, None)


def _cmd_relation(args):
    n = _require_n(args, MAX_N)
    counts = picard.pair_incidence_counts(n)
    trace = [{"s": s, "subsets_per_pair": per_pair,
              "pair_incidences": incidences, "subsets": subsets,
              "coefficient": str(per_subset)}
             for s, per_pair, incidences, subsets, per_subset in counts]
    coeff_L, coeff_B = picard.derive_l_relation(counts)
    relation = format_terms([(coeff_L, "L"), *zip(
        (coeff_B.get(s, 0) for s in range(2, n + 1)), picard.b_labels(n))])
    return ({"n": n, "relation": relation, "coefficients": trace},
            [["s", "coefficient"]] + [[t["s"], t["coefficient"]] for t in trace])


def _cmd_fiber_check(args):
    n = _require_n(args, MAX_N_FIBER)
    checks: list[tuple[str, bool]] = []

    def check(name, holds) -> None:
        # a class that has left the symmetric span fails the check reading it
        try:
            ok = holds()
        except fiber.NotInSpan:
            ok = False
        checks.append((name, ok))

    # A-coordinates are doubled: (2, 0) is A_sub, (0, 2) is A_top
    k = fiber.fiber_class(n, "K")
    check("canonical_in_A_basis", lambda: fiber.to_A_basis(k) == (-2, -4))
    # Lhalf, half of (n-2) A_sub + n A_top, equals
    # (n-2)(g1 + g2 + g3) - (n-3) E - (n-2)(F4 + ... + Fn), coordinatewise;
    # each F row is added as it is read, so one row is held at a time
    lh = fiber.fiber_class(n, "Lhalf")
    f_sum = [0] * (n + 1)
    for m in range(4, n + 1):
        f_sum = list(map(operator.add, f_sum, fiber.fiber_class(n, f"F{m}")))
    g1, g2, g3, e = (fiber.fiber_class(n, label)
                     for label in ("g1", "g2", "g3", "E"))
    rhs = tuple((n - 2) * (c1 + c2 + c3 - c_f) - (n - 3) * c_e
                for c1, c2, c3, c_e, c_f in zip(g1, g2, g3, e, f_sum))
    check("hyperplane_expansion", lambda: lh == rhs)
    check("curve_pairing_A_sub", lambda: fiber.pair_R(n, 2, 0) == n)
    check("curve_pairing_A_top", lambda: fiber.pair_R(n, 0, 2) == 2 - n)
    check("hyperplane_misses_curve",
          lambda: fiber.pair_R(n, *fiber.to_A_basis(lh)) == 0)
    check("threshold_matches_full_space",
          lambda: fiber.kodaira_fiber(n) == picard.kodaira_full(n))
    if n == 3:
        check("large_diagonal_coherence",
              lambda: fiber.fiber_class(3, "B2_n3") == fiber.fiber_class(3, "A_sub"))

    verdict = "pass" if all(ok for _, ok in checks) else "fail"
    return ({"n": n,
             "checks": [{"name": name, "pass": ok} for name, ok in checks],
             "verdict": verdict},
            [["check", "pass"]] + [[name, ok] for name, ok in checks]
            + [["verdict", verdict]])


def _cmd_disc(args):
    xs = _read_form(args)
    return {"coeffs": list(xs), "disc": forms.disc(xs)}, None


def _cmd_act(args):
    xs = _read_form(args)
    m = [int(part) for part in args.matrix.split(",")]
    if len(m) != 4:
        raise ValueError("expected 4 comma-separated entries a,b,c,d")
    a, b, c, d = m
    if a * d - b * c != 1:
        raise ValueError("matrix determinant must be 1")
    return ({"coeffs": list(xs), "matrix": m,
             "result": list(forms.substitute(xs, *m))}, None)


def _cmd_count(args):
    xs = _read_form(args)
    if args.grid < 1 or args.bmax < 1:
        raise ValueError("grid length and bmax must be positive")
    steps = min(args.grid, args.bmax.bit_length())  # later steps give 0
    points = counting.count_series(
        xs, [args.bmax >> k for k in reversed(range(steps))])
    return ({"coeffs": list(xs), "series": [[b, cnt] for b, cnt in points]},
            [["B", "N"]] + [[b, cnt] for b, cnt in points])


def _cmd_fit(args):
    try:
        with open(args.infile, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:  # an unreadable file is bad input
        raise ValueError(str(exc)) from exc
    return counting.fit_exponent(_read_series(text)), None


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
        payload, csv_rows = args.fn(args)
        payload = {"command": args.command, **payload}
        _emit(payload, args.format, csv_rows)
    except (cone.ConeError, ExactnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if payload.get("verdict") == "fail" else 0

if __name__ == "__main__":
    sys.exit(main())
