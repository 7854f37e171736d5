"""Exact rational cone computations.

Coordinate minima over a normalized cone slice (simplex LP with exact dual
certificates), orthant-containment certificates for dual cones, effectivity
thresholds along a ray, and Fourier-Motzkin projection as an independent
cross-check for small systems.

No floating point anywhere: inputs are coerced to `fractions.Fraction` and
every produced number is an exact rational.  The LP solver is a simplex in
dictionary form: it stores only the nonbasic columns, as gcd-reduced
integer rows (constraint rows are scale-free), and uses Bland's
smallest-index rule for both the entering and the leaving variable, so it
terminates on degenerate inputs.  The coordinates are free variables; each
is pivoted into the basis once, before phase one, and never leaves.

Every coordinate minimum over one normalized slice shares its feasible
region, so phase one runs once per (ConeH, normalization) and each later
`lp_min` on that ConeH warm-starts phase two from the previous optimal
basis.  A witness may therefore depend on the order of the calls; a minimum
never does.

The arithmetic stays in scaled integers from the input rows to the result:
a ConeH clears each row, and the default normalization sum(x) = 1, to
integers once; the dictionary is integer; the result is read out of it with
one `Fraction(numerator, denominator)` per nonzero entry; and
`verify_lp_minimum` re-checks every result from the numerators and
denominators of its entries, over the nonzero entries of the constraint
rows, with no `Fraction` arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from ._terms import _fr

_ZERO = Fraction(0)


class ConeError(Exception):
    """Base class for errors raised by this module."""


class Infeasible(ConeError):
    """The constraint system together with its normalization has no solution."""


class Unbounded(ConeError):
    """The objective is unbounded below on the normalized feasible set."""


class DimensionMismatch(ConeError):
    pass


class NotAttainable(ConeError):
    """No shift along the ray lands in the cone (empty threshold set)."""


class MinusInfinity(ConeError):
    """Every sufficiently negative shift lands in the cone (threshold -oo)."""


def _vec(xs) -> tuple[Fraction, ...]:
    return tuple([x if isinstance(x, Fraction) else Fraction(x) for x in xs])


def _clear_denominators(qs: tuple[Fraction, ...]) -> tuple[int, list[int]]:
    """Return (d, ints) with d > 0 and ints == d * qs entrywise."""
    dens = [q.denominator for q in qs]
    d = lcm(*dens)
    return d, [q.numerator * (d // e) for q, e in zip(qs, dens)]


def _sparse_ints(qs: tuple[Fraction, ...]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(d, ((j, d * qs[j]), ...)) over the nonzero entries, with d > 0."""
    d, ints = _clear_denominators(qs)
    return d, tuple((j, a) for j, a in enumerate(ints) if a)


def _clear_normalization(normalization) -> tuple[int, tuple[int, ...], int]:
    """(d, N, R) for the slice norm . x = rhs: integers with d > 0,
    N = d * norm entrywise and R = d * rhs."""
    norm_coeffs, norm_rhs = normalization
    d, ints = _clear_denominators(_vec(norm_coeffs) + (_fr(norm_rhs),))
    return d, tuple(ints[:-1]), ints[-1]


def _reduce_ints(row: list[int]) -> list[int]:
    g = gcd(*row) if row else 0
    if g > 1:
        return [x // g for x in row]
    return row


# ---------------------------------------------------------------------------
# half-space data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeH:
    """Half-space description of a rational cone {x : rows . x >= 0}."""

    rows: tuple[tuple[Fraction, ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        # A row of ints is its own integer row, and each distinct int becomes
        # a Fraction once; any other row is coerced to Fractions and cleared.
        width = len(self.labels)
        raw = [tuple(r) for r in self.rows]
        if any(len(r) != width for r in raw):
            raise DimensionMismatch("constraint row width does not match labels")
        exact: dict[int, Fraction] = {}
        rows, int_rows = [], []
        for r in raw:
            if all(type(a) is int for a in r):
                for a in set(r).difference(exact):
                    exact[a] = Fraction(a)
                int_rows.append((1, tuple((j, a) for j, a in enumerate(r) if a)))
                r = tuple(map(exact.__getitem__, r))
            else:
                r = _vec(r)
                int_rows.append(_sparse_ints(r))
            rows.append(r)
        object.__setattr__(self, "rows", tuple(rows))
        # None of the attributes below is a dataclass field, so equality and
        # hashing see only rows and labels.  _int_rows[i] = (d_i, R_i),
        # R_i = d_i * rows[i] in ints with d_i > 0, stored sparsely as
        # ((j, R_ij), ...) over the nonzero entries.  _norm is the default
        # normalization sum(x) = 1 cleared by _clear_normalization.  _warm
        # holds lp_min's tableau at a feasible basis of one normalized
        # slice: {cleared normalization: (tableau, scale)}.
        object.__setattr__(self, "_int_rows", tuple(int_rows))
        object.__setattr__(self, "_norm",
                           _clear_normalization(default_normalization(width)))
        object.__setattr__(self, "_warm", {})

    @staticmethod
    def from_rows(rows, labels=None) -> "ConeH":
        mat = tuple(map(tuple, rows))
        if labels is None:
            if not mat:
                raise ValueError("need labels to build a cone with no constraints")
            labels = tuple(f"x{j}" for j in range(len(mat[0])))
        return ConeH(mat, tuple(str(s) for s in labels))

    @property
    def num_vars(self) -> int:
        return len(self.labels)

    def contains(self, point) -> bool:
        x = _vec(point)
        if len(x) != self.num_vars:
            raise DimensionMismatch("point has wrong dimension")
        return all(sum(a * b for a, b in zip(r, x)) >= 0 for r in self.rows)


def default_normalization(num_vars: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """The slice sum(x) = 1 used throughout the certificates."""
    return tuple(Fraction(1) for _ in range(num_vars)), Fraction(1)


# ---------------------------------------------------------------------------
# exact simplex
# ---------------------------------------------------------------------------

_PIVOT_LIMIT = 200_000  # per lp_min call


class PivotLimitExceeded(RuntimeError):
    """One lp_min call made more than _PIVOT_LIMIT simplex pivots."""


class _Tableau:
    """Scaled-integer simplex dictionary.

    Variables are numbered x_0..x_{k-1} (free), s_0..s_{m-1} (slacks, >= 0)
    and the artificial variable k+m (>= 0).  Only nonbasic columns are
    stored: row i reads

        rows[i][0] * basis[i] + sum_c rows[i][1 + c] * nonbasic[c] == rows[i][-1]

    and may be rescaled by any positive integer without changing the
    system, which keeps all arithmetic in plain ints.  Invariants:
    rows[i][0] > 0, and rows[i][-1] >= 0 unless basis[i] is free, so
    basis[i] has the value rows[i][-1] / rows[i][0] and every nonbasic
    variable is 0.  The objective row z has the same layout, with
    z[0] = sigma > 0 and z[1 + c] / sigma the reduced cost of nonbasic[c].

    A free variable is pivoted in once, before phase one, and never leaves:
    its row takes no part in the ratio test.  A free variable whose column
    is zero in every row with a bounded basic variable stays nonbasic; the
    pivots keep that column zero, so its reduced cost can never change sign
    and a nonzero one means the objective is unbounded.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], nonbasic: list[int],
                 num_free: int):
        self.rows = rows
        self.basis = basis
        self.nonbasic = nonbasic
        self.num_free = num_free  # variables 0..num_free-1 are free
        self.z = [1] + [0] * (len(nonbasic) + 1)  # no objective yet
        self.banned: set[int] = set()
        self.pivots = 0

    def set_objective(self, var: int) -> None:
        """Minimize the single variable `var`."""
        if var in self.basis:
            row = self.rows[self.basis.index(var)]
            self.z = [row[0]] + [-a for a in row[1:]]
        else:
            self.z = [1] + [0] * len(self.nonbasic) + [0]
            self.z[1 + self.nonbasic.index(var)] = 1

    def _pivot(self, r: int, c: int) -> None:
        """Swap nonbasic[c] into the basis at row r."""
        prow = self.rows[r]
        assert prow[1 + c] > 0
        prow[0], prow[1 + c] = prow[1 + c], prow[0]
        prow = self.rows[r] = _reduce_ints(prow)
        for i, row in enumerate(self.rows):
            if i != r and row[1 + c]:
                self.rows[i] = _eliminate(row, prow, c)
        if self.z[1 + c]:
            self.z = _eliminate(self.z, prow, c)
        self.basis[r], self.nonbasic[c] = self.nonbasic[c], self.basis[r]
        self.pivots += 1
        if self.pivots > _PIVOT_LIMIT:
            raise PivotLimitExceeded("simplex pivot limit exceeded")

    def optimize(self) -> None:
        """Bland's rule loop; raises Unbounded if no leaving row exists."""
        if any(self.z[1 + c] for c, v in enumerate(self.nonbasic) if v < self.num_free):
            raise Unbounded("objective unbounded below")
        while True:
            enter = -1
            for c, v in enumerate(self.nonbasic):
                if (self.z[1 + c] < 0 and v not in self.banned
                        and (enter < 0 or v < self.nonbasic[enter])):
                    enter = c
            if enter < 0:
                return
            leave = -1
            best_rhs = best_coef = 0
            for i, row in enumerate(self.rows):
                coef = row[1 + enter]
                if coef <= 0 or self.basis[i] < self.num_free:
                    continue
                rhs = row[-1]
                if leave < 0 or rhs * best_coef < best_rhs * coef or (
                    rhs * best_coef == best_rhs * coef and self.basis[i] < self.basis[leave]
                ):
                    leave, best_rhs, best_coef = i, rhs, coef
            if leave < 0:
                raise Unbounded("objective unbounded below")
            self._pivot(leave, enter)


def _eliminate(row: list[int], prow: list[int], c: int) -> list[int]:
    """Remove the entering column c from `row` with the swapped pivot row.

    prow[0] is the entering variable's coefficient and prow[1 + c] the
    leaving variable's; `row` keeps its own basic variable, so its entry 0
    only scales, and its entry 1 + c becomes the leaving variable's.
    """
    q, f = prow[0], row[1 + c]
    out = [q * a - f * b for a, b in zip(row, prow)]
    out[0] = q * row[0]
    out[1 + c] = -f * prow[1 + c]
    return _reduce_ints(out)


@dataclass(frozen=True)
class LpResult:
    """Minimum of one coordinate over {x : A.x >= 0, norm.x = rhs}.

    `row_multipliers` (>= 0, one per constraint row) and
    `normalization_multiplier` form an exact optimality certificate:

        e_obj == sum_i row_multipliers[i] * A_i + normalization_multiplier * norm

    so every feasible x has x_obj >= normalization_multiplier * rhs = value.
    """

    value: Fraction
    witness: tuple[Fraction, ...]
    row_multipliers: tuple[Fraction, ...]
    normalization_multiplier: Fraction


def verify_lp_minimum(cone: ConeH, objective_index: int, result: LpResult,
                      normalization=None) -> bool:
    """Re-check an LpResult from scratch; raises ConeError if anything fails.

    `normalization` is None for the default sum(x) = 1, which the cone
    holds cleared.  Entries of the result may be int or Fraction; only
    their numerators and denominators are read, and all arithmetic is in
    plain ints over the nonzero entries of the rows.  With the rows cleared
    to R_i = d_i * A_i, the normalization to N = d * norm, R = d * rhs, and
    the witness to X = D * x, the sign and the zero set of R_i . X are those
    of the slack A_i . x.  Each term mu_i * A_i is (mu_i.numerator /
    (mu_i.denominator * d_i)) * R_i, and nu * norm is likewise a multiple
    of N; over the lcm q of the term denominators the identity
    sum_i mu_i A_i + nu * norm == e_obj becomes an identity of integer
    vectors with q in place of 1.
    """
    k = cone.num_vars
    if not 0 <= objective_index < k:
        raise DimensionMismatch("objective index out of range")
    d_norm, norm_ints, norm_rhs = (_clear_normalization(normalization)
                                   if normalization else cone._norm)
    x = result.witness
    if len(x) != k or len(norm_ints) != k:
        raise DimensionMismatch("witness or normalization has wrong dimension")
    d_x, xs = _clear_denominators(x)
    slacks = []
    for _, row in cone._int_rows:
        s = 0
        for j, a in row:
            s += a * xs[j]
        if s < 0:
            raise ConeError("witness violates a cone constraint")
        slacks.append(s)
    if sum(map(mul, norm_ints, xs)) != d_x * norm_rhs:
        raise ConeError("witness violates the normalization")
    value = result.value
    if xs[objective_index] * value.denominator != d_x * value.numerator:
        raise ConeError("witness coordinate does not equal the recorded minimum")
    mus = result.row_multipliers
    nu = result.normalization_multiplier
    if len(mus) != len(slacks):
        raise ConeError("one multiplier per constraint row required")
    terms = []  # (numerator, denominator, R_i, slack_i) over mu_i != 0
    for mu, (d, row), s in zip(mus, cone._int_rows, slacks):
        num = mu.numerator
        if num:
            if num < 0:
                raise ConeError("negative row multiplier")
            terms.append((num, mu.denominator * d, row, s))
    nu_den = nu.denominator * d_norm
    q = lcm(nu_den, *(den for _, den, _, _ in terms))
    f = nu.numerator * (q // nu_den)
    lhs = [f * a for a in norm_ints]
    lhs[objective_index] -= q
    for num, den, row, _ in terms:
        f = num * (q // den)
        for j, a in row:
            lhs[j] += f * a
    if any(lhs):
        raise ConeError("dual multipliers do not reproduce the objective")
    if (nu.numerator * norm_rhs * value.denominator
            != value.numerator * nu_den):
        raise ConeError("dual objective does not match the minimum")
    if any(s for _, _, _, s in terms):
        raise ConeError("complementary slackness fails")
    return True


def _pivot_either_sign(tab: _Tableau, r: int, c: int) -> None:
    """Pivot on a nonzero entry of either sign.  Negating row r (all of it,
    the basic coefficient too) turns a negative entry positive; the leaving
    variable takes the negated coefficient with it, and the new basic
    variable is free or the right-hand side is 0, so no bound is broken."""
    if tab.rows[r][1 + c] < 0:
        tab.rows[r] = [-a for a in tab.rows[r]]
    tab._pivot(r, c)


def _phase_one(cone: ConeH, norm: tuple[int, tuple[int, ...], int]) -> tuple[_Tableau, int]:
    """Dictionary of the normalized slice at a feasible basis, its artificial
    variable banned, and the factor that turns the artificial column's
    reduced cost into the normalization multiplier.  `norm` is the slice
    cleared by _clear_normalization.  Raises Infeasible.

    The start basis is the slacks plus one artificial variable on the
    normalization row.  Each free x_j is then pivoted in once, on the first
    constraint row with a bounded basic variable and a nonzero entry for it:
    that row's right-hand side is 0, so the pivot keeps every right-hand side
    as it is, whatever the sign of the entry.  Only when no such constraint
    row exists is the normalization row used; every bounded row then has a
    zero entry and keeps its right-hand side, and the artificial variable
    leaves at 0.  A free variable with neither stays nonbasic.
    """
    k = cone.num_vars
    m = len(cone.rows)
    art = k + m
    rows: list[list[int]] = []
    for _, ints in cone._int_rows:
        r = [1] + [0] * (k + 1)  # s_i - d_i * (row_i . x) = 0
        for j, num in ints:
            r[1 + j] = -num
        rows.append(r)
    d, norm_ints, norm_rhs = norm
    sign = 1 if norm_rhs > 0 else -1
    rows.append([1] + [sign * a for a in norm_ints] + [sign * norm_rhs])
    tab = _Tableau(rows, [k + i for i in range(m)] + [art], list(range(k)), k)

    for j in range(k):
        c = tab.nonbasic.index(j)
        # the normalization row is last, so a constraint row comes first
        r = next((i for i, b in enumerate(tab.basis) if b >= k and tab.rows[i][1 + c]),
                 None)
        if r is not None:
            _pivot_either_sign(tab, r, c)

    tab.set_objective(art)
    tab.optimize()
    if art in tab.basis:
        r = tab.basis.index(art)
        if tab.rows[r][-1]:
            raise Infeasible("normalized cone slice is empty")
        nonzero = [c for c in range(k) if tab.rows[r][1 + c]]
        if not nonzero:
            raise ConeError("degenerate artificial row cannot be pivoted out")
        _pivot_either_sign(tab, r, min(nonzero, key=tab.nonbasic.__getitem__))
    tab.banned.add(art)
    return tab, sign * d


def lp_min(cone: ConeH, objective_index: int, normalization=None) -> LpResult:
    """Exact minimum of coordinate `objective_index` over the normalized cone.

    The feasible set is {x free : cone.rows . x >= 0, norm . x = rhs} with
    norm defaulting to sum(x) = 1 (normalization None).  The free
    coordinates enter the basis once, in phase one, which runs on the first
    call for a (cone, normalization); later calls on the same ConeH start
    phase two from the basis the previous call ended at, which is feasible
    because the region is shared.  The minimum does not depend on the order
    of the calls, but at a degenerate optimum the witness and multipliers
    may.  The pivot limit applies per call.

    The result is read out of the integer dictionary in one pass over the
    basis and one over the nonbasic columns, with one Fraction per nonzero
    entry, and re-checked by `verify_lp_minimum` with the caller's
    normalization before it is returned.  Raises Infeasible / Unbounded.
    """
    k = cone.num_vars
    if not 0 <= objective_index < k:
        raise DimensionMismatch("objective index out of range")
    norm = _clear_normalization(normalization) if normalization else cone._norm
    _, norm_ints, norm_rhs = norm
    if len(norm_ints) != k:
        raise DimensionMismatch("normalization has wrong dimension")
    if norm_rhs == 0:
        raise ValueError("normalization right-hand side must be nonzero")

    # The tableau is off the cone while it pivots, so an exception in the
    # middle of a pivot cannot leave a half-updated tableau for the next call.
    warm = cone._warm.pop(norm, None)
    cone._warm.clear()
    if warm is None:
        warm = _phase_one(cone, norm)
    else:
        warm[0].pivots = 0
    tab, norm_scale = warm

    tab.set_objective(objective_index)
    try:
        tab.optimize()
    except Unbounded:
        cone._warm[norm] = warm
        raise
    cone._warm[norm] = warm

    # basic coordinates with a nonzero value, and the nonzero reduced costs
    # times sigma = z[0] by nonbasic variable
    values = {v: row for v, row in zip(tab.basis, tab.rows) if v < k and row[-1]}
    z = tab.z
    costs = {v: z[1 + c] for c, v in enumerate(tab.nonbasic) if z[1 + c]}
    witness = tuple(Fraction(values[j][-1], values[j][0]) if j in values else _ZERO
                    for j in range(k))
    mus = tuple(Fraction(costs[k + i] * d, z[0]) if k + i in costs else _ZERO
                for i, (d, _) in enumerate(cone._int_rows))
    art = k + len(mus)
    nu = Fraction(-costs[art] * norm_scale, z[0]) if art in costs else _ZERO
    result = LpResult(witness[objective_index], witness, mus, nu)
    verify_lp_minimum(cone, objective_index, result, normalization)
    return result


# ---------------------------------------------------------------------------
# orthant-containment certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Per-coordinate minima over {d : constraints . d >= 0, sum(d) = 1}.

    Passing (all minima >= 0) certifies that the dual cone of the constraint
    rows is contained in the nonnegative orthant.  Witnesses attain the
    minima; the dual multiplier blocks prove optimality (see LpResult).
    Construction re-checks every coordinate and raises ConeError unless
    there is exactly one of each per label.
    """

    labels: tuple[str, ...]
    constraints: tuple[tuple[Fraction, ...], ...]
    minima: tuple[Fraction, ...]
    witnesses: tuple[tuple[Fraction, ...], ...]
    row_multipliers: tuple[tuple[Fraction, ...], ...]
    normalization_multipliers: tuple[Fraction, ...]
    feasible: bool = True

    def __post_init__(self):
        cone = ConeH(self.constraints, self.labels)
        fields = (self.minima, self.witnesses, self.row_multipliers,
                  self.normalization_multipliers)
        if any(len(f) != len(self.labels) for f in fields):
            raise ConeError("one minimum, witness, multiplier block and "
                            "normalization multiplier per label required")
        for j, (mn, wit, mus, nu) in enumerate(zip(*fields)):
            verify_lp_minimum(cone, j, LpResult(mn, wit, mus, nu))

    @property
    def passed(self) -> bool:
        return self.feasible and all(mn >= 0 for mn in self.minima)

    def as_dict(self) -> dict:
        return {
            "variables": list(self.labels),
            "constraints": [[str(q) for q in row] for row in self.constraints],
            "normalization": "sum = 1",
            "minima": {lab: str(mn) for lab, mn in zip(self.labels, self.minima)},
            "witnesses": [[str(q) for q in w] for w in self.witnesses],
            "row_multipliers": [[str(q) for q in mus] for mus in self.row_multipliers],
            "normalization_multipliers": [str(q) for q in self.normalization_multipliers],
            "feasible": self.feasible,
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def dual_contained_in_orthant(matrix, labels=None) -> Certificate:
    """Certify that {d : matrix . d >= 0} lies inside the orthant {d >= 0}.

    Minimizes every coordinate over the slice sum(d) = 1 and records exact
    minima, witnesses and dual multipliers.  Raises Infeasible when the
    normalized slice is empty (reported, never silently counted as a pass)
    and Unbounded when some coordinate has no finite minimum there, which is
    a containment failure with no finite witness.
    """
    cone = ConeH.from_rows(matrix, labels)
    if all(q == 0 for row in cone.rows for q in row):
        raise ValueError("constraint matrix is zero")
    minima, witnesses, mults, norms = [], [], [], []
    for j in range(cone.num_vars):
        res = lp_min(cone, j)
        minima.append(res.value)
        witnesses.append(res.witness)
        mults.append(res.row_multipliers)
        norms.append(res.normalization_multiplier)
    return Certificate(cone.labels, cone.rows, tuple(minima), tuple(witnesses),
                       tuple(mults), tuple(norms))


# ---------------------------------------------------------------------------
# effectivity threshold along a ray
# ---------------------------------------------------------------------------

def kodaira_energy(base, direction) -> Fraction:
    """inf{a : base + a * direction >= 0 componentwise}, exactly.

    The cone is the nonnegative orthant in the coordinates supplied.  Each
    coordinate with direction > 0 contributes the lower bound -base/direction
    and the infimum is their maximum.  Raises NotAttainable when the feasible
    interval is empty (a dead coordinate, or crossing upper/lower bounds) and
    MinusInfinity when no coordinate bounds a from below.
    """
    b = _vec(base)
    d = _vec(direction)
    if len(b) != len(d):
        raise DimensionMismatch("base and direction have different lengths")
    lower = None
    upper = None
    for bj, dj in zip(b, d):
        if dj > 0:
            t = -bj / dj
            lower = t if lower is None or t > lower else lower
        elif dj < 0:
            t = -bj / dj
            upper = t if upper is None or t < upper else upper
        elif bj < 0:
            raise NotAttainable("coordinate is negative for every shift")
    if lower is not None and upper is not None and lower > upper:
        raise NotAttainable("lower bound exceeds upper bound")
    if lower is None:
        raise MinusInfinity("no coordinate bounds the shift from below")
    return lower


# ---------------------------------------------------------------------------
# Fourier-Motzkin projection
# ---------------------------------------------------------------------------

def _canonical_ray(row: tuple[Fraction, ...]) -> tuple[int, ...]:
    d, ints = _clear_denominators(row)
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def fourier_motzkin_project(cone: ConeH, var: int) -> ConeH:
    """Eliminate one variable from a homogeneous inequality system.

    Sound and complete: a point satisfies the output iff it lifts to a point
    of the input.  Exact duplicates are removed but redundant rows may
    remain (no general redundancy elimination).
    """
    if not 0 <= var < cone.num_vars:
        raise DimensionMismatch("variable index out of range")
    pos, neg, zero = [], [], []
    for row in cone.rows:
        c = row[var]
        (pos if c > 0 else neg if c < 0 else zero).append(row)

    def drop(row):
        return tuple(q for j, q in enumerate(row) if j != var)

    out: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for row in zero:
        r = _canonical_ray(drop(row))
        if any(r) and r not in seen:
            seen.add(r)
            out.append(r)
    for p in pos:
        for q in neg:
            comb = tuple(p[var] * q[j] - q[var] * p[j]
                         for j in range(cone.num_vars) if j != var)
            r = _canonical_ray(comb)
            if any(r) and r not in seen:
                seen.add(r)
                out.append(r)
    labels = tuple(lab for j, lab in enumerate(cone.labels) if j != var)
    return ConeH(tuple(out), labels)
