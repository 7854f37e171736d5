"""Exact rational cone computations.

Coordinate minima over the slice sum(x) = 1 of a cone with integer rows
(simplex LP with exact dual certificates), orthant-containment certificates
for dual cones, and effectivity thresholds along a ray.  A threshold is
taken once the certificate has shown the effective cone to be the orthant,
along a big direction L, one in the open orthant: it is max -b/d.

No floating point anywhere: the cone rows are ints and every produced
number is an exact rational.  The LP solver is a simplex in dictionary
form: it stores only the nonbasic columns, as gcd-reduced integer rows
(constraint rows are scale-free), and uses Bland's smallest-index rule for
both the entering and the leaving variable, so it terminates on degenerate
inputs.  The coordinates are free variables; each enters the basis once,
before phase one, by a freeze that rewrites no other row (_phase_one), and
never leaves.  From then on one rule holds for every row but the objective
row: a row owes each substitution that meets it, and it is rewritten only
when it is read in full or when it would owe as many substitutions as it
has entries (_Tableau).  The ratio test reads one entry and the right-hand
side through what a row owes, as the revised simplex reads only the pivot
row and column, and the dictionary is the one Gauss-Jordan pivots would
give.  The artificial variable is minimized only while basic and never
enters.  Every error raised here is a ConeError, the pivot limit included.

Every coordinate minimum over the slice shares its feasible region, so
phase one runs once per ConeH (again after a solver error) and each later
`lp_min` on that ConeH warm-starts phase two from the previous optimal
basis.  A witness may therefore depend on the order of the calls; a
minimum never does.

The arithmetic stays in integers from the input rows to the printed
certificate: the dictionary is integer; a result is read out of it as two
integer blocks, the witness over one positive denominator and the dual
multipliers over the objective row's positive scale; `verify_lp_minimum`
re-checks those ints over the nonzero entries of the witness and of the
constraint rows; and each entry is printed as a reduced "p/q" straight from
its block.  The one `Fraction` per coordinate is its minimum.  The witness
is the basic solution, built once per basis through what the coordinates'
rows owe, with no row rewritten for it; every result at that basis shares
it, and a certificate prints each distinct witness block once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from ._terms import _exact


class ConeError(Exception):
    """Base class for errors raised by this module."""


class Infeasible(ConeError):
    """The constraint system has no solution with sum(x) = 1."""


class Unbounded(ConeError):
    """The objective is unbounded below on the slice sum(x) = 1."""


class DimensionMismatch(ConeError):
    pass


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
    """Half-space description of a cone {x : rows . x >= 0} with integer
    rows, one label per column; an entry that is not an int raises
    ValueError.  Rows and labels are kept as tuples, the labels as str."""

    rows: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(map(str, self.labels))
        width = len(labels)
        rows = tuple(tuple(r) for r in self.rows)
        if any(len(r) != width for r in rows):
            raise DimensionMismatch("constraint row width does not match labels")
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            raise ValueError("constraint entries must be int")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)
        # Neither attribute below is a dataclass field, so equality and
        # hashing see only rows and labels.  _int_rows[i] holds rows[i]
        # sparsely as ((j, rows[i][j]), ...) over the nonzero entries, and
        # _int_cols[j] holds column j as ((i, rows[i][j]), ...) likewise.
        # _warm holds at most one tableau: lp_min's, at a feasible basis of
        # the slice sum(x) = 1.
        int_rows = tuple(tuple((j, a) for j, a in enumerate(r) if a) for r in rows)
        cols = [[] for _ in range(width)]
        for i, row in enumerate(int_rows):
            for j, a in row:
                cols[j].append((i, a))
        object.__setattr__(self, "_int_rows", int_rows)
        object.__setattr__(self, "_int_cols", tuple(map(tuple, cols)))
        object.__setattr__(self, "_warm", [])

    @property
    def num_vars(self) -> int:
        return len(self.labels)


# ---------------------------------------------------------------------------
# exact simplex
# ---------------------------------------------------------------------------

_PIVOT_LIMIT = 200_000  # per lp_min call


class PivotLimitExceeded(ConeError):
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

    A row is stored as it was last computed in full, rows[i], followed by
    the substitutions it still owes, owed[i], oldest first, in the form
    _substitute takes: each pivot that meets it, after phase one's final
    substitution of its x-columns if it is a bounded row, one whose basic
    variable is a slack or the artificial variable.  They are applied only
    when the whole row is read (`row`): when it leaves the basis, when
    `set_objective` takes it, and when it would owe as many substitutions
    as it has entries (_pivot).  Each pivot's column and the ratio test read
    one entry and the right-hand side through them (`_entry`), and so does
    `basic_point` for each coordinate's value.  Only z owes nothing.

    A free variable is pivoted in once, by _freeze before phase one, and
    never leaves: its row takes no part in the ratio test.  A free variable
    whose column is zero in every row with a bounded basic variable stays
    nonbasic; the pivots keep that column zero, so its reduced cost can
    never change sign and a nonzero one means the objective is unbounded.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], nonbasic: list[int],
                 num_free: int):
        self.rows = rows
        self.owed: list[list[tuple]] = [[] for _ in rows]
        self.basis = basis
        self.nonbasic = nonbasic
        self.num_free = num_free  # variables 0..num_free-1 are free
        self.z = [1] + [0] * (len(nonbasic) + 1)  # no objective yet
        self.pivots = 0
        self.point: tuple[tuple[int, ...], int] | None = None  # of this basis

    def row(self, i: int) -> list[int]:
        """Row i in full: the substitutions it owes are applied, with the
        multipliers they were recorded with, and dropped."""
        if self.owed[i]:
            self.rows[i] = _substitute(self.rows[i], self.owed[i])
            self.owed[i] = []
        return self.rows[i]

    def _entry(self, i: int, p: int) -> int:
        """Entry p of row i (p >= 1, or -1 for the right-hand side), times
        the positive scale that _substitute divides out of the whole row:
        the owed substitutions are applied to this entry alone."""
        v = self.rows[i][p]
        for q, terms in self.owed[i]:
            w = q * v
            for prow, c, g in terms:
                w -= g * prow[p]
                if 1 + c == p:  # the replaced variable's own term goes
                    w -= q * v
            v = w
        return v

    def basic_point(self) -> tuple[tuple[int, ...], int]:
        """The basic solution of the current basis, as the coordinates'
        numerators over their lcm denominator, built on the first call after
        a basis change (_freeze clears it).  Each basic coordinate's value
        is read through what its row owes and rewrites no row: _entry(i, -1)
        over rows[i][0] times each owed multiplier q, the scale _entry
        reports in, reduced by their gcd."""
        if self.point is None:
            k = self.num_free
            values = []
            for i, v in enumerate(self.basis):
                if v < k:
                    num = self._entry(i, -1)
                    if num:
                        den = self.rows[i][0]
                        for q, _ in self.owed[i]:
                            den *= q
                        g = gcd(num, den)
                        values.append((v, num // g, den // g))
            d_x = lcm(*(den for _, _, den in values))
            xs = [0] * k
            for v, num, den in values:
                xs[v] = num * (d_x // den)
            self.point = (tuple(xs), d_x)
        return self.point

    def _column(self, c: int) -> list[int]:
        """Entry 1 + c of every row, through _entry."""
        return [self._entry(i, 1 + c) for i in range(len(self.rows))]

    def set_objective(self, var: int) -> None:
        """Minimize the single variable `var`.  A nonbasic one is free, with
        a zero column in every bounded row, so it is unbounded below."""
        if var not in self.basis:
            raise Unbounded("objective unbounded below")
        row = self.row(self.basis.index(var))
        self.z = [row[0]] + [-a for a in row[1:]]

    def _pivot(self, r: int, c: int, col: list[int]) -> None:
        """Swap nonbasic[c] into the basis at row r (_freeze), then remove
        column c from every other row and from the objective row.

        col is _column(c), read before the swap.  Each row with col[i] != 0
        owes the pivot, with col[i] as the multiplier of the pivot row,
        which it holds as it stands (_freeze never changes a row in place).
        A row pays at once only when it would owe as many substitutions as
        it has entries: reading an entry through them would cost about as
        much as rewriting it.  A pairing-matrix row owes at most 3 for every
        n <= 300.  z is rewritten at once.
        """
        self._freeze(r, c)
        prow = self.rows[r]
        for i, f in enumerate(col):
            if f and i != r:
                self.owed[i].append(_pivot_op(prow, c, f))
                if len(self.owed[i]) >= len(prow):
                    self.row(i)
        if self.z[1 + c]:
            self.z = _substitute(self.z, [_pivot_op(prow, c, self.z[1 + c])])

    def _freeze(self, r: int, c: int) -> None:
        """Swap nonbasic[c] into the basis at row r, on an entry of either
        sign, and rewrite no other row.

        Row r is read in full and replaced by a new list, as owed pivots
        may hold the old one.  A negative entry is made positive by negating
        all of row r; the entering variable is then free, so its right-hand
        side may take either sign (`optimize` pivots on positive entries
        only).  A free variable's entry before phase one is a freeze alone
        (_phase_one).
        """
        row = self.row(r)
        prow = [-a for a in row] if row[1 + c] < 0 else row[:]
        prow[0], prow[1 + c] = prow[1 + c], prow[0]
        self.rows[r] = _reduce_ints(prow)
        self.basis[r], self.nonbasic[c] = self.nonbasic[c], self.basis[r]
        self.point = None
        self._count_pivot()

    def _count_pivot(self) -> None:
        self.pivots += 1
        if self.pivots > _PIVOT_LIMIT:
            raise PivotLimitExceeded("simplex pivot limit exceeded")

    def optimize(self) -> None:
        """Bland's rule loop; raises Unbounded if no leaving row exists.

        The artificial variable never enters: phase one pivots it out, and
        phase two keeps it out.  The ratio test compares rhs / entry across
        rows, which no positive scale of a row changes, so it reads both
        through _entry."""
        if any(self.z[1 + c] for c, v in enumerate(self.nonbasic) if v < self.num_free):
            raise Unbounded("objective unbounded below")
        art = self.num_free + len(self.rows) - 1
        while True:
            enter = -1
            for c, v in enumerate(self.nonbasic):
                if (self.z[1 + c] < 0 and v != art
                        and (enter < 0 or v < self.nonbasic[enter])):
                    enter = c
            if enter < 0:
                return
            col = self._column(enter)
            leave = -1
            best_rhs = best_coef = 0
            for i, coef in enumerate(col):
                if coef <= 0 or self.basis[i] < self.num_free:
                    continue
                rhs = self._entry(i, -1)
                if leave < 0 or rhs * best_coef < best_rhs * coef or (
                    rhs * best_coef == best_rhs * coef and self.basis[i] < self.basis[leave]
                ):
                    leave, best_rhs, best_coef = i, rhs, coef
            if leave < 0:
                raise Unbounded("objective unbounded below")
            self._pivot(leave, enter, col)


def _substitute(row: list[int], ops) -> list[int]:
    """`row` after each substitution in `ops`, in order, gcd-reduced.

    A substitution (q, terms) replaces the variable of column c of the row
    by its own row prow, for each (prow, c, g) in terms: column c of `row`
    still holds a variable that is now basic on prow, while column c of prow
    (and of the result) holds the variable that left for it.  The result is
    q * row minus the sum of g * prow, except that entry 0 is q * row[0] and
    each column c drops its q * row[1 + c], the replaced variable's own
    term.  So each variable is replaced once, whatever the others' rows
    hold in its column.  For the result to be the row with the variables
    replaced, g must be row[1 + c] * q / prow[0] (_plan, _pivot_op), with
    row[1 + c] as the earlier substitutions in `ops` leave it before any gcd
    reduction: that is what _Tableau._entry reads.  Only the final row is
    gcd-reduced.  A substitution applied to a positive multiple of a row,
    with its g scaled alike, gives the same multiple of the result, so this
    is the row that reducing after each substitution would give.
    """
    for q, terms in ops:
        prow, c, g = terms[0]
        out = [q * a - g * b for a, b in zip(row, prow)]
        out[1 + c] -= q * row[1 + c]
        for prow, c, g in terms[1:]:
            out = [a - g * b for a, b in zip(out, prow)]
            out[1 + c] -= q * row[1 + c]
        out[0] = q * row[0]
        row = out
    return _reduce_ints(row)


def _plan(row: list[int], pending) -> list[tuple[int, list]]:
    """The substitutions into `row` of the pairs (prow, c) in `pending`: one
    over the lcm q of the basic coefficients prow[0] of the pairs whose
    column c of `row` is nonzero, or none if there are no such pairs."""
    terms = [(prow, c, row[1 + c]) for prow, c in pending if row[1 + c]]
    if not terms:
        return []
    q = lcm(*[prow[0] for prow, _, _ in terms])
    return [(q, [(prow, c, f * (q // prow[0])) for prow, c, f in terms])]


def _pivot_op(prow: list[int], c: int, f: int) -> tuple[int, tuple]:
    """The substitution of the swapped pivot row prow into column c of a row
    whose entry there is f, as _Tableau._entry reads it."""
    return prow[0], ((prow, c, f),)


@dataclass(frozen=True)
class LpResult:
    """Minimum of one coordinate over {x : A.x >= 0, sum(x) = 1}, as
    integer blocks over positive denominators.

    The witness is x = witness / witness_den.  The row multipliers
    mu = row_multipliers / multiplier_den (>= 0, one per constraint row) and
    nu = normalization_multiplier / multiplier_den form an exact optimality
    certificate:

        e_obj == sum_i mu_i * A_i + nu * (1, ..., 1)

    so every feasible x has x_obj >= nu = value.  A block scaled by a
    positive integer, its denominator too, is the same certificate.
    """

    value: Fraction
    witness: tuple[int, ...]
    witness_den: int
    row_multipliers: tuple[int, ...]
    normalization_multiplier: int
    multiplier_den: int


def verify_lp_minimum(cone: ConeH, objective_index: int, result: LpResult) -> bool:
    """Re-check an LpResult from scratch; raises ConeError if anything fails.

    All arithmetic is in plain ints.  With X = witness over D = witness_den
    > 0, the sign and the zero set of A_i . X are those of the slack A_i . x;
    they are summed over the columns of A at the nonzero entries of X.  With
    multiplier numerators over sigma = multiplier_den > 0, the identity
    sum_i mu_i A_i + nu * (1, ..., 1) == e_obj becomes an identity of
    integer vectors with sigma in place of 1, summed over the nonzero
    entries of the rows with a nonzero multiplier.

    Complementary slackness needs no check of its own.  The identity dotted
    with X gives sum_i mu_i s_i = sigma X_obj - nu D (weak duality, with
    s_i = A_i . X), and the two value checks make the right side 0 for
    every input that passes them, so each product of two factors >= 0 is 0.
    """
    k = cone.num_vars
    if not 0 <= objective_index < k:
        raise DimensionMismatch("objective index out of range")
    xs = result.witness
    if len(xs) != k:
        raise DimensionMismatch("witness has wrong dimension")
    d_x = result.witness_den
    if d_x <= 0:
        raise ConeError("witness denominator must be positive")
    slacks = [0] * len(cone.rows)
    for x, col in zip(xs, cone._int_cols):
        if x:
            for i, a in col:
                slacks[i] += a * x
    if min(slacks, default=0) < 0:
        raise ConeError("witness violates a cone constraint")
    if sum(xs) != d_x:
        raise ConeError("witness violates the normalization")
    value = result.value
    if xs[objective_index] * value.denominator != d_x * value.numerator:
        raise ConeError("witness coordinate does not equal the recorded minimum")
    mus = result.row_multipliers
    if len(mus) != len(slacks):
        raise ConeError("one multiplier per constraint row required")
    sigma = result.multiplier_den
    if sigma <= 0:
        raise ConeError("multiplier denominator must be positive")
    if min(mus, default=0) < 0:
        raise ConeError("negative row multiplier")
    nu = result.normalization_multiplier
    lhs = [nu] * k
    lhs[objective_index] -= sigma
    for mu, row in zip(mus, cone._int_rows):
        if mu:
            for j, a in row:
                lhs[j] += mu * a
    if any(lhs):
        raise ConeError("dual multipliers do not reproduce the objective")
    if nu * value.denominator != value.numerator * sigma:
        raise ConeError("dual objective does not match the minimum")
    return True


def _phase_one(cone: ConeH) -> _Tableau:
    """Dictionary of the slice sum(x) = 1 at a feasible basis, its
    artificial variable nonbasic.  Raises Infeasible.

    The start basis is the slacks plus one artificial variable on the
    normalization row.  Each free x_j is then pivoted in once, on the first
    constraint row with a bounded basic variable and a nonzero entry for it:
    that row's right-hand side is 0, so the pivot keeps every right-hand side
    as it is, whatever the sign of the entry.  Only when no such constraint
    row exists is the normalization row used; every bounded row then has a
    zero entry and keeps its right-hand side, and the artificial variable
    leaves the basis.  A free variable with neither stays nonbasic.

    These pivots rewrite no other row when they happen.  A pivot row is
    frozen as it stands when its free variable enters.  A bounded row is
    brought up to date by replaying, in order, the frozen rows it has not
    seen, and only when the search for a pivot row reads its entry: that is
    exactly what the pivots would have done to it, so every pivot row is
    the same.  After the last free pivot, each row still holds the
    x-columns of the variables that entered after its last replay.  The
    frozen rows are finished newest first, so each draws only on finished
    rows, and each replaces each of its x-columns once (_substitute, given
    the finished rows themselves).  Every bounded row owes the same
    substitution, and the one rule of _Tableau holds from there on.  A
    gcd-reduced dictionary row with a positive basic coefficient is
    determined by the basis, so the dictionary is the one that rewriting
    every row at every pivot would give.

    An artificial variable that is basic at the phase-one optimum is never
    at 0, so no degenerate artificial row is left to pivot out.  Every
    constraint row starts with right-hand side 0, and the free pivots keep
    it 0.  A bounded row with a positive entry and right-hand side 0 has
    ratio 0, so each simplex pivot of phase one is either degenerate, and
    keeps every right-hand side, or takes the artificial variable's row.
    So while the artificial variable is basic its value stays 1, and if it
    is basic at the phase-one optimum the slice is empty.  It is minimized
    only while it is basic.
    """
    k = cone.num_vars
    m = len(cone.rows)
    art = k + m
    rows: list[list[int]] = []
    for ints in cone._int_rows:
        r = [1] + [0] * (k + 1)  # s_i - row_i . x = 0
        for j, num in ints:
            r[1 + j] = -num
        rows.append(r)
    rows.append([1] * (k + 2))  # art + sum(x) = 1
    tab = _Tableau(rows, [k + i for i in range(m)] + [art], list(range(k)), k)

    frozen: list[tuple[int, int]] = []  # (row, column) of each free pivot
    level = [0] * len(rows)  # how many frozen rows each row has replayed
    for j in range(k):
        c = tab.nonbasic.index(j)
        # the normalization row is last, so a constraint row comes first
        for i, b in enumerate(tab.basis):
            if b < k:
                continue
            row = tab.rows[i]
            for r, col in frozen[level[i]:]:
                if row[1 + col]:
                    row = _substitute(row, [_pivot_op(tab.rows[r], col, row[1 + col])])
            tab.rows[i] = row
            level[i] = len(frozen)
            if row[1 + c]:
                tab._freeze(i, c)
                frozen.append((i, c))
                level[i] += 1
                break

    # (finished row, column) of each free pivot; frozen row t still holds
    # the x-columns of frozen[t + 1:], whose rows are finished before it
    final: list = [None] * len(frozen)
    for t in reversed(range(len(frozen))):
        r, c = frozen[t]
        tab.rows[r] = _substitute(tab.rows[r], _plan(tab.rows[r], final[t + 1:]))
        final[t] = (tab.rows[r], c)
    for i, b in enumerate(tab.basis):
        if b >= k:
            tab.owed[i] = _plan(tab.rows[i], final[level[i]:])

    if art in tab.basis:
        tab.set_objective(art)
        tab.optimize()
        if art in tab.basis:
            raise Infeasible("cone slice sum(x) = 1 is empty")
    return tab


def lp_min(cone: ConeH, objective_index: int) -> LpResult:
    """Exact minimum of coordinate `objective_index` over the slice sum(x) = 1.

    The feasible set is {x free : cone.rows . x >= 0, sum(x) = 1}.  The free
    coordinates enter the basis once, in phase one, which runs on the first
    call for a cone and on the first call after an error; later calls on the
    same ConeH start phase two from the basis at which the previous call
    returned, which is feasible because the region is shared.  The minimum
    does not depend on the order of the calls, but at a degenerate optimum
    the witness and multipliers may.  The pivot limit applies per call, and
    a row keeps the substitutions it owes (_Tableau) from call to call
    until it is read in full.

    The result is read out of the integer dictionary: the witness is the
    basic point of the optimal basis (_Tableau.basic_point), each
    coordinate's value read through what its row owes, over the lcm of the
    reduced denominators; it is built once per basis, and every result at
    that basis holds the same tuple.  The multipliers come straight from
    the objective row over its scale sigma = z[0].  The only Fraction built
    is the minimum.  The result is re-checked by `verify_lp_minimum` before
    it is returned.
    Raises Infeasible / Unbounded.
    """
    k = cone.num_vars
    if not 0 <= objective_index < k:
        raise DimensionMismatch("objective index out of range")

    # the tableau is off the cone while it pivots: an error leaves none behind
    if cone._warm:
        tab = cone._warm.pop()
        tab.pivots = 0
    else:
        tab = _phase_one(cone)

    tab.set_objective(objective_index)
    tab.optimize()

    xs, d_x = tab.basic_point()
    # reduced costs times sigma of the slacks and of the artificial variable
    m = len(cone.rows)
    z = tab.z
    mus = [0] * m
    nu = 0
    for c, v in enumerate(tab.nonbasic):
        if v >= k and z[1 + c]:
            if v < k + m:
                mus[v - k] = z[1 + c]
            else:
                nu = -z[1 + c]
    result = LpResult(Fraction(xs[objective_index], d_x), xs, d_x, tuple(mus), nu, z[0])
    verify_lp_minimum(cone, objective_index, result)
    cone._warm.append(tab)
    return result


# ---------------------------------------------------------------------------
# orthant-containment certificate
# ---------------------------------------------------------------------------

def _ratio(num: int, den: int) -> str:
    """num / den (den > 0) in lowest terms, printed as str(Fraction) would."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _block(nums: tuple[int, ...], den: int) -> list[str]:
    return [_ratio(a, den) if a else "0" for a in nums]


@dataclass(frozen=True)
class Certificate:
    """Per-coordinate minima over {d : cone.rows . d >= 0, sum(d) = 1}.

    Passing (all minima >= 0) certifies that the dual cone of the constraint
    rows is contained in the nonnegative orthant.  `results` holds one
    LpResult per label of the cone lp_min solved on: its witness attains the
    minimum and its multiplier block proves optimality.  Construction
    re-checks each one on that cone and raises ConeError unless there is
    exactly one result per label.
    """

    cone: ConeH
    results: tuple[LpResult, ...]

    def __post_init__(self):
        if len(self.results) != self.cone.num_vars:
            raise ConeError("one result per label required")
        for j, res in enumerate(self.results):
            verify_lp_minimum(self.cone, j, res)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.cone.labels

    @property
    def minima(self) -> tuple[Fraction, ...]:
        return tuple(res.value for res in self.results)

    @property
    def passed(self) -> bool:
        return all(res.value >= 0 for res in self.results)

    def as_dict(self) -> dict:
        # every certificate has a witness per coordinate, so its slice is
        # nonempty: an empty one raises Infeasible and builds no certificate
        results = self.results
        constraints = []
        for ints in self.cone._int_rows:
            row = ["0"] * self.cone.num_vars
            for j, a in ints:
                row[j] = str(a)
            constraints.append(row)
        # results at one basis share a witness: each distinct one is
        # formatted once, and every result gets its own copy of the list
        witnesses = {key: _block(*key)
                     for key in {(res.witness, res.witness_den) for res in results}}
        return {
            "variables": list(self.labels),
            "constraints": constraints,
            "normalization": "sum = 1",
            "minima": {lab: str(mn) for lab, mn in zip(self.labels, self.minima)},
            "witnesses": [witnesses[res.witness, res.witness_den][:] for res in results],
            "row_multipliers": [_block(res.row_multipliers, res.multiplier_den)
                                for res in results],
            "normalization_multipliers": [
                _ratio(res.normalization_multiplier, res.multiplier_den)
                for res in results],
            "feasible": True,
            "pass": self.passed,
        }


def dual_contained_in_orthant(matrix, labels) -> Certificate:
    """Certify that {d : matrix . d >= 0} lies inside the orthant {d >= 0}.

    `matrix` has int entries and one column per label.  Minimizes every
    coordinate over the slice sum(d) = 1 and records exact minima,
    witnesses and dual multipliers.
    Raises Infeasible when the slice is empty (reported, never silently counted as a pass)
    and Unbounded when some coordinate has no finite minimum there, which is
    a containment failure with no finite witness.  A zero matrix, which
    certifies nothing, raises ConeError.
    """
    cone = ConeH(matrix, labels)
    if not any(cone._int_rows):
        raise ConeError("constraint matrix is zero")
    results = tuple(lp_min(cone, j) for j in range(cone.num_vars))
    cone._warm.clear()  # the certificate keeps the cone, not the solver's tableau
    return Certificate(cone, results)


# ---------------------------------------------------------------------------
# effectivity threshold along a ray
# ---------------------------------------------------------------------------

def kodaira_energy(base, direction) -> Fraction:
    """inf{a : base + a * direction >= 0 componentwise}, exactly.

    The cone is the nonnegative orthant in the coordinates supplied, and
    the direction must lie in its interior (L big): every entry > 0, else
    ConeError.  Each coordinate then bounds a from below by -base/direction,
    and the threshold is the largest of these bounds, max -b/d.

    Each bound p/q is kept as the pair (p, q) with q > 0 and compared by
    cross-multiplying, so integer inputs stay in ints; the one Fraction built
    is the answer.
    """
    b = tuple(map(_exact, base))
    d = tuple(map(_exact, direction))
    if len(b) != len(d):
        raise DimensionMismatch("base and direction have different lengths")
    if not d or min(d) <= 0:
        raise ConeError("the direction needs every entry > 0 (L big)")
    p, q = -b[0], d[0]
    for bj, dj in zip(b, d):
        if -bj * q > p * dj:
            p, q = -bj, dj
    return Fraction(p, q)
