"""Counting unimodular-orbit forms of bounded height and fitting the growth.

`enumerate_unimodular` walks every determinant-1 integer matrix in a box:
for each coprime top row (a, b) the bottom rows form the integer family
(c, d) = (c0 + t*a, d0 + t*b) through one extended-gcd base solution,
clipped to the box.

Orbit counts are exact.  For a form f of degree n >= 3 with nonzero
discriminant, `entry_bound(f, B)` is an integer T such that every
determinant-1 matrix g with height(f o g) <= B has all entries in [-T, T];
its docstring states and proves the lemma.  One exact descent over the
Farey (Stern-Brocot) tree in integer arithmetic then visits every matrix of
that box (see the Farey-tree section).  Each recorded node stands for one
pair of matrices +-[v u] and one pair +-[u -v], and every matrix of the box
belongs to exactly one recorded node; the second root stands for +-S and
+-I again, so it is walked but not recorded.  Each child node costs one
additions-only Taylor shift, and a subtree is dropped for good when f keeps
one sign on it and is already too large, or when it leaves the box, so the
walk only follows the root directions of the form and the regions where it
is small.  No image is stored: every image is hit by exactly |Stab_f|
matrices of the box, so N(B) = 4 M(B) / |Stab_f| for the number M(B) of
recorded nodes of height <= B, counted per grid point as the walk goes,
and |Stab_f| is read off the walk.  Memory is the walk's stack and the
grid.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import neg

from .forms import (BinaryForm, UnimodularMatrix, adjugate_solve, disc,
                    substitute, sylvester_matrix, taylor_shift)


class NonGenericForm(ValueError):
    """Orbit counting requires a nonzero discriminant."""


class CountingError(ArithmeticError):
    """The walk's matrix counts are not whole orbits of one stabilizer."""


class InsufficientData(ValueError):
    """Exponent fits need at least 3 nonzero counts."""


@dataclass(frozen=True)
class CountSeries:
    """(B, N) pairs with B strictly increasing and N nondecreasing."""

    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pts = tuple((int(b), int(n)) for b, n in self.points)
        for (b1, n1), (b2, n2) in zip(pts, pts[1:]):
            if b2 <= b1 or n2 < n1:
                raise ValueError("series must be increasing in B, nondecreasing in N")
        object.__setattr__(self, "points", pts)

    def to_csv(self) -> str:
        return "B,N\n" + "\n".join(f"{b},{n}" for b, n in self.points) + "\n"

    @staticmethod
    def from_csv(text: str) -> "CountSeries":
        points = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.lower().startswith("b"):
                continue
            b, n = line.split(",")
            points.append((int(b), int(n)))
        return CountSeries(tuple(points))


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of log N against log B (floating point, stated so)."""

    slope: float
    intercept: float
    residual_norm: float
    points_used: int


# ---------------------------------------------------------------------------
# unimodular enumeration
# ---------------------------------------------------------------------------

def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _t_interval(base: int, step: int, bound: int) -> tuple[int, int] | None:
    """Integer t with |base + t*step| <= bound, for step != 0; None marks an
    empty range."""
    lo_num, hi_num = -bound - base, bound - base
    if step < 0:
        lo_num, hi_num, step = -hi_num, -lo_num, -step
    lo = -((-lo_num) // step)  # ceil
    hi = hi_num // step        # floor
    if lo > hi:
        return None
    return lo, hi


def _entries_for_top_row(a: int, b: int, bound: int):
    """All (c, d) with a*d - b*c = 1 and |c|, |d| <= bound."""
    g, x, y = _egcd(a, b)
    d0, c0 = x, -y  # a*d0 - b*c0 = 1
    if a == 0:
        if abs(c0) > bound:
            return
        rng = _t_interval(d0, b, bound)
    elif b == 0:
        if abs(d0) > bound:
            return
        rng = _t_interval(c0, a, bound)
    else:
        ra = _t_interval(c0, a, bound)
        rb = _t_interval(d0, b, bound)
        rng = None if ra is None or rb is None else (max(ra[0], rb[0]),
                                                    min(ra[1], rb[1]))
    if rng is None or rng[0] > rng[1]:
        return
    for t in range(rng[0], rng[1] + 1):
        yield c0 + t * a, d0 + t * b


def enumerate_unimodular(bound: int):
    """Yield every determinant-1 integer matrix with entries in [-T, T]
    exactly once (T = bound)."""
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if math.gcd(a, b) == 1:
                for c, d in _entries_for_top_row(a, b, bound):
                    yield UnimodularMatrix(a, b, c, d)


# ---------------------------------------------------------------------------
# entry bound
# ---------------------------------------------------------------------------

def entry_bound(f: BinaryForm, b: int) -> int:
    """Largest integer T with |R| * T^(n-2) <= (n+1) * L * b, for R and L
    below: every determinant-1 matrix g with height(f o g) <= b has all
    entries in [-T, T].

    f needs degree n >= 3 (ValueError otherwise) and a nonzero discriminant
    (NonGenericForm otherwise).

    Lemma.  Let g have columns u, v, let T be its largest absolute entry
    and H = height(f o g).  Then |R| * T^(n-2) <= (n+1) * L * H.

    1. The z^n and z^(n-1) w coefficients of f o g are x0 = f(u) and
       x1 = grad f(u) . v, and Euler's identity gives grad f(u) . u =
       n f(u).  This 2x2 system has matrix g^T of determinant 1, so its
       solution grad f(u) = (f_z(u), f_w(u)) is bounded entrywise by
       T (n |x0| + |x1|) <= (n+1) T H.  The w^n and z w^(n-1)
       coefficients f(v) and grad f(v) . u bound grad f(v) the same way.
    2. R = Res(f_z, f_w) is the determinant of the Sylvester matrix S of
       the two partial derivatives at formal degree n-1; it is nonzero
       exactly when disc f is (|R| = n^(n-2) |disc f|).  The first row of
       adj S, the signed (2n-3)-minors of S along its first column, holds
       the coefficients of forms A, B of degree n-2 with
       A f_z + B f_w = R z^(2n-3); the minors along its last column give
       such a pair for R w^(2n-3).
    3. L is the larger of the two l1 norms of those (A, B) coefficient
       vectors.  For a column (a, c) with t = max(|a|, |c|), the identity
       whose right side carries the larger coordinate gives
       |R| t^(2n-3) <= L t^(n-2) max(|f_z|, |f_w|) at (a, c).  On the
       column holding T, step 1 turns this into |R| T^(n-1) <= L (n+1) T H.

    For n >= 3 the left side grows with T, so H <= b bounds T.
    """
    n = f.degree
    if n < 3:
        raise ValueError(f"orbit counting needs degree n >= 3 (got {n})")
    if disc(f) == 0:
        raise NonGenericForm("orbit counting requires a nonzero discriminant")
    r, l1 = _gradient_identities(f.coeffs)
    top = (n + 1) * l1 * b // r
    # the largest T with T^(n-2) <= top, bisecting lo^(n-2) <= top < hi^(n-2)
    lo, hi = 0, 1 << -(-top.bit_length() // (n - 2))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** (n - 2) <= top:
            lo = mid
        else:
            hi = mid
    return lo


def _gradient_identities(xs: tuple[int, ...]) -> tuple[int, int]:
    """(|R|, L) of entry_bound's lemma for the form with coefficients xs.

    The first and last rows of adj S are adj(S^T) e_0 and adj(S^T) e_last,
    so one fraction-free solve with two right-hand sides gives both pairs
    (A, B) at once, in O(n^3), and det S = R with them.
    """
    n = len(xs) - 1
    s = sylvester_matrix([(n - i) * xs[i] for i in range(n)],
                         [i * xs[i] for i in range(1, n + 1)])
    size = len(s)
    unit = [[0] * size for _ in range(2)]
    unit[0][0] = unit[1][-1] = 1
    r, rows = adjugate_solve([list(col) for col in zip(*s)], unit)
    return abs(r), max(sum(map(abs, row)) for row in rows)


# ---------------------------------------------------------------------------
# Farey-tree orbit search
#
# A node is an interval (p/q, r/s) of the Stern-Brocot tree, with
# p*s - r*q = -1, and carries F(m, n) = f(p m + r n, q m + s n): f seen
# through the matrix with columns u = (p, q) and v = (r, s).  The children
# (p/q, mediant) and (mediant, r/s) carry F(m + n, n) and F(m, m + n): one
# Taylor shift by 1 (forms.taylor_shift, k(k+1)/2 additions and no
# multiplication in degree k) of F and of its reversal.
#
# A node stands for the four determinant-1 matrices +-[v u] and +-[u -v],
# with the images +-F(w, z) and +-F(z, -w) (the sign is (-1)^n), all of
# height max |F|, read off min(F) and max(F) with the one-sign test below.
# The walk starts from the root (0/1, 1/0), which stands for +-I and +-S
# with S = [0 -1; 1 0], and from the two children of the root
# (-1/0, 0/1): that root stands for +-S and +-I again, so it is walked but
# not recorded.  Every determinant-1 matrix is then one of the four of
# exactly one recorded node.
#
# Prune: every fraction strictly inside a node is m u + n v with m, n >= 1,
# where f takes the value F(m, n).  When the nonzero coefficients of F share
# one sign, |F(m, n)| >= |F(1, 1)|, so once |F(1, 1)| > B no node below has
# an image of height <= B and the subtree is dropped (by Descartes' rule of
# signs, a subtree around a root of f keeps a sign change in F).
#
# Box: every node below has an entry at least as large as the mediant
# u + v, so a node whose mediant leaves the box has no descendant in it and
# is dropped as well.
#
# Count: no image is stored.  The image f o g is hit by exactly the
# matrices h g with h in the stabilizer Stab_f of f in SL2(Z).  They share
# its height, so all of them lie in the box.  For degree n >= 3 and a
# nonzero discriminant, Stab_f is a finite cyclic group: of order 1 or 3
# when n is odd (-I sends f to -f), and of order 2, 4 or 6 when n is even
# (it contains -I).  So N(B) = 4 M(B) / |Stab_f|, where M(B) is the number
# of recorded nodes of height <= B, and |Stab_f| is the number of walked
# matrices whose image is the first image recorded.
# ---------------------------------------------------------------------------

def _farey_walk(xs: tuple[int, ...], b_max: int, box: int):
    """Yield (height, node) for every recorded node of height <= b_max,
    node = (F, p, q, r, s), in the box of entries [-box, box] (box >= 1).
    A child node's F is one additions-only Taylor shift of its parent's."""
    root = substitute(xs, -1, 0, 0, 1)
    entered = ((substitute(xs, 0, 1, 1, 0), 0, 1, 1, 0),
               (taylor_shift(root), -1, 0, -1, 1),
               (taylor_shift(root[::-1])[::-1], -1, 1, 0, 1))
    stack: list[tuple] = []
    push = stack.append
    while True:
        for node in entered:  # record each new node; keep it unless pruned
            F = node[0]
            lo, hi = min(F), max(F)
            height = hi if hi >= -lo else -lo
            if height <= b_max:
                yield height, node
            if lo < 0 < hi or abs(sum(F)) <= b_max:
                push(node)
        if not stack:
            return
        F, p, q, r, s = stack.pop()  # q and s are never negative
        mp, mq = p + r, q + s
        entered = () if abs(mp) > box or mq > box else (
            (taylor_shift(F), p, q, mp, mq),
            (taylor_shift(F[::-1])[::-1], mp, mq, r, s))


def count_series(f: BinaryForm, b_grid) -> CountSeries:
    """Counts N(B) of distinct orbit coefficient vectors with height <= B,
    for every B in the increasing grid, from one walk over the box of
    entry_bound(f, max B).  Memory is the walk's stack and the grid.

    Raises CountingError when the matrix counts are not whole multiples of
    a stabilizer order (see the Farey-tree section), which exact arithmetic
    rules out.
    """
    grid = [int(b) for b in b_grid]
    if not grid or any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("grid must be nonempty and strictly increasing")
    box = entry_bound(f, grid[-1])
    odd = f.degree % 2
    nodes = [0] * len(grid)  # recorded nodes per grid bucket
    hits = first_height = 0
    refs: tuple = ()  # one entry per matrix of a node with the first image
    for height, node in _farey_walk(f.coeffs, grid[-1], box):
        nodes[bisect_left(grid, height)] += 1
        if height == first_height:
            hits += refs.count(node[0])
        elif not refs:
            # the first image is F(w, z); a node form G has it as G(w, z)
            # for G = F, as G(z, -w) for G = alt, and as (-1)^n times
            # either for G = (-1)^n F or (-1)^n alt
            F = node[0]
            alt = tuple(-x if i % 2 else x for i, x in enumerate(F[::-1]))
            refs = (F, alt) + ((tuple(map(neg, F)), tuple(map(neg, alt)))
                               if odd else (F, alt))
            first_height, hits = height, refs.count(F)
    if not refs:
        return CountSeries(tuple((b, 0) for b in grid))
    matrices = list(accumulate(4 * k for k in nodes))
    if (hits not in ((1, 3) if odd else (2, 4, 6))
            or any(m % hits for m in matrices)):
        raise CountingError(f"{hits} walked matrices hit one image, which is "
                            f"no stabilizer order dividing {matrices}")
    return CountSeries(tuple((b, m // hits) for b, m in zip(grid, matrices)))


# ---------------------------------------------------------------------------
# exponent fit
# ---------------------------------------------------------------------------

def fit_exponent(series: CountSeries) -> FitResult:
    """Ordinary least squares on (log B, log N), entries with N >= 1 only."""
    pts = [(math.log(b), math.log(n)) for b, n in series.points if n >= 1]
    if len(pts) < 3:
        raise InsufficientData("need at least 3 entries with N >= 1")
    k = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    denom = k * sxx - sx * sx
    slope = (k * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / k
    sse = sum((y - slope * x - intercept) ** 2 for x, y in pts)
    return FitResult(slope, intercept, math.sqrt(sse), k)
