"""Counting unimodular-orbit forms of bounded height and fitting the growth.

`enumerate_unimodular` walks every determinant-1 integer matrix in a box:
for each coprime top row (a, b) the bottom rows form the integer family
(c, d) = (c0 + t*a, d0 + t*b) through one extended-gcd base solution,
clipped to the box.

Orbit counting enumerates growing shells of matrices and stops once a
configured number of consecutive shell growths contributes no new form
under the height bound.  The matrices come from one exact descent over the
Farey (Stern-Brocot) tree in integer arithmetic (see the Farey-tree
section): each child node costs one additions-only Taylor shift, a subtree
on which f keeps one sign and is already too large is dropped for good, and
a subtree beyond the current shell waits on a frontier for the next one.
So every qualifying matrix of a shell box is found, while the walk only
follows the root directions of the form and the regions where it is small.
The distinct images are kept in one map from image to height, so the
heights are never recomputed.  The stopping rule is a documented heuristic,
not a proof of completeness: the orbit intersected with a height box is
finite, so the search terminates, but a form first reached beyond the
stabilized shells would be missed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import neg

from .forms import (BinaryForm, UnimodularMatrix, disc, substitute,
                    taylor_shift)


class NonGenericForm(ValueError):
    """Orbit counting requires a nonzero discriminant."""


class InsufficientData(ValueError):
    """Exponent fits need at least 3 nonzero counts."""


@dataclass(frozen=True)
class CountPolicy:
    """Shell schedule: start at `initial_shell`, multiply by `growth`, stop
    after `stable_rounds` consecutive shells add no new qualifying form."""

    initial_shell: int = 8
    growth: Fraction = Fraction(2)
    stable_rounds: int = 2

    def __post_init__(self):
        object.__setattr__(self, "growth", Fraction(self.growth))
        if self.initial_shell < 1 or self.stable_rounds < 1 or self.growth <= 1:
            raise ValueError("policy fields must be positive (growth > 1)")

    def next_shell(self, t: int) -> int:
        return max(t + 1, math.floor(t * self.growth))


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
    """Integer t with |base + t*step| <= bound; None marks an empty range and
    (-inf, +inf) is encoded by step == 0 checks in the caller."""
    if step == 0:
        return None  # caller treats separately
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


def _enumerate_entries(bound: int):
    """Entry tuples (a, b, c, d) of every determinant-1 matrix in the box."""
    if bound <= 0:
        return
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if math.gcd(a, b) != 1:
                continue
            for c, d in _entries_for_top_row(a, b, bound):
                yield a, b, c, d


def enumerate_unimodular(bound: int):
    """Yield every determinant-1 integer matrix with entries in [-T, T]
    exactly once (T = bound)."""
    for a, b, c, d in _enumerate_entries(bound):
        yield UnimodularMatrix(a, b, c, d)


# ---------------------------------------------------------------------------
# Farey-tree orbit search
#
# A node is an interval (p/q, r/s) of the Stern-Brocot tree, with
# p*s - r*q = -1, and carries F(m, n) = f(p m + r n, q m + s n): f seen
# through the matrix with columns u = (p, q) and v = (r, s).  The children
# (p/q, mediant) and (mediant, r/s) carry F(m + n, n) and F(m, m + n): one
# Taylor shift by 1 (forms.taylor_shift, k(k+1)/2 additions and no
# multiplication in degree k) of F and of its reversal.  The walk starts
# from two roots, (0/1, 1/0) and (-1/0, 0/1); every pair of Farey
# neighbours, and so every determinant-1 matrix up to sign, is then reached
# as a node: [v u] with image F(w, z) and [u -v] with image F(z, -w), both of
# height max |F|, read off min(F) and max(F) with the one-sign test below.
#
# Prune: every fraction strictly inside a node is m u + n v with m, n >= 1,
# where f takes the value F(m, n).  When the nonzero coefficients of F share
# one sign, |F(m, n)| >= |F(1, 1)|, so once |F(1, 1)| > B no node below has
# an image of height <= B and the subtree is dropped (by Descartes' rule of
# signs, a subtree around a root of f keeps a sign change in F).
#
# Frontier: every node below has an entry at least as large as the mediant
# u + v, so a node whose mediant leaves the shell box waits on the frontier,
# and the next shell resumes from there.
# ---------------------------------------------------------------------------

class _FareyWalk:
    """After `grow(shell)` (called with increasing shells), `seen` maps
    each image of f of height <= b_max under every determinant-1 matrix
    with entries up to `shell` to its height.  A child node's F is one
    additions-only Taylor shift of its parent's.

    A node stands for the matrices [v u] and [u -v] and their negatives,
    which give the same two images up to the global sign (-1)^n, so for odd
    degree both signs are recorded.
    """

    __slots__ = ("b_max", "odd", "odd_index", "seen", "frontier")

    def __init__(self, xs: tuple[int, ...], b_max: int):
        self.b_max = b_max
        self.odd = len(xs) % 2 == 0
        self.odd_index = range(1, len(xs), 2)  # negated in F(z, -w)
        self.seen: dict[tuple[int, ...], int] = {}
        self.frontier: list[tuple] = []
        self._enter(substitute(xs, 0, 1, 1, 0), 0, 1, 1, 0, self.frontier)
        self._enter(substitute(xs, -1, 0, 0, 1), -1, 0, 0, 1, self.frontier)

    def _enter(self, F, p, q, r, s, nodes):
        """Record the two images of a new node; keep it unless pruned."""
        b_max = self.b_max
        lo, hi = min(F), max(F)
        height = hi if hi >= -lo else -lo
        if height <= b_max:
            seen = self.seen
            flipped = F[::-1]
            alternating = list(F)
            for i in self.odd_index:
                alternating[i] = -alternating[i]
            alternating = tuple(alternating)
            seen[flipped] = seen[alternating] = height
            if self.odd:
                seen[tuple(map(neg, flipped))] = height
                seen[tuple(map(neg, alternating))] = height
        if (lo >= 0 or hi <= 0) and abs(sum(F)) > b_max:
            return
        nodes.append((F, p, q, r, s))

    def grow(self, shell: int) -> None:
        """Visit every node whose matrices lie in the box of entries up to
        `shell`; the second entries q, s are never negative."""
        stack, self.frontier = self.frontier, []
        while stack:
            node = stack.pop()
            F, p, q, r, s = node
            mp, mq = p + r, q + s
            if abs(mp) > shell or mq > shell:
                self.frontier.append(node)
                continue
            self._enter(taylor_shift(F), p, q, mp, mq, stack)
            self._enter(taylor_shift(F[::-1])[::-1], mp, mq, r, s, stack)


def _orbit_heights(f: BinaryForm, b_max: int, policy: CountPolicy) -> list[int]:
    """Sorted heights of the distinct orbit vectors with height <= b_max.

    Requires a form without repeated roots: a zero discriminant raises
    NonGenericForm.  Shells grow per the policy, and each round adds the
    images of the shell box beyond the previous box.
    """
    if disc(f) == 0:
        raise NonGenericForm("orbit counting requires a nonzero discriminant")
    walk = _FareyWalk(f.coeffs, b_max)
    shell = policy.initial_shell
    before = quiet = 0
    while True:
        walk.grow(shell)
        quiet = quiet + 1 if len(walk.seen) == before else 0
        if quiet >= policy.stable_rounds:
            break
        before = len(walk.seen)
        shell = policy.next_shell(shell)
    return sorted(walk.seen.values())


def count_series(f: BinaryForm, b_grid,
                 policy: CountPolicy | None = None) -> CountSeries:
    """Counts N(B) of distinct orbit coefficient vectors with height <= B,
    for every B in the increasing grid, from one shared enumeration pass."""
    policy = policy or CountPolicy()
    grid = [int(b) for b in b_grid]
    if not grid or any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("grid must be nonempty and strictly increasing")
    heights = _orbit_heights(f, grid[-1], policy)
    return CountSeries(tuple((b, bisect_right(heights, b)) for b in grid))


def count_orbit(f: BinaryForm, b: int, policy: CountPolicy | None = None) -> int:
    """Number of distinct forms in the orbit of f with height <= b."""
    return count_series(f, [b], policy).points[0][1]


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
