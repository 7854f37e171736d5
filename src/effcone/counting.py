"""Counting unimodular-orbit forms of bounded height and fitting the growth.

`enumerate_unimodular` walks every determinant-1 integer matrix in a box:
for each coprime top row (a, b) the bottom rows form the integer family
(c, d) = (c0 + t*a, d0 + t*b) through one extended-gcd base solution,
clipped to the box.

Orbit counting enumerates growing shells of matrices and stops once a
configured number of consecutive shell growths contributes no new form
under the height bound.  Away from the root directions of the form the
image heights grow like the n-th power of the matrix norm, but rational
approximations to the roots produce a thin tail of qualifying matrices of
much larger norm, so the shell search walks short windows around the root
directions (see the root-window section) instead of whole boxes.  The
stopping rule is a documented heuristic, not a proof of completeness: the
orbit intersected with a height box is finite, so the search terminates,
but a form first reached beyond the stabilized shells would be missed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .forms import BinaryForm, UnimodularMatrix, disc, evaluate, substitute


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
# root windows
#
# A matrix (a b; c d) can only produce a form of height <= B if both outer
# image coefficients are small: f(a, c) (the z^n coefficient) and f(b, d)
# (the w^n coefficient).  Write f(x, y) = x_m * prod_j (x - theta_j y) * y^k
# over the finite roots theta_j of f(t, 1) and the multiplicity k of the root
# at infinity.  Then f(a, c) = x_m * c^k * prod_j (a - theta_j c), so at least
# one factor must be below (B / |x_m * c^k|)^(1/deg), and qualifying first
# columns live in short integer windows around the root directions.
#
# Partner columns come from the det-1 family (b, d) = (b0 + t*a, d0 + t*c).
# q(t) = f(a t + b0, c t + d0) = x_m * prod_j ((a - theta_j c) t +
# (b0 - theta_j d0)) * (c t + d0)^k is f seen through a unimodular matrix, so
# its roots are Moebius images of the roots of f.  With a*d0 - b0*c = 1:
#   c != 0:  t_j = -d0/c + 1/(c (a - theta_j c)), plus -d0/c k times;
#   c == 0:  t_j = (theta_j d0 - b0)/a, which is theta_j for the column (1, 0).
# The roots of f are therefore solved once per form, not once per column.
# When f(a, c) = 0 the column direction a/c is itself a root of f and q loses
# one degree, which its exact integer coefficients show: the theta_j that
# minimizes |a - theta_j c| is dropped.  q has degree >= 1 when f has no
# repeated root, so there is always a root to window around.  Floating-point
# roots only steer the search: windows are padded and every candidate is
# checked in exact integer arithmetic, while the product bound itself
# guarantees no qualifying matrix lies outside the windows.
# ---------------------------------------------------------------------------

_WINDOW_PAD = 4.0


def _poly_roots(coeffs: list[int]) -> list[complex]:
    """All complex roots of an integer polynomial of degree at least one
    (leading coefficient first, nonzero), by Durand-Kerner iteration in
    float precision."""
    deg = len(coeffs) - 1
    lead = coeffs[0]
    monic = [x / lead for x in coeffs]
    if deg == 1:
        return [complex(-monic[1])]
    radius = 2 * max(abs(x) ** (1.0 / (i + 1)) for i, x in enumerate(monic[1:]))
    radius = max(radius, 1.0)
    seed = 0.4 + 0.9j
    zs = [radius * seed ** (k + 1) for k in range(deg)]
    for _ in range(300):
        moved = 0.0
        for k in range(deg):
            num = 1.0 + 0j
            val = 0j
            for x in monic:
                val = val * zs[k] + x
            for j in range(deg):
                if j != k:
                    num *= zs[k] - zs[j]
            if num == 0:
                zs[k] += 1e-8 * (1 + abs(zs[k]))
                continue
            step = val / num
            zs[k] -= step
            moved = max(moved, abs(step))
        if moved < 1e-12 * (1.0 + max(abs(z) for z in zs)):
            break
    return zs


def _product_windows(centers: list[complex], lead_abs: float,
                     bound: float) -> list[tuple[int, int]]:
    """Merged integer intervals that must contain every integer u with
    lead_abs * prod_j |u - centers[j]| <= bound.

    `centers` is nonempty: callers pass the roots of a polynomial of degree
    at least one.
    """
    deg = len(centers)
    radius = (bound / lead_abs) ** (1.0 / deg)
    spans = []
    for j, z in enumerate(centers):
        if abs(z.imag) > radius + _WINDOW_PAD:
            continue
        others = 1.0
        for k, zk in enumerate(centers):
            if k != j:
                others *= max(abs(z - zk) - radius, abs(zk.imag), 0.0)
        width = radius if others <= 0 else min(radius, bound / (lead_abs * others))
        width += _WINDOW_PAD + 1e-6 * (1.0 + abs(z))
        spans.append((math.ceil(z.real - width), math.floor(z.real + width)))
    spans.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _finite_roots(xs: tuple[int, ...]) -> tuple[list[complex], int, int]:
    """(roots, lead_abs, inf_mult): the finite roots theta_j of f(t, 1), the
    absolute value of its leading coefficient x_m, and the multiplicity of
    the root of f at infinity (the number of leading zero coefficients)."""
    inf_mult = 0
    while inf_mult < len(xs) and xs[inf_mult] == 0:
        inf_mult += 1
    stripped = list(xs[inf_mult:])
    if len(stripped) <= 1:
        raise ValueError("form has no finite root directions")
    return _poly_roots(stripped), abs(stripped[0]), inf_mult


def _partner_parameters(xs: tuple[int, ...], a: int, c: int, b0: int, d0: int,
                        b_max: int, roots: list[complex],
                        inf_mult: int) -> list[int]:
    """Sorted complete list of the integer t that can make
    |f(b0 + t*a, d0 + t*c)| <= b_max, given the finite roots of f and the
    multiplicity of its root at infinity (see `_finite_roots`).

    q(t) = f(a*t + b0, c*t + d0) is the substitution with w = 1, leading
    coefficient first; its roots are the Moebius images of the roots of f
    described in the root-window section.  Its degree drops below that of f
    by the multiplicity of (a : c) as a root of f, so q is constant only for
    a form with a repeated root, which raises NonGenericForm.
    """
    coeffs = list(substitute(xs, a, b0, c, d0))
    while coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) == 1:
        raise NonGenericForm("orbit counting requires a nonzero discriminant")
    if c == 0:
        centers = [(z * d0 - b0) / a for z in roots]
    else:
        factors = [a - z * c for z in roots]
        if len(coeffs) < len(xs):  # f(a, c) = 0: a/c is a root of f
            factors.remove(min(factors, key=abs))
        pole = -d0 / c
        centers = [pole + 1 / (c * u) for u in factors] + [pole] * inf_mult
    out: list[int] = []
    for lo, hi in _product_windows(centers, abs(coeffs[0]), float(b_max)):
        out.extend(range(lo, hi + 1))
    return out


def _qualifying_columns(xs: tuple[int, ...], c_lo: int, c_hi: int, b_max: int,
                        finite_roots: list[complex], lead_abs: int,
                        inf_mult: int):
    """Coprime columns (a, c) with c in [c_lo, c_hi] and |f(a, c)| <= b_max.

    c = 0 contributes the single half-box column (1, 0) when it qualifies.
    """
    if c_lo <= 0 <= c_hi and abs(xs[0]) <= b_max:
        yield 1, 0
    for c in range(max(c_lo, 1), c_hi + 1):
        centers = [z * c for z in finite_roots]
        windows = _product_windows(centers, float(lead_abs * c ** inf_mult),
                                   float(b_max))
        for lo, hi in windows:
            for a in range(lo, hi + 1):
                if math.gcd(a, c) == 1 and abs(evaluate(xs, a, c)) <= b_max:
                    yield a, c


def _substituted_coeffs(xs: tuple[int, ...], a: int, b: int, c: int, d: int,
                        b_max: int) -> tuple[int, ...] | None:
    """Coefficients of f(a z + b w, c z + d w), or None once the height bound
    is exceeded.

    The outer coefficients of the image are f(a, c) and f(b, d), so those two
    evaluations reject most large matrices before the full expansion runs.
    """
    if abs(evaluate(xs, a, c)) > b_max or abs(evaluate(xs, b, d)) > b_max:
        return None
    h = substitute(xs, a, b, c, d)
    if max(abs(v) for v in h) > b_max:
        return None
    return h


class _Column:
    """A qualifying first column (a, c) with its det-1 partner family
    (b, d) = (b0 + t*a, d0 + t*c) and the candidate t values.

    `roots` and `inf_mult` describe the root directions of f (see
    `_finite_roots`); the partner windows are their Moebius images, so no
    root is solved per column.
    """

    __slots__ = ("a", "c", "b0", "d0", "params")

    def __init__(self, xs: tuple[int, ...], a: int, c: int, b_max: int,
                 roots: list[complex], inf_mult: int):
        g, x, y = _egcd(a, c)
        assert g == 1
        self.a = a
        self.c = c
        self.d0 = x
        self.b0 = -y  # a*d0 - c*b0 = 1
        self.params = _partner_parameters(xs, a, c, self.b0, self.d0, b_max,
                                          roots, inf_mult)

    def matrices_in_shell(self, shell: int, prev: int):
        """Matrix entries inside the shell box but not the previous box."""
        a, c, b0, d0 = self.a, self.c, self.b0, self.d0
        if max(abs(a), c) > shell:
            return
        inner = max(abs(a), c) <= prev
        for t in self.params:
            b = b0 + t * a
            d = d0 + t * c
            if abs(b) > shell or abs(d) > shell:
                continue
            if inner and abs(b) <= prev and abs(d) <= prev:
                continue  # inner box already processed
            yield a, b, c, d


def _orbit_heights(f: BinaryForm, b_max: int, policy: CountPolicy) -> list[int]:
    """Sorted heights of the distinct orbit vectors with height <= b_max.

    Requires a form without repeated roots (nonzero discriminant); a
    repeated root reached through a partner family raises NonGenericForm.
    Shells grow per the policy; each round adds the matrices of the shell
    box beyond the previous box, taken from the cached qualifying-column
    families (only the half-box with c > 0 or (a, c) = (1, 0) is walked:
    the mate -m gives the same image up to a global sign, and both signs
    are recorded per matrix).
    """
    xs = f.coeffs
    roots, lead_abs, inf_mult = _finite_roots(xs)
    odd = f.degree % 2 == 1
    columns: list[_Column] = []
    seen: set[tuple[int, ...]] = set()
    scanned_c = -1
    prev = 0
    shell = policy.initial_shell
    quiet = 0
    while True:
        for a, c in _qualifying_columns(xs, scanned_c + 1, shell, b_max,
                                        roots, lead_abs, inf_mult):
            columns.append(_Column(xs, a, c, b_max, roots, inf_mult))
        scanned_c = shell
        before = len(seen)
        for col in columns:
            for a, b, c, d in col.matrices_in_shell(shell, prev):
                coeffs = _substituted_coeffs(xs, a, b, c, d, b_max)
                if coeffs is not None:
                    seen.add(coeffs)
                    if odd:
                        seen.add(tuple(-v for v in coeffs))
        quiet = quiet + 1 if len(seen) == before else 0
        if quiet >= policy.stable_rounds:
            break
        prev = shell
        shell = policy.next_shell(shell)
    return sorted(max(abs(v) for v in coeffs) for coeffs in seen)


def count_series(f: BinaryForm, b_grid,
                 policy: CountPolicy | None = None) -> CountSeries:
    """Counts N(B) of distinct orbit coefficient vectors with height <= B,
    for every B in the increasing grid, from one shared enumeration pass."""
    policy = policy or CountPolicy()
    grid = [int(b) for b in b_grid]
    if not grid or any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("grid must be nonempty and strictly increasing")
    if disc(f) == 0:
        raise NonGenericForm("orbit counting requires a nonzero discriminant")
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
