"""Divisor classes on the generic fiber of the forgetful tower.

The fiber over a configuration of n distinct points is the triple product
of lines blown up along the small diagonal (exceptional divisor E) and then
along n-3 disjoint sections of E, giving the exceptional divisors
F_4, ..., F_n.  Its Picard group has the basis (g1, g2, g3, E, F4, ..., Fn)
of rank n+1, with the sums over empty index ranges understood as zero so
that n = 3 follows the same code path.

The symmetric subgroup is spanned by the boundary classes A[n-1] (sum of
all F_k, the relabelled large diagonals included) and A[n] = E, and the
symmetric effective cone is the A-orthant; the fiber effectivity threshold
is computed there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import cone
from ._terms import _fr, format_terms


class BadName(ValueError):
    pass


class BadIndex(ValueError):
    pass


class NotInSpan(ValueError):
    """The class is not a combination of the two symmetric generators."""


def basis_labels(n: int) -> list[str]:
    return ["g1", "g2", "g3", "E"] + [f"F{k}" for k in range(4, n + 1)]


@dataclass(frozen=True)
class FiberClass:
    """Exact coordinates over the ordered basis (g1, g2, g3, E, F4..Fn)."""

    n: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 marked points")
        coords = tuple(_fr(q) for q in self.coords)
        if len(coords) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} coordinates for n={self.n}")
        object.__setattr__(self, "coords", coords)

    def __add__(self, other: "FiberClass") -> "FiberClass":
        if self.n != other.n:
            raise ValueError("classes live on different fibers")
        return FiberClass(self.n, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FiberClass") -> "FiberClass":
        return self + (-1) * other

    def scale(self, q) -> "FiberClass":
        q = _fr(q)
        return FiberClass(self.n, tuple(q * a for a in self.coords))

    def __rmul__(self, q) -> "FiberClass":
        return self.scale(q)

    def __str__(self) -> str:
        return format_terms(zip(self.coords, basis_labels(self.n)))


def _unit(n: int, index: int) -> FiberClass:
    coords = [Fraction(0)] * (n + 1)
    coords[index] = Fraction(1)
    return FiberClass(n, tuple(coords))


_F_NAME = re.compile(r"F(\d+)$")
_DELTA_NAME = re.compile(r"Delta(\d)(\d)$")


def fiber_class(n: int, name: str) -> FiberClass:
    """Expand a named class into basis coordinates.

    Names: g1 g2 g3 E, F1..Fn, Delta12 Delta13 Delta23, A_top (= E),
    A_sub (= F1 + ... + Fn), K (canonical), Lhalf (the hyperplane pullback,
    half of (n-2) A_sub + n A_top), and B2_n3 (the n = 3 large diagonal sum).
    """
    if n < 3:
        raise ValueError("need at least 3 marked points")
    if name in ("g1", "g2", "g3"):
        return _unit(n, int(name[1]) - 1)
    if name == "E":
        return _unit(n, 3)
    mo = _F_NAME.match(name)
    if mo:
        k = int(mo.group(1))
        if not 1 <= k <= n:
            raise BadIndex(f"F{k} does not exist for n={n}")
        if k >= 4:
            return _unit(n, k)
        # F_k for k <= 3 is the relabelled large diagonal:
        # g_i + g_j - E - (F_4 + ... + F_n), {i,j,k} = {1,2,3}
        i, j = sorted({1, 2, 3} - {k})
        coords = [Fraction(0)] * 3 + [Fraction(-1)] + [Fraction(-1)] * (n - 3)
        coords[i - 1] = coords[j - 1] = Fraction(1)
        return FiberClass(n, tuple(coords))
    mo = _DELTA_NAME.match(name)
    if mo:
        i, j = int(mo.group(1)), int(mo.group(2))
        if not (1 <= i < j <= 3):
            raise BadIndex(f"no large diagonal Delta{i}{j}")
        return _unit(n, i - 1) + _unit(n, j - 1) - _unit(n, 3)
    if name == "A_top":
        return _unit(n, 3)
    if name == "A_sub":
        # F_1 + ... + F_n = 2(g1 + g2 + g3) - 3E - 2(F4 + ... + Fn)
        coords = [Fraction(2)] * 3 + [Fraction(-3)] + [Fraction(-2)] * (n - 3)
        return FiberClass(n, tuple(coords))
    if name == "K":
        coords = [Fraction(-2)] * 3 + [Fraction(1)] + [Fraction(2)] * (n - 3)
        return FiberClass(n, tuple(coords))
    if name == "Lhalf":
        half = Fraction(1, 2)
        return half * ((n - 2) * fiber_class(n, "A_sub") + n * fiber_class(n, "A_top"))
    if name == "B2_n3":
        if n != 3:
            raise BadIndex("B2_n3 is the n=3 large-diagonal sum only")
        return FiberClass(3, (Fraction(2), Fraction(2), Fraction(2), Fraction(-3)))
    raise BadName(f"unknown fiber class {name!r}")


@dataclass(frozen=True)
class AClass:
    """Coordinates over the symmetric generators: a_sub * A[n-1] + a_top * A[n]."""

    n: int
    a_sub: Fraction
    a_top: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a_sub", _fr(self.a_sub))
        object.__setattr__(self, "a_top", _fr(self.a_top))

    def expand(self) -> FiberClass:
        return (self.a_sub * fiber_class(self.n, "A_sub")
                + self.a_top * fiber_class(self.n, "A_top"))


def to_A_basis(c: FiberClass) -> AClass:
    """Solve c = a_sub * A_sub + a_top * A_top exactly; NotInSpan otherwise.

    A_sub has g-coordinates (2,2,2), so a_sub is pinned by the g1 entry and
    a_top by the E entry; the full expansion is then compared coordinatewise.
    """
    a_sub = c.coords[0] / 2
    a_top = c.coords[3] + 3 * a_sub
    candidate = AClass(c.n, a_sub, a_top)
    if candidate.expand().coords != c.coords:
        raise NotInSpan("class is not symmetric (outside span of A_sub, A_top)")
    return candidate


def pair_R(c: AClass) -> Fraction:
    """Intersection with the curve R swept out inside the exceptional divisor:
    A[n-1] meets it n times, A[n] restricts to degree 2-n."""
    return c.a_sub * c.n + c.a_top * (2 - c.n)


def kodaira_fiber(n: int) -> Fraction:
    """Effectivity threshold of K + boundary along the hyperplane pullback on
    the fiber, computed in the A-orthant; equals 2/n."""
    k = to_A_basis(fiber_class(n, "K"))
    base = (k.a_sub + 1, k.a_top + 1)
    lh = to_A_basis(fiber_class(n, "Lhalf"))
    return cone.kodaira_energy(base, (lh.a_sub, lh.a_top))
