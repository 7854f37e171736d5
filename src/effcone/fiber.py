"""Divisor classes on the generic fiber of the forgetful tower.

The fiber over a configuration of n distinct points is the triple product
of lines blown up along the small diagonal (exceptional divisor E) and then
along n-3 disjoint sections of E, giving the exceptional divisors
F_4, ..., F_n.  Its Picard group has the basis (g1, g2, g3, E, F4, ..., Fn)
of rank n+1, with the sums over empty index ranges understood as zero so
that n = 3 follows the same code path.  `fiber_class` is the table of
named classes: the basis labels, A_top, A_sub, K, Lhalf and B2_n3 (n = 3).

The symmetric subgroup is spanned by the boundary classes A[n-1] (sum of
all F_k, the relabelled large diagonals included) and A[n] = E, and the
symmetric effective cone is the A-orthant; the fiber effectivity threshold
is computed there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import cone
from ._terms import ExactnessError, _exact


class NotInSpan(ExactnessError):
    """The class is not a combination of the two symmetric generators: a
    class table is wrong."""


def basis_labels(n: int) -> list[str]:
    return ["g1", "g2", "g3", "E"] + [f"F{k}" for k in range(4, n + 1)]


@cache
def _basis_index(n: int) -> dict[str, int]:
    """Position of each basis label, built once per n."""
    return {label: i for i, label in enumerate(basis_labels(n))}


@dataclass(frozen=True)
class FiberClass:
    """Integer coordinates over the ordered basis (g1, g2, g3, E, F4..Fn);
    a coordinate that is not an int raises ValueError."""

    n: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 marked points")
        coords = tuple(self.coords)
        if not set(map(type, coords)) <= {int}:
            raise ValueError("fiber coordinates must be int")
        if len(coords) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} coordinates for n={self.n}")
        object.__setattr__(self, "coords", coords)

    def __add__(self, other: "FiberClass") -> "FiberClass":
        if self.n != other.n:
            raise ValueError("classes live on different fibers")
        return FiberClass(self.n, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FiberClass") -> "FiberClass":
        return self + (-1) * other

    def __rmul__(self, q: int) -> "FiberClass":
        return FiberClass(self.n, tuple(q * a for a in self.coords))


def _halve(c: FiberClass) -> FiberClass:
    """c / 2, for a class with even integer coordinates."""
    halves = []
    for q, label in zip(c.coords, basis_labels(c.n)):
        half, odd = divmod(q, 2)
        if odd:
            raise ExactnessError(f"{label}-coordinate {q} is not even")
        halves.append(half)
    return FiberClass(c.n, tuple(halves))


def fiber_class(n: int, name: str) -> FiberClass:
    """The named class in basis coordinates, read from a table.

    Names: the basis labels g1 g2 g3 E F4..Fn, A_top (= E), A_sub
    (= F1 + ... + Fn, the relabelled large diagonals F1..F3 included),
    K (canonical), Lhalf (the hyperplane pullback, half of
    (n-2) A_sub + n A_top) and, at n = 3 only, B2_n3 (the large-diagonal
    sum).  Any other name raises ValueError.
    """
    if n < 3:
        raise ValueError("need at least 3 marked points")
    index = _basis_index(n).get("E" if name == "A_top" else name)
    if index is not None:
        coords = [0] * (n + 1)
        coords[index] = 1
    elif name == "A_sub":
        # F_k for k <= 3 is g_i + g_j - E - (F4 + ... + Fn), {i,j,k} = {1,2,3}
        coords = [2, 2, 2, -3] + [-2] * (n - 3)
    elif name == "K":
        coords = [-2, -2, -2, 1] + [2] * (n - 3)
    elif name == "Lhalf":
        return _halve((n - 2) * fiber_class(n, "A_sub") + n * fiber_class(n, "A_top"))
    elif name == "B2_n3" and n == 3:
        coords = [2, 2, 2, -3]
    else:
        raise ValueError(f"no fiber class {name!r} for n={n}")
    return FiberClass(n, tuple(coords))


@dataclass(frozen=True)
class AClass:
    """Coordinates over the symmetric generators: a_sub * A[n-1] + a_top * A[n]."""

    n: int
    a_sub: int | Fraction
    a_top: int | Fraction

    def __post_init__(self):
        object.__setattr__(self, "a_sub", _exact(self.a_sub))
        object.__setattr__(self, "a_top", _exact(self.a_top))


def to_A_basis(c: FiberClass) -> AClass:
    """Solve c = a_sub * A_sub + a_top * A_top exactly; NotInSpan otherwise.

    A_sub has g-coordinates (2,2,2) and E-coordinate -3, so 2 a_sub is the
    g1 entry and 2 a_top = 2 (E entry) + 3 (g1 entry).  Twice the class is
    then compared coordinatewise with 2 a_sub A_sub + 2 a_top A_top, so the
    membership test stays on the coordinates' own (integer) arithmetic.
    """
    sub2 = c.coords[0]
    top2 = 2 * c.coords[3] + 3 * sub2
    sub_coords = fiber_class(c.n, "A_sub").coords
    top_coords = fiber_class(c.n, "A_top").coords
    if any(2 * q != sub2 * x + top2 * y
           for q, x, y in zip(c.coords, sub_coords, top_coords)):
        raise NotInSpan("class is not symmetric (outside span of A_sub, A_top)")
    return AClass(c.n, Fraction(sub2, 2), Fraction(top2, 2))


def pair_R(c: AClass) -> int | Fraction:
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
