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
from ._terms import ExactnessError, _exact


class BadName(ValueError):
    pass


class BadIndex(ValueError):
    pass


class NotInSpan(ExactnessError):
    """The class is not a combination of the two symmetric generators: a
    class table is wrong."""


def basis_labels(n: int) -> list[str]:
    return ["g1", "g2", "g3", "E"] + [f"F{k}" for k in range(4, n + 1)]


@dataclass(frozen=True)
class FiberClass:
    """Exact coordinates over the ordered basis (g1, g2, g3, E, F4..Fn):
    ints stay ints, and a coordinate is a Fraction only when it has to be."""

    n: int
    coords: tuple[int | Fraction, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 marked points")
        coords = tuple(self.coords)
        if set(map(type, coords)) != {int}:
            coords = tuple(map(_exact, coords))
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
        q = _exact(q)
        return FiberClass(self.n, tuple(q * a for a in self.coords))

    def __rmul__(self, q) -> "FiberClass":
        return self.scale(q)


def _unit(n: int, index: int) -> FiberClass:
    coords = [0] * (n + 1)
    coords[index] = 1
    return FiberClass(n, tuple(coords))


def _halve(c: FiberClass) -> FiberClass:
    """c / 2, for a class with even integer coordinates."""
    halves = []
    for q, label in zip(c.coords, basis_labels(c.n)):
        half, odd = divmod(q, 2)
        if odd:
            raise ExactnessError(f"{label}-coordinate {q} is not even")
        halves.append(half)
    return FiberClass(c.n, tuple(halves))


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
        coords = [0] * 3 + [-1] + [-1] * (n - 3)
        coords[i - 1] = coords[j - 1] = 1
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
        coords = [2] * 3 + [-3] + [-2] * (n - 3)
        return FiberClass(n, tuple(coords))
    if name == "K":
        coords = [-2] * 3 + [1] + [2] * (n - 3)
        return FiberClass(n, tuple(coords))
    if name == "Lhalf":
        return _halve((n - 2) * fiber_class(n, "A_sub") + n * fiber_class(n, "A_top"))
    if name == "B2_n3":
        if n != 3:
            raise BadIndex("B2_n3 is the n=3 large-diagonal sum only")
        return FiberClass(3, (2, 2, 2, -3))
    raise BadName(f"unknown fiber class {name!r}")


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
