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
is computed there.  Classes stay in ints throughout: a class of the table
is a row of integer coordinates, and a symmetric class is written by its
doubled A-coordinates (2 a_sub, 2 a_top), which are integers of one parity
for every integral class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import cone
from ._terms import ExactnessError


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


def fiber_class(n: int, name: str) -> FiberClass:
    """The named class in basis coordinates, read from a table.

    Names: the basis labels g1 g2 g3 E F4..Fn, A_top (= E), A_sub
    (= F1 + ... + Fn, the relabelled large diagonals F1..F3 included),
    K (canonical), Lhalf (the hyperplane pullback, halved from
    (n-2) A_sub + n A_top on the two rows; an odd coordinate raises
    ExactnessError) and, at n = 3 only, B2_n3 (the large-diagonal sum).
    Any other name raises ValueError.
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
        twice = [(n - 2) * x + n * y for x, y in zip(
            fiber_class(n, "A_sub").coords, fiber_class(n, "A_top").coords)]
        odd = [i for i, q in enumerate(twice) if q % 2]
        if odd:
            raise ExactnessError(
                f"{basis_labels(n)[odd[0]]}-coordinate {twice[odd[0]]} is not even")
        coords = [q // 2 for q in twice]
    elif name == "B2_n3" and n == 3:
        coords = [2, 2, 2, -3]
    else:
        raise ValueError(f"no fiber class {name!r} for n={n}")
    return FiberClass(n, tuple(coords))


@dataclass(frozen=True)
class AClass:
    """Doubled coordinates over the symmetric generators: the class
    (sub2 * A[n-1] + top2 * A[n]) / 2.  It is integral exactly when sub2
    and top2 are ints of one parity; anything else raises ValueError."""

    n: int
    sub2: int
    top2: int

    def __post_init__(self):
        if type(self.sub2) is not int or type(self.top2) is not int:
            raise ValueError("doubled A-coordinates must be int")
        if (self.sub2 - self.top2) % 2:
            raise ValueError("doubled A-coordinates of unequal parity")


def to_A_basis(c: FiberClass) -> AClass:
    """Solve c = a_sub * A_sub + a_top * A_top exactly, in doubled integer
    coordinates; NotInSpan otherwise.

    A_sub has g-coordinates (2,2,2) and E-coordinate -3, so 2 a_sub is the
    g1 entry and 2 a_top = 2 (E entry) + 3 (g1 entry).  Twice the class is
    then compared coordinatewise with 2 a_sub A_sub + 2 a_top A_top, read
    from the table, so the membership test stays in ints.
    """
    sub2 = c.coords[0]
    top2 = 2 * c.coords[3] + 3 * sub2
    sub_coords = fiber_class(c.n, "A_sub").coords
    top_coords = fiber_class(c.n, "A_top").coords
    if any(2 * q != sub2 * x + top2 * y
           for q, x, y in zip(c.coords, sub_coords, top_coords)):
        raise NotInSpan("class is not symmetric (outside span of A_sub, A_top)")
    return AClass(c.n, sub2, top2)


def pair_R(c: AClass) -> int:
    """Intersection with the curve R swept out inside the exceptional divisor:
    A[n-1] meets it n times, A[n] restricts to degree 2-n.  The doubled
    coordinates give twice the pairing, even because 2-n and n have one
    parity and so have sub2 and top2."""
    return (c.sub2 * c.n + c.top2 * (2 - c.n)) // 2


def kodaira_fiber(n: int) -> Fraction:
    """Effectivity threshold of K + boundary along the hyperplane pullback on
    the fiber, computed in the A-orthant; equals 2/n.

    Both vectors are taken in doubled A-coordinates, in ints: a common
    positive scale leaves every threshold -b/d unchanged."""
    k = to_A_basis(fiber_class(n, "K"))
    lh = to_A_basis(fiber_class(n, "Lhalf"))
    return cone.kodaira_energy((k.sub2 + 2, k.top2 + 2), (lh.sub2, lh.top2))
