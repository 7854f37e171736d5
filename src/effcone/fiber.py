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
is computed there.  Classes stay plain ints throughout: a class of the table
is a tuple of its integer coordinates, and a symmetric class is written by
the pair of its doubled A-coordinates (2 a_sub, 2 a_top), which are
integers of one parity for every integral class.
"""

from __future__ import annotations

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


def fiber_class(n: int, name: str) -> tuple[int, ...]:
    """The named class as its tuple of basis coordinates, read from a table.

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
            fiber_class(n, "A_sub"), fiber_class(n, "A_top"))]
        odd = [i for i, q in enumerate(twice) if q % 2]
        if odd:
            raise ExactnessError(
                f"{basis_labels(n)[odd[0]]}-coordinate {twice[odd[0]]} is not even")
        coords = [q // 2 for q in twice]
    elif name == "B2_n3" and n == 3:
        coords = [2, 2, 2, -3]
    else:
        raise ValueError(f"no fiber class {name!r} for n={n}")
    return tuple(coords)


def to_A_basis(coords: tuple[int, ...]) -> tuple[int, int]:
    """Solve coords = a_sub * A_sub + a_top * A_top exactly, in doubled
    integer coordinates (2 a_sub, 2 a_top); NotInSpan otherwise.

    A_top has no g1 entry, so 2 a_sub is twice the g1 entry over A_sub's,
    and 2 a_top is what A_sub leaves of twice the E entry, over A_top's;
    the three entries are read from the table rows.  A zero entry among
    them, a remainder, or a coordinate where twice the class is not
    2 a_sub A_sub + 2 a_top A_top raises NotInSpan, so the membership test
    stays in ints."""
    n = len(coords) - 1
    sub_row, top_row = fiber_class(n, "A_sub"), fiber_class(n, "A_top")
    if not (sub_row[0] and top_row[3]):
        raise NotInSpan("A_sub has no g1 entry or A_top no E entry")
    sub2, rem_sub = divmod(2 * coords[0], sub_row[0])
    top2, rem_top = divmod(2 * coords[3] - sub2 * sub_row[3], top_row[3])
    if rem_sub or rem_top or any(2 * q != sub2 * x + top2 * y
                                 for q, x, y in zip(coords, sub_row, top_row)):
        raise NotInSpan("class is not symmetric (outside span of A_sub, A_top)")
    return sub2, top2


def pair_R(n: int, sub2: int, top2: int) -> int:
    """Intersection of the class (sub2 A[n-1] + top2 A[n]) / 2 with the
    curve R swept out inside the exceptional divisor: A[n-1] meets it n
    times, A[n] restricts to degree 2-n.  Twice the pairing is even, since
    n and 2-n, and so sub2 and top2 of an integral class, have one parity:
    to_A_basis gives top2 - sub2 = 2 (E entry + sub2) on the table."""
    return (sub2 * n + top2 * (2 - n)) // 2


def kodaira_fiber(n: int) -> Fraction:
    """Effectivity threshold of K + boundary along the hyperplane pullback on
    the fiber, computed in the A-orthant; equals 2/n.

    Both vectors are taken in doubled A-coordinates, in ints: a common
    positive scale leaves every threshold -b/d unchanged."""
    k_sub2, k_top2 = to_A_basis(fiber_class(n, "K"))
    return cone.kodaira_energy((k_sub2 + 2, k_top2 + 2),
                               to_A_basis(fiber_class(n, "Lhalf")))
