import random
from fractions import Fraction

import pytest

from effcone._terms import format_terms
from effcone.fiber import (
    NotInSpan,
    basis_labels,
    fiber_class,
    kodaira_fiber,
    pair_R,
    to_A_basis,
)
from effcone.picard import kodaira_full
from oracles import combined, parse_terms

Q = Fraction


def text(c):
    """The canonical text of a fiber class, as format_terms writes it."""
    return format_terms(zip(c, basis_labels(len(c) - 1)))


def expand(n, sub2, top2):
    """The fiber class (sub2 * A_sub + top2 * A_top) / 2, whose coordinates
    are ints when sub2 and top2 have one parity: halve the class of the
    doubled coordinates."""
    twice = combined((sub2, fiber_class(n, "A_sub")), (top2, fiber_class(n, "A_top")))
    return tuple(q // 2 for q in twice)


def large_diagonal(n, k):
    """F_k for k <= 3, the relabelled large diagonal
    g_i + g_j - E - (F4 + ... + Fn) with {i, j, k} = {1, 2, 3}."""
    i, j = sorted({1, 2, 3} - {k})
    return combined((1, fiber_class(n, f"g{i}")), (1, fiber_class(n, f"g{j}")),
                    (-1, fiber_class(n, "E")),
                    *((-1, fiber_class(n, f"F{m}")) for m in range(4, n + 1)))


def test_basis_units():
    assert fiber_class(4, "g2") == (0, 1, 0, 0, 0)
    assert fiber_class(3, "E") == (0, 0, 0, 1)
    assert fiber_class(5, "F5") == (0, 0, 0, 0, 0, 1)
    assert basis_labels(5) == ["g1", "g2", "g3", "E", "F4", "F5"]


def test_relabelled_diagonal_expansions():
    # F_k for k <= 3 subtracts every later exceptional divisor
    assert large_diagonal(4, 1) == (0, 1, 1, -1, -1)
    assert large_diagonal(3, 2) == (1, 0, 1, -1)
    assert large_diagonal(6, 3) == (1, 1, 0, -1, -1, -1, -1)


def test_canonical_class_coordinates():
    assert fiber_class(3, "K") == (-2, -2, -2, 1)
    assert fiber_class(5, "K") == (-2, -2, -2, 1, 2, 2)


def test_symmetric_generators():
    assert fiber_class(4, "A_top") == (0, 0, 0, 1, 0)
    assert fiber_class(4, "A_sub") == (2, 2, 2, -3, -2)
    for n in (3, 4, 5, 9, 17, 30):
        total = combined(*((1, large_diagonal(n, k) if k <= 3
                            else fiber_class(n, f"F{k}")) for k in range(1, n + 1)))
        assert total == fiber_class(n, "A_sub")


def test_bad_names_and_indices():
    # the relabelled diagonals F1..F3 and Delta_ij are not in the table
    for n, name in [(4, "H"), (3, "F1"), (3, "F4"), (4, "F5"), (4, "Delta12"),
                    (4, "B2_n3")]:
        with pytest.raises(ValueError, match="no fiber class"):
            fiber_class(n, name)


def test_to_A_basis_canonical():
    # K = -A_sub - 2 A_top, in doubled coordinates
    for n in range(3, 31):
        assert to_A_basis(fiber_class(n, "K")) == (-2, -4)


def test_to_A_basis_hyperplane():
    # Lhalf = (n-2)/2 A_sub + n/2 A_top
    for n in range(3, 31):
        assert to_A_basis(fiber_class(n, "Lhalf")) == (n - 2, n)


def test_to_A_basis_rejects_asymmetric_class():
    with pytest.raises(NotInSpan):
        to_A_basis(fiber_class(5, "g1"))
    with pytest.raises(NotInSpan):
        to_A_basis(fiber_class(4, "F4"))


def test_to_A_basis_reads_the_generator_rows(monkeypatch):
    # the solve reads A_sub's g1 and E entries and A_top's E entry from the
    # table: with A_sub moved by 2E, A_sub is still (2, 0), not off the span
    from effcone import fiber

    table = fiber.fiber_class
    monkeypatch.setattr(fiber, "fiber_class", lambda n, name: (
        combined((1, table(n, name)), (2, table(n, "E"))) if name == "A_sub"
        else table(n, name)))
    for n in (3, 4, 7):
        assert to_A_basis(fiber.fiber_class(n, "A_sub")) == (2, 0)
        assert to_A_basis(fiber.fiber_class(n, "A_top")) == (0, 2)


@pytest.mark.parametrize("name, row", [("A_sub", ("E", "g2")), ("A_top", ("g1", "g1"))])
def test_to_A_basis_refuses_a_generator_row_without_its_pivot(monkeypatch, name, row):
    # an A_sub row with no g1 entry, or an A_top row with no E entry, leaves
    # a doubled coordinate undetermined: the class is refused as outside
    # the span, not divided by zero
    from effcone import fiber

    table = fiber.fiber_class
    monkeypatch.setattr(fiber, "fiber_class", lambda n, label: (
        combined(*((1, table(n, r)) for r in row)) if label == name
        else table(n, label)))
    with pytest.raises(NotInSpan):
        to_A_basis(fiber.fiber_class(4, "K"))


def test_to_A_basis_round_trip():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(3, 12)
        sub2 = rng.randint(-9, 9)
        top2 = sub2 + 2 * rng.randint(-9, 9)
        assert to_A_basis(expand(n, sub2, top2)) == (sub2, top2)


def test_hyperplane_expansion_identity():
    # (n-2) A_sub + n A_top = 2((n-2)(g1+g2+g3) - (n-3)E - (n-2)(F4+..+Fn))
    for n in range(3, 31):
        lhs = combined((n - 2, fiber_class(n, "A_sub")),
                       (n, fiber_class(n, "A_top")))
        coords = [2 * (n - 2)] * 3 + [-2 * (n - 3)] + [-2 * (n - 2)] * (n - 3)
        assert lhs == tuple(coords)
        assert lhs == combined((2, fiber_class(n, "Lhalf")))


def test_odd_hyperplane_coordinate_raises(monkeypatch):
    # with A_top = E + g1, (n-2) A_sub + n A_top has g1-coordinate 3n - 4,
    # odd for odd n: halving it must refuse, never round
    from effcone import fiber

    table = fiber.fiber_class
    monkeypatch.setattr(fiber, "fiber_class", lambda n, name: (
        combined((1, table(n, "E")), (1, table(n, "g1"))) if name == "A_top"
        else table(n, name)))
    with pytest.raises(ArithmeticError, match="g1-coordinate 11 is not even"):
        fiber_class(5, "Lhalf")
    assert fiber_class(6, "Lhalf")[0] == 7


def test_pair_R_values():
    for n in (3, 5, 12):
        assert pair_R(n, 2, 0) == n
        assert pair_R(n, 0, 2) == 2 - n
        assert pair_R(n, 1, 1) == 1
        assert pair_R(n, *to_A_basis(fiber_class(n, "Lhalf"))) == 0


def test_kodaira_fiber_values():
    assert kodaira_fiber(3) == Q(2, 3)
    assert kodaira_fiber(10) == Q(1, 5)
    for n in range(3, 31):
        assert kodaira_fiber(n) == Q(2, n)


def test_kodaira_fiber_thresholds():
    # base (0, -1), direction ((n-2)/2, n/2), both doubled: thresholds 0
    # and 2/n
    n = 7
    k_sub2, k_top2 = to_A_basis(fiber_class(n, "K"))
    base = (k_sub2 + 2, k_top2 + 2)
    assert base == (0, -2)
    lh_sub2, lh_top2 = to_A_basis(fiber_class(n, "Lhalf"))
    assert Q(-base[0], lh_sub2) == 0
    assert Q(-base[1], lh_top2) == Q(2, n)


def test_fiber_matches_full_space():
    for n in range(3, 31):
        assert kodaira_fiber(n) == kodaira_full(n)


def test_n3_large_diagonal_coherence():
    assert fiber_class(3, "B2_n3") == fiber_class(3, "A_sub")
    assert fiber_class(3, "B2_n3") == (2, 2, 2, -3)


def test_class_arithmetic_and_text():
    c = combined((1, large_diagonal(4, 1)), (-2, fiber_class(4, "E")))
    assert c == (0, 1, 1, -3, -1)
    assert text(c) == "1*g2 + 1*g3 - 3*E - 1*F4"
    assert text((0, 0, 0, 0)) == "0"


def test_parse_fiber_class():
    # the canonical text loses nothing: every coordinate can be read back
    rng = random.Random(8)
    for _ in range(25):
        n = rng.randint(3, 8)
        c = tuple(rng.randint(-9, 9) for _ in range(n + 1))
        terms = parse_terms(text(c))
        assert tuple(int(terms.get(lab, 0)) for lab in basis_labels(n)) == c
    assert format_terms(zip((2, 0, 0, Q(-1, 2), 3), basis_labels(4))) == (
        "2*g1 - 1/2*E + 3*F4")
    assert parse_terms(text((0,) * 6)) == {}
