import random
from fractions import Fraction

import pytest

from effcone.fiber import (
    AClass,
    BadIndex,
    BadName,
    FiberClass,
    NotInSpan,
    basis_labels,
    fiber_class,
    kodaira_fiber,
    pair_R,
    to_A_basis,
)
from effcone.picard import kodaira_full

Q = Fraction


def test_basis_units():
    assert fiber_class(4, "g2").coords == (0, 1, 0, 0, 0)
    assert fiber_class(3, "E").coords == (0, 0, 0, 1)
    assert fiber_class(5, "F5").coords == (0, 0, 0, 0, 0, 1)
    assert basis_labels(5) == ["g1", "g2", "g3", "E", "F4", "F5"]


def test_relabelled_diagonal_expansions():
    # F_k for k <= 3 subtracts every later exceptional divisor
    assert fiber_class(4, "F1").coords == (0, 1, 1, -1, -1)
    assert fiber_class(3, "F2").coords == (1, 0, 1, -1)
    assert fiber_class(6, "F3").coords == (1, 1, 0, -1, -1, -1, -1)
    assert fiber_class(4, "Delta12").coords == (1, 1, 0, -1, 0)


def test_canonical_class_coordinates():
    assert fiber_class(3, "K").coords == (-2, -2, -2, 1)
    assert fiber_class(5, "K").coords == (-2, -2, -2, 1, 2, 2)


def test_symmetric_generators():
    assert fiber_class(4, "A_top").coords == (0, 0, 0, 1, 0)
    assert fiber_class(4, "A_sub").coords == (2, 2, 2, -3, -2)
    for n in (3, 4, 5, 9, 17, 30):
        total = fiber_class(n, "F1")
        for k in range(2, n + 1):
            total = total + fiber_class(n, f"F{k}")
        assert total == fiber_class(n, "A_sub")


def test_bad_names_and_indices():
    with pytest.raises(BadName):
        fiber_class(4, "H")
    with pytest.raises(BadIndex):
        fiber_class(4, "F5")
    with pytest.raises(BadIndex):
        fiber_class(4, "Delta14")
    with pytest.raises(BadIndex):
        fiber_class(4, "B2_n3")


def test_to_A_basis_canonical():
    for n in range(3, 31):
        a = to_A_basis(fiber_class(n, "K"))
        assert (a.a_sub, a.a_top) == (Q(-1), Q(-2))


def test_to_A_basis_hyperplane():
    for n in range(3, 31):
        a = to_A_basis(fiber_class(n, "Lhalf"))
        assert (a.a_sub, a.a_top) == (Q(n - 2, 2), Q(n, 2))


def test_to_A_basis_rejects_asymmetric_class():
    with pytest.raises(NotInSpan):
        to_A_basis(fiber_class(5, "g1"))
    with pytest.raises(NotInSpan):
        to_A_basis(fiber_class(4, "F4"))


def test_to_A_basis_round_trip():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(3, 12)
        a = AClass(n, Q(rng.randint(-9, 9), rng.randint(1, 5)),
                   Q(rng.randint(-9, 9), rng.randint(1, 5)))
        back = to_A_basis(a.expand())
        assert (back.a_sub, back.a_top) == (a.a_sub, a.a_top)


def test_hyperplane_expansion_identity():
    # (n-2) A_sub + n A_top = 2((n-2)(g1+g2+g3) - (n-3)E - (n-2)(F4+..+Fn))
    for n in range(3, 31):
        lhs = (n - 2) * fiber_class(n, "A_sub") + n * fiber_class(n, "A_top")
        coords = ([Q(2 * (n - 2))] * 3 + [Q(-2 * (n - 3))]
                  + [Q(-2 * (n - 2))] * (n - 3))
        assert lhs == FiberClass(n, tuple(coords))
        assert lhs == 2 * fiber_class(n, "Lhalf")


def test_pair_R_values():
    for n in (3, 5, 12):
        assert pair_R(AClass(n, 1, 0)) == n
        assert pair_R(AClass(n, 0, 1)) == 2 - n
        assert pair_R(to_A_basis(fiber_class(n, "Lhalf"))) == 0


def test_kodaira_fiber_values():
    assert kodaira_fiber(3) == Q(2, 3)
    assert kodaira_fiber(10) == Q(1, 5)
    for n in range(3, 31):
        assert kodaira_fiber(n) == Q(2, n)


def test_kodaira_fiber_thresholds():
    # base (0, -1), direction ((n-2)/2, n/2): thresholds 0 and 2/n
    n = 7
    k = to_A_basis(fiber_class(n, "K"))
    base = (k.a_sub + 1, k.a_top + 1)
    assert base == (Q(0), Q(-1))
    lh = to_A_basis(fiber_class(n, "Lhalf"))
    assert -base[0] / lh.a_sub == 0
    assert -base[1] / lh.a_top == Q(2, n)


def test_fiber_matches_full_space():
    for n in range(3, 31):
        assert kodaira_fiber(n) == kodaira_full(n)


def test_n3_large_diagonal_coherence():
    assert fiber_class(3, "B2_n3") == fiber_class(3, "A_sub")
    assert fiber_class(3, "B2_n3").coords == (2, 2, 2, -3)


def test_class_arithmetic_and_text():
    c = fiber_class(4, "F1") - 2 * fiber_class(4, "E")
    assert c.coords == (0, 1, 1, -3, -1)
    assert str(c) == "1*g2 + 1*g3 - 3*E - 1*F4"
    assert str(FiberClass(3, (0, 0, 0, 0))) == "0"
    with pytest.raises(ValueError):
        fiber_class(3, "g1") + fiber_class(4, "g1")
    with pytest.raises(ValueError):
        FiberClass(4, (1, 2, 3))


def parse_terms(text):
    """{name: coefficient} of the canonical text that FiberClass prints."""
    if text == "0":
        return {}
    terms = (t.split("*") for t in text.replace(" - ", " + -").split(" + "))
    return {name: Q(q) for q, name in terms}


def test_parse_fiber_class():
    # the canonical text loses nothing: every coordinate can be read back
    rng = random.Random(8)
    for _ in range(25):
        n = rng.randint(3, 8)
        c = FiberClass(n, tuple(Q(rng.randint(-9, 9), rng.randint(1, 4))
                                for _ in range(n + 1)))
        terms = parse_terms(str(c))
        assert FiberClass(n, tuple(terms.get(lab, 0)
                                   for lab in basis_labels(n))) == c
    assert str(FiberClass(4, (2, 0, 0, Q(-1, 2), 3))) == "2*g1 - 1/2*E + 3*F4"
    assert parse_terms(str(FiberClass(5, (0,) * 6))) == {}
