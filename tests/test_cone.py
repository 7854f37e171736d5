import json
import random
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

import pytest

from effcone import cone as cone_module
from effcone.cone import (
    Certificate,
    ConeError,
    ConeH,
    DimensionMismatch,
    Infeasible,
    MinusInfinity,
    NotAttainable,
    PivotLimitExceeded,
    Unbounded,
    default_normalization,
    dual_contained_in_orthant,
    kodaira_energy,
    lp_min,
    verify_lp_minimum,
)
from effcone.picard import pairing_matrix

Q = Fraction


# ---------------------------------------------------------------------------
# independent oracle: full Fourier-Motzkin elimination of the normalized
# system, homogenized with a slack variable t (t = 1 recovers sum(x) = 1)
# ---------------------------------------------------------------------------

def canonical_ray(row) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a rational row."""
    d = lcm(*(q.denominator for q in row))
    ints = [q.numerator * (d // q.denominator) for q in row]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def fourier_motzkin_project(cone: ConeH, var: int) -> ConeH:
    """Eliminate one variable from a homogeneous inequality system.

    Sound and complete: a point satisfies the output iff it lifts to a point
    of the input.  Exact duplicates are removed but redundant rows may
    remain (no general redundancy elimination).
    """
    pos, neg, zero = [], [], []
    for row in cone.rows:
        c = row[var]
        (pos if c > 0 else neg if c < 0 else zero).append(row)
    combos = [tuple(q for j, q in enumerate(row) if j != var) for row in zero]
    combos += [tuple(p[var] * q[j] - q[var] * p[j]
                     for j in range(cone.num_vars) if j != var)
               for p in pos for q in neg]
    out = list(dict.fromkeys(r for r in map(canonical_ray, combos) if any(r)))
    labels = tuple(lab for j, lab in enumerate(cone.labels) if j != var)
    return ConeH(tuple(out), labels)


def contains(cone: ConeH, point) -> bool:
    return all(sum(a * b for a, b in zip(r, point)) >= 0 for r in cone.rows)


def fm_minimum(rows, objective_index):
    """Returns ('infeasible',), ('unbounded',) or ('min', Fraction)."""
    k = len(rows[0]) if rows else 0
    labels = [f"x{j}" for j in range(k)] + ["t"]
    hom = [list(r) + [0] for r in rows]
    hom.append([1] * k + [-1])
    hom.append([-1] * k + [1])
    hom.append([0] * k + [1])
    cone = ConeH.from_rows(hom, labels)
    for j in range(k):
        if j == objective_index:
            continue
        var = cone.labels.index(f"x{j}")
        cone = fourier_motzkin_project(cone, var)
    xj = cone.labels.index(f"x{objective_index}")
    lower, upper = None, None
    for row in cone.rows:
        alpha, beta = row[xj], row[1 - xj]
        if alpha > 0:
            bound = -beta / alpha
            lower = bound if lower is None or bound > lower else lower
        elif alpha < 0:
            bound = -beta / alpha
            upper = bound if upper is None or bound < upper else upper
        elif beta < 0:
            return ("infeasible",)
    if lower is not None and upper is not None and lower > upper:
        return ("infeasible",)
    if lower is None:
        return ("unbounded",)
    return ("min", lower)


def test_lp_min_two_variable_example():
    cone = ConeH.from_rows([[3, -1], [-1, 1]], ["d2", "d3"])
    res = lp_min(cone, 0)
    assert res.value == Q(1, 4)
    assert res.witness == (Q(1, 4), Q(3, 4))
    assert verify_lp_minimum(cone, 0, res)
    # the feasible slice is the segment from (1/4, 3/4) to (1/2, 1/2)
    res = lp_min(cone, 1)
    assert res.value == Q(1, 2)
    assert res.witness == (Q(1, 2), Q(1, 2))


def test_lp_min_orthant_boundary():
    cone = ConeH.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    res = lp_min(cone, 1)
    assert res.value == 0


def test_lp_min_infeasible():
    cone = ConeH.from_rows([[1], [-1]])
    with pytest.raises(Infeasible):
        lp_min(cone, 0)


def test_lp_min_unbounded():
    cone = ConeH.from_rows([[0, 1]])
    with pytest.raises(Unbounded):
        lp_min(cone, 0)


def test_lp_min_custom_normalization():
    cone = ConeH.from_rows([[1, 0], [0, 1]])
    res = lp_min(cone, 0, ((Q(0), Q(1)), Q(2)))
    assert res.value == 0
    assert res.witness[1] == 2


def test_lp_min_rejects_zero_rhs():
    cone = ConeH.from_rows([[1, 0]])
    with pytest.raises(ValueError):
        lp_min(cone, 0, ((Q(1), Q(1)), Q(0)))


def test_lp_min_rank_deficient_constraints():
    # rank 2 of 3: the lineality of {x : rows . x >= 0} is spanned by
    # (0, 1, -1), which lies in sum(x) = 0, so x1 and x2 run off along it
    # while x0 = 1 across it is pinned
    rows = [[1, 0, 0], [0, 1, 1], [0, -1, -1]]
    cone = ConeH.from_rows(rows)
    res = lp_min(cone, 0)
    assert res.value == 1 and fm_minimum(rows, 0) == ("min", 1)
    for j in (1, 2):
        assert fm_minimum(rows, j) == ("unbounded",)
        with pytest.raises(Unbounded):
            lp_min(cone, j)
    # x1 appears in no row and not in the normalization: it stays
    # nonbasic, its reduced cost is nonzero only as the objective
    cone = ConeH.from_rows([[1, 0]])
    norm = ((Q(1), Q(0)), Q(1))
    assert lp_min(cone, 0, norm).value == 1
    with pytest.raises(Unbounded):
        lp_min(cone, 1, norm)
    assert lp_min(cone, 0, norm).value == 1


def test_lp_min_coordinate_only_the_normalization_touches():
    rows = [[1, -1, 0], [0, 1, 0]]  # x0 >= x1 >= 0, x2 unconstrained
    cone = ConeH.from_rows(rows)
    res = lp_min(cone, 0)
    assert res.value == 0 and res.witness == (0, 0, 1)
    assert fm_minimum(rows, 2) == ("unbounded",)
    with pytest.raises(Unbounded):
        lp_min(cone, 2)
    norm = ((Q(0), Q(0), Q(2)), Q(3))  # x2 = 3/2 on the slice
    for j, value in ((2, Q(3, 2)), (0, 0), (1, 0)):
        res = lp_min(cone, j, norm)
        assert res.value == value and res.witness[2] == Q(3, 2)


def test_lp_min_negative_normalization_rhs():
    cone = ConeH.from_rows([[-1, 0], [0, -1]])  # x <= 0
    norm = ((Q(1), Q(2)), Q(-3, 2))
    res = lp_min(cone, 0, norm)
    assert res.value == Q(-3, 2) and res.witness == (Q(-3, 2), 0)
    res = lp_min(cone, 1, norm)
    assert res.value == Q(-3, 4) and res.witness == (0, Q(-3, 4))
    assert verify_lp_minimum(cone, 1, res, norm)


def test_lp_min_degenerate_ties_terminate():
    # scaled duplicate rows force degenerate pivots at every step
    rows = [[1, -1, 0], [-1, 1, 0], [2, -2, 0], [5, -5, 0],
            [1, 0, -1], [3, 0, -3], [0, 1, 0], [0, 3, 0]]
    cone = ConeH.from_rows(rows)
    res = lp_min(cone, 0)
    assert res.value == Q(1, 3)  # x0 = x1 = x2 forced, sum = 1
    oracle = fm_minimum(rows, 0)
    assert oracle == ("min", Q(1, 3))


def test_lp_min_matches_fm_on_random_small_systems():
    rng = random.Random(5)
    checked = 0
    for _ in range(160):
        k = rng.randint(2, 5)
        m = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        if all(all(v == 0 for v in row) for row in rows):
            continue
        j = rng.randrange(k)
        oracle = fm_minimum(rows, j)
        cone = ConeH.from_rows(rows)
        if oracle[0] == "infeasible":
            with pytest.raises(Infeasible):
                lp_min(cone, j)
        elif oracle[0] == "unbounded":
            with pytest.raises(Unbounded):
                lp_min(cone, j)
        else:
            res = lp_min(cone, j)
            assert res.value == oracle[1]
            assert verify_lp_minimum(cone, j, res)
        checked += 1
    assert checked > 100


def test_lp_results_are_exact_rationals():
    cone = ConeH.from_rows([[3, -1], [-1, 1]])
    res = lp_min(cone, 0)
    assert isinstance(res.value, Fraction)
    assert all(isinstance(v, Fraction) for v in res.witness)
    assert all(isinstance(v, Fraction) for v in res.row_multipliers)
    assert isinstance(res.normalization_multiplier, Fraction)


def test_verify_rejects_tampered_result():
    cone = ConeH.from_rows([[3, -1], [-1, 1]])
    res = lp_min(cone, 0)
    bad = type(res)(res.value + 1, res.witness, res.row_multipliers,
                    res.normalization_multiplier)
    with pytest.raises(Exception):
        verify_lp_minimum(cone, 0, bad)


def fraction_verify(cone, objective_index, result, normalization=None):
    """Reference re-check in Fraction arithmetic, straight from the
    definitions; returns the first failing check's message or None."""
    norm_coeffs, norm_rhs = normalization or default_normalization(cone.num_vars)
    x = result.witness
    slacks = [sum(a * b for a, b in zip(row, x)) for row in cone.rows]
    mus, nu = result.row_multipliers, result.normalization_multiplier
    checks = (
        (all(s >= 0 for s in slacks), "witness violates a cone constraint"),
        (sum(a * b for a, b in zip(norm_coeffs, x)) == norm_rhs,
         "witness violates the normalization"),
        (x[objective_index] == result.value,
         "witness coordinate does not equal the recorded minimum"),
        (len(mus) == len(cone.rows), "one multiplier per constraint row required"),
        (all(mu >= 0 for mu in mus), "negative row multiplier"),
        (all(sum(mu * row[j] for mu, row in zip(mus, cone.rows)) + nu * norm_coeffs[j]
             == (1 if j == objective_index else 0) for j in range(cone.num_vars)),
         "dual multipliers do not reproduce the objective"),
        (nu * norm_rhs == result.value, "dual objective does not match the minimum"),
        (all(mu * s == 0 for mu, s in zip(mus, slacks)), "complementary slackness fails"),
    )
    return next((message for ok, message in checks if not ok), None)


def integer_verify(cone, objective_index, result, normalization=None):
    try:
        verify_lp_minimum(cone, objective_index, result, normalization)
    except ConeError as exc:
        return str(exc)
    return None


# Fractional rows and a fractional normalization, so that every scaling in
# the integer re-check (d_i, D, d_norm, q) is nontrivial.
TAMPER_ROWS = [
    [Q(3, 2), Q(-1, 2), 0], [Q(-1, 3), Q(1, 3), 0], [Q(1, 5), 0, Q(-2, 7)],
    [0, 0, Q(3, 4)], [Q(1, 2), Q(1, 2), Q(1, 2)],
]
TAMPER_NORM = ((Q(1, 2), Q(1, 2), Q(1, 3)), Q(3, 4))
# a feasible, normalized point where row 0 (positive multiplier) is slack
SUBOPTIMAL = (Q(45, 74), Q(45, 74), Q(63, 148))


def _set(vec, i, value):
    return vec[:i] + (value,) + vec[i + 1:]


# Given the earlier checks, x_obj - nu * rhs == sum_i mu_i * slack_i (weak
# duality), so a complementary-slackness violation always trips the value or
# the dual-objective check first.
TAMPERS = {
    "witness off the cone": (
        lambda r: replace(r, witness=(Q(3, 2), Q(0), Q(0))), "cone constraint"),
    "witness off the normalization": (
        lambda r: replace(r, witness=tuple(2 * v for v in r.witness)), "normalization"),
    "wrong value": (lambda r: replace(r, value=r.value + Q(1, 3)), "recorded minimum"),
    "negative multiplier": (
        lambda r: replace(r, row_multipliers=_set(r.row_multipliers, 1, Q(-1, 9))),
        "negative row multiplier"),
    "broken Farkas identity": (
        lambda r: replace(r, row_multipliers=_set(r.row_multipliers, 0,
                                                2 * r.row_multipliers[0])),
        "do not reproduce the objective"),
    "wrong dual objective": (
        lambda r: replace(r, witness=SUBOPTIMAL, value=SUBOPTIMAL[0]), "dual objective"),
    "complementary slackness violated": (
        lambda r: replace(r, witness=SUBOPTIMAL), "recorded minimum"),
}


@pytest.mark.parametrize("case", list(TAMPERS))
def test_verify_rejects_each_tampered_field(case):
    cone = ConeH.from_rows(TAMPER_ROWS)
    res = lp_min(cone, 0, TAMPER_NORM)
    assert res.value == Q(45, 134)
    assert res.row_multipliers[0] > 0 and res.row_multipliers[1] == 0
    tamper, message = TAMPERS[case]
    bad = tamper(res)
    with pytest.raises(ConeError, match=message):
        verify_lp_minimum(cone, 0, bad, TAMPER_NORM)
    assert fraction_verify(cone, 0, bad, TAMPER_NORM) == integer_verify(
        cone, 0, bad, TAMPER_NORM)


def _int_entries(result):
    """The same result with every integral entry an int instead of a Fraction."""
    def plain(q):
        return int(q) if q.denominator == 1 else q
    return replace(result, value=plain(result.value),
                   witness=tuple(map(plain, result.witness)),
                   row_multipliers=tuple(map(plain, result.row_multipliers)),
                   normalization_multiplier=plain(result.normalization_multiplier))


def _agree_on_tampers(rng, cone, j, res, norm):
    """Tamper one field of res six times; both re-checks must agree on each
    tampered result, also with its integral entries as ints.  Returns how
    many the reference rejects."""
    rejected = 0
    for _ in range(6):
        field = rng.choice(["value", "witness", "row_multipliers",
                            "normalization_multiplier"])
        delta = Q(rng.choice([-1, 1]), rng.randint(1, 5))
        if field in ("witness", "row_multipliers"):
            vec = getattr(res, field)
            i = rng.randrange(len(vec))
            bad = replace(res, **{field: _set(vec, i, vec[i] + delta)})
        else:
            bad = replace(res, **{field: getattr(res, field) + delta})
        expected = fraction_verify(cone, j, bad, norm)
        assert integer_verify(cone, j, bad, norm) == expected
        assert integer_verify(cone, j, _int_entries(bad), norm) == expected
        rejected += expected is not None
    return rejected


def test_integer_verify_matches_fraction_reference():
    rng = random.Random(31)
    rng_default = random.Random(32)
    checked = rejected = 0
    default_checked = default_rejected = 0
    for _ in range(400):
        k = rng.randint(2, 4)
        rows = [[Q(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(k)]
                for _ in range(rng.randint(1, 5))]
        norm = (tuple(Q(rng.randint(-2, 4), rng.randint(1, 3)) for _ in range(k)),
                Q(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)))
        cone = ConeH.from_rows(rows)
        j = rng.randrange(k)
        try:
            res = lp_min(cone, j, norm)
        except (Infeasible, Unbounded):
            res = None
        if res is not None:
            assert fraction_verify(cone, j, res, norm) is None
            assert integer_verify(cone, j, _int_entries(res), norm) is None
            rejected += _agree_on_tampers(rng, cone, j, res, norm)
            checked += 1
        # normalization None: the sum(x) = 1 slice the cone holds cleared
        try:
            res = lp_min(cone, j)
        except (Infeasible, Unbounded):
            continue
        assert fraction_verify(cone, j, res) is None
        assert integer_verify(cone, j, _int_entries(res), None) is None
        default_rejected += _agree_on_tampers(rng_default, cone, j, res, None)
        default_checked += 1
    assert checked > 80 and rejected > 5 * checked
    assert default_checked > 80 and default_rejected > 5 * default_checked


def test_lp_min_results_pass_the_fraction_reference():
    rng = random.Random(17)
    checked = 0
    for _ in range(150):
        k = rng.randint(2, 6)
        rows = [[rng.choice([rng.randint(-5, 5), Q(rng.randint(-5, 5), rng.randint(1, 4))])
                 for _ in range(k)] for _ in range(rng.randint(1, 8))]
        norms = (None, (tuple(Q(rng.randint(-1, 3), rng.randint(1, 2)) for _ in range(k)),
                        Q(rng.choice([-2, 1, 3]), rng.randint(1, 3))))
        cone = ConeH.from_rows(rows)
        for norm in norms:
            for j in range(k):  # warm starts in order, then cold
                for c in (cone, ConeH.from_rows(rows)):
                    try:
                        res = lp_min(c, j, norm)
                    except (Infeasible, Unbounded):
                        continue
                    assert fraction_verify(c, j, res, norm) is None
                    checked += 1
    assert checked > 400


def test_verify_rejects_a_negative_multiplier_on_a_zero_row():
    # a zero row drops out of the Farkas identity and has slack 0, so only
    # the sign check sees its multiplier
    cone = ConeH.from_rows([[3, -1], [0, 0], [-1, 1]])
    res = lp_min(cone, 0)
    bad = replace(res, row_multipliers=_set(res.row_multipliers, 1, Q(-1, 2)))
    assert fraction_verify(cone, 0, bad) == "negative row multiplier"
    assert integer_verify(cone, 0, bad) == "negative row multiplier"


@pytest.mark.parametrize("index", [99, -1])
def test_verify_rejects_objective_index_out_of_range(index):
    cone = ConeH.from_rows([[3, -1], [-1, 1]])
    res = lp_min(cone, 1)  # index -1 would read this coordinate
    with pytest.raises(DimensionMismatch, match="objective index out of range"):
        verify_lp_minimum(cone, index, res)


def _outcome(cone, j, norm):
    try:
        res = lp_min(cone, j, norm)
    except (Infeasible, Unbounded) as exc:
        return type(exc)
    assert verify_lp_minimum(cone, j, res, norm)
    return res.value


def test_warm_start_matches_cold_start():
    rng = random.Random(13)
    kinds = set()
    for _ in range(120):
        k = rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(1, 6))]
        norms = (None, (tuple(Q(rng.randint(-1, 3)) for _ in range(k)),
                        Q(rng.choice([-2, 1, 3]))))
        calls = [(j, norm) for j in range(k) for norm in norms]
        cold = {call: _outcome(ConeH.from_rows(rows), *call) for call in calls}
        # in order, in reverse, and one normalization after the other
        for visit in (calls, calls[::-1], calls[::2] + calls[1::2]):
            cone = ConeH.from_rows(rows)
            assert {call: _outcome(cone, *call) for call in visit} == cold
        kinds.update(o if isinstance(o, type) else "min" for o in cold.values())
    assert kinds == {"min", Infeasible, Unbounded}


def test_warm_start_keeps_the_pivot_limit_per_call(monkeypatch):
    pivots = [0]

    def counted(step):
        def counting_step(self, r, e):
            pivots[0] += 1
            return step(self, r, e)
        return counting_step

    # every pivot that counts toward the limit: the simplex pivots and the
    # free variables' entries in phase one
    for name in ("_pivot", "_freeze"):
        monkeypatch.setattr(cone_module._Tableau, name,
                            counted(getattr(cone_module._Tableau, name)))
    matrix = pairing_matrix(10)
    cone = ConeH.from_rows(matrix)
    per_call = []
    for j in range(cone.num_vars):
        before = pivots[0]
        lp_min(cone, j)
        per_call.append(pivots[0] - before)
    assert sum(per_call) > max(per_call)
    monkeypatch.setattr(cone_module, "_PIVOT_LIMIT", max(per_call))
    cone = ConeH.from_rows(matrix)
    for j in range(cone.num_vars):
        lp_min(cone, j)
    monkeypatch.setattr(cone_module, "_PIVOT_LIMIT", max(per_call) - 1)
    cone = ConeH.from_rows(matrix)
    with pytest.raises(PivotLimitExceeded):
        for j in range(cone.num_vars):
            lp_min(cone, j)


def _gauss_jordan_phase_one(cone, norm):
    """Reference phase one that rewrites every row at every free pivot."""
    k, m = cone.num_vars, len(cone.rows)
    art = k + m
    rows = []
    for _, ints in cone._int_rows:
        row = [1] + [0] * (k + 1)
        for j, num in ints:
            row[1 + j] = -num
        rows.append(row)
    d, norm_ints, norm_rhs = norm
    sign = 1 if norm_rhs > 0 else -1
    rows.append([1] + [sign * a for a in norm_ints] + [sign * norm_rhs])
    tab = cone_module._Tableau(rows, [k + i for i in range(m)] + [art],
                               list(range(k)), k)
    for j in range(k):
        c = tab.nonbasic.index(j)
        r = next((i for i, b in enumerate(tab.basis) if b >= k and tab.rows[i][1 + c]),
                 None)
        if r is not None:
            cone_module._pivot_either_sign(tab, r, c)
    tab.set_objective(art)
    tab.optimize()
    if art in tab.basis:
        r = tab.basis.index(art)
        if tab.rows[r][-1]:
            raise Infeasible("normalized cone slice is empty")
        nonzero = [c for c in range(k) if tab.rows[r][1 + c]]
        if not nonzero:
            raise ConeError("degenerate artificial row cannot be pivoted out")
        cone_module._pivot_either_sign(tab, r, min(nonzero, key=tab.nonbasic.__getitem__))
    tab.banned.add(art)
    return tab, sign * d


def _phase_one_outcome(phase_one, cone, norm):
    try:
        tab, scale = phase_one(cone, norm)
    except ConeError as exc:
        return type(exc)
    return tab.rows, tab.basis, tab.nonbasic, tab.pivots, scale, tab.z, tab.banned


def test_phase_one_matches_gauss_jordan_on_pairing_matrices():
    for n in range(3, 61):
        cone = ConeH.from_rows(pairing_matrix(n))
        expected = _phase_one_outcome(_gauss_jordan_phase_one, cone, cone._norm)
        assert not isinstance(expected, type)
        assert _phase_one_outcome(cone_module._phase_one, cone, cone._norm) == expected


def test_phase_one_matches_gauss_jordan_on_random_cones():
    rng = random.Random(29)
    kinds = set()
    for trial in range(1000):
        k = rng.randint(2, 6)
        rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(1, 8))]
        if trial % 3 == 0:
            rows = [[Q(a, rng.randint(1, 4)) for a in row] for row in rows]
        norm = None
        if trial % 2:
            norm = (tuple(Q(rng.randint(-2, 3), rng.randint(1, 2)) for _ in range(k)),
                    Q(rng.choice([-2, 1, 3])))
        cone = ConeH.from_rows(rows)
        cleared = cone_module._clear_normalization(norm) if norm else cone._norm
        expected = _phase_one_outcome(_gauss_jordan_phase_one, cone, cleared)
        assert _phase_one_outcome(cone_module._phase_one, cone, cleared) == expected
        if expected is Infeasible:
            kinds.add(Infeasible)
            continue
        for j in range(k):
            try:
                lp_min(cone, j, norm)
            except Unbounded:
                kinds.add(Unbounded)
            else:
                kinds.add("min")
    assert kinds == {"min", Infeasible, Unbounded}


def test_warm_state_is_not_part_of_equality():
    a = ConeH.from_rows([[3, -1], [-1, 1]])
    b = ConeH.from_rows([[3, -1], [-1, 1]])
    lp_min(a, 0)
    assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# orthant containment certificates
# ---------------------------------------------------------------------------

def test_certificate_identity_rows():
    cert = dual_contained_in_orthant([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert cert.minima == (0, 0, 0)
    assert cert.passed


def test_certificate_with_pinned_coordinate():
    # adjoining -x0 >= 0 to the orthant forces x0 = 0 on the slice
    cert = dual_contained_in_orthant([[1, 0], [0, 1], [-1, 0]])
    assert cert.minima == (0, 1)
    assert cert.passed


def test_certificate_failure_detected():
    cert = dual_contained_in_orthant([[1, 2], [2, 1]])
    assert cert.minima == (-1, -1)
    assert not cert.passed


def test_certificate_unbounded_coordinate_propagates():
    # {x0 >= |x1|} contains rays leaving the orthant; the x1 minimum over the
    # normalized slice is unbounded below, which is a reported failure too
    with pytest.raises(Unbounded):
        dual_contained_in_orthant([[1, 1], [1, -1]])


def test_certificate_infeasible_slice_propagates():
    with pytest.raises(Infeasible):
        dual_contained_in_orthant([[1, 0], [-1, 0], [0, 1], [0, -1]])


def test_certificate_rejects_zero_matrix():
    with pytest.raises(ValueError):
        dual_contained_in_orthant([[0, 0], [0, 0]])


def test_certificate_json_round_trip():
    cert = dual_contained_in_orthant([[3, -1], [-1, 1]], ["B[2]", "B[3]"])
    text = json.dumps(cert.as_dict(), sort_keys=True)  # as the CLI prints it
    data = json.loads(text)
    assert data["pass"] is True
    assert data["feasible"] is True
    assert data["minima"] == {"B[2]": "1/4", "B[3]": "1/2"}
    assert data["witnesses"][0] == ["1/4", "3/4"]
    assert json.dumps(data, sort_keys=True) == text


def test_certificate_requires_one_entry_per_label():
    cert = dual_contained_in_orthant(pairing_matrix(5))
    fields = (cert.minima, cert.witnesses, cert.row_multipliers,
              cert.normalization_multipliers)
    assert len(cert.labels) == 4
    truncations = [
        tuple(() for _ in fields),
        tuple(f[:2] for f in fields),
        (cert.minima, cert.witnesses[:3], cert.row_multipliers,
         cert.normalization_multipliers),
        (cert.minima, cert.witnesses, cert.row_multipliers,
         cert.normalization_multipliers + (Q(0),)),
    ]
    for short in truncations:
        with pytest.raises(ConeError, match="per label required"):
            Certificate(cert.labels, cert.constraints, *short)


def test_certificate_validates_on_construction():
    cert = dual_contained_in_orthant([[3, -1], [-1, 1]])
    with pytest.raises(ConeError, match="recorded minimum"):
        Certificate(cert.labels, cert.constraints,
                    (cert.minima[0] + 1, cert.minima[1]),
                    cert.witnesses, cert.row_multipliers,
                    cert.normalization_multipliers)


# ---------------------------------------------------------------------------
# effectivity threshold
# ---------------------------------------------------------------------------

def test_kodaira_energy_full_space_example():
    base = (Q(1, 3), Q(0), Q(-1))
    direction = (Q(1, 3), Q(1), Q(2))
    assert kodaira_energy(base, direction) == Q(1, 2)


def test_kodaira_energy_zero_base():
    assert kodaira_energy((0, 0), (1, 2)) == 0


def test_kodaira_energy_dead_coordinate():
    with pytest.raises(NotAttainable):
        kodaira_energy((-1, 0), (0, 1))


def test_kodaira_energy_crossing_bounds():
    # needs a >= 1 from the first coordinate but a <= 0 from the second
    with pytest.raises(NotAttainable):
        kodaira_energy((-1, 0), (1, -1))


def test_kodaira_energy_minus_infinity():
    with pytest.raises(MinusInfinity):
        kodaira_energy((1,), (-1,))


def test_kodaira_energy_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kodaira_energy((1, 2), (1,))


def kodaira_via_lp(base, direction):
    """Independent route: minimize a over {(a, t) : a*dir + t*base >= 0,
    t = 1} with the simplex engine."""
    rows = [[d, b] for b, d in zip(base, direction)]
    cone = ConeH.from_rows(rows, ["a", "t"])
    return lp_min(cone, 0, ((Q(0), Q(1)), Q(1))).value


def test_kodaira_energy_agrees_with_lp_route():
    from effcone.fiber import fiber_class, to_A_basis
    from effcone.picard import kodaira_full, reduce_to_B, standard_class

    for n in range(3, 13):
        base = reduce_to_B(standard_class(n, "canonical")
                           + standard_class(n, "boundary")).b_vector()
        direction = reduce_to_B(standard_class(n, "hyperplane")).b_vector()
        assert kodaira_via_lp(base, direction) == kodaira_full(n) == Q(2, n)
        k = to_A_basis(fiber_class(n, "K"))
        lh = to_A_basis(fiber_class(n, "Lhalf"))
        assert kodaira_via_lp((k.a_sub + 1, k.a_top + 1),
                              (lh.a_sub, lh.a_top)) == Q(2, n)

    rng = random.Random(77)
    for _ in range(40):
        k = rng.randint(1, 5)
        base = [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)]
        direction = [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)]
        try:
            threshold = kodaira_energy(base, direction)
        except (NotAttainable, MinusInfinity):
            continue
        assert kodaira_via_lp(base, direction) == threshold


def test_kodaira_energy_shift_covariance():
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randint(1, 6)
        base = [Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k)]
        direction = [Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k)]
        if not any(d > 0 for d in direction):
            continue
        shift = Q(rng.randint(-20, 20), rng.randint(1, 7))
        try:
            plain = kodaira_energy(base, direction)
        except NotAttainable:
            continue
        shifted = [b + shift * d for b, d in zip(base, direction)]
        try:
            moved = kodaira_energy(shifted, direction)
        except NotAttainable:
            pytest.fail("shift changed attainability")
        assert moved == plain - shift


# ---------------------------------------------------------------------------
# Fourier-Motzkin projection
# ---------------------------------------------------------------------------

def test_fm_single_step_example():
    cone = ConeH.from_rows([[3, -1], [-1, 1]], ["d2", "d3"])
    projected = fourier_motzkin_project(cone, 1)
    assert projected.labels == ("d2",)
    assert projected.rows == ((Q(1),),)  # one combination, reduced: d2 >= 0


def test_fm_absent_variable():
    cone = ConeH.from_rows([[1, 2, 0], [0, -1, 0]], ["x", "y", "z"])
    projected = fourier_motzkin_project(cone, 2)
    assert projected.labels == ("x", "y")
    assert projected.rows == ((Q(1), Q(2)), (Q(0), Q(-1)))


def test_fm_full_elimination_of_feasible_system():
    cone = ConeH.from_rows([[1, -1, 2], [0, 1, -1], [1, 1, 1]])
    for _ in range(2):
        cone = fourier_motzkin_project(cone, 0)
    assert all(len(r) == 1 for r in cone.rows)
    # homogeneous systems stay feasible: no contradictory constant rows
    assert ConeH.from_rows(cone.rows or [[0]], cone.labels or ("x",))


def test_fm_projection_sound_and_complete():
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randint(2, 4)
        m = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        cone = ConeH.from_rows(rows)
        var = rng.randrange(k)
        projected = fourier_motzkin_project(cone, var)
        for _ in range(30):
            point = [Q(rng.randint(-6, 6), 2) for _ in range(k - 1)]
            if not contains(projected, point):
                continue
            # completeness: a lift must exist; construct it explicitly
            lower, upper = None, None
            feasible = True
            for row in cone.rows:
                coef = row[var]
                rest = sum(c * p for c, p in
                           zip([c for j, c in enumerate(row) if j != var], point))
                if coef > 0:
                    bound = -rest / coef
                    lower = bound if lower is None or bound > lower else lower
                elif coef < 0:
                    bound = -rest / coef
                    upper = bound if upper is None or bound < upper else upper
                elif rest < 0:
                    feasible = False
            assert feasible
            assert lower is None or upper is None or lower <= upper
            if lower is None and upper is None:
                lift = Q(0)
            elif lower is None:
                lift = upper
            elif upper is None:
                lift = lower
            else:
                lift = (lower + upper) / 2
            full = list(point)
            full.insert(var, lift)
            assert contains(cone, full)
        # soundness: points of the original cone project into the output
        for _ in range(10):
            point = [Q(rng.randint(-6, 6), 2) for _ in range(k)]
            if contains(cone, point):
                shadow = [p for j, p in enumerate(point) if j != var]
                assert contains(projected, shadow)
