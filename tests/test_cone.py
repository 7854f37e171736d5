import json
import random
from copy import deepcopy
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, islice
from math import comb, gcd, lcm

import pytest

from effcone import cone as cone_module
from effcone.cone import (
    Certificate,
    ConeError,
    ConeH,
    DimensionMismatch,
    Infeasible,
    LpResult,
    PivotLimitExceeded,
    Unbounded,
    dual_contained_in_orthant,
    kodaira_energy,
    lp_min,
    verify_lp_minimum,
)
from effcone.picard import cone_certificate, pairing_matrix

Q = Fraction


def x_labels(rows) -> list[str]:
    """x0, x1, ...: one label per column of rows."""
    return [f"x{j}" for j in range(len(rows[0]))]


def cone_of(rows, labels=None) -> ConeH:
    """The cone on rows, its columns labelled x0, x1, ... unless labels
    are given."""
    return ConeH(rows, x_labels(rows) if labels is None else labels)


def certify(rows) -> Certificate:
    """The orthant-containment certificate of rows, labelled x0, x1, ..."""
    return dual_contained_in_orthant(rows, x_labels(rows))


# ---------------------------------------------------------------------------
# Fraction view of an LpResult: what the reference re-check reads and the
# tampers edit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractionResult:
    value: Fraction
    witness: tuple[Fraction, ...]
    row_multipliers: tuple[Fraction, ...]
    normalization_multiplier: Fraction


def to_fractions(res: LpResult) -> FractionResult:
    return FractionResult(res.value,
                          tuple(Q(a, res.witness_den) for a in res.witness),
                          tuple(Q(a, res.multiplier_den) for a in res.row_multipliers),
                          Q(res.normalization_multiplier, res.multiplier_den))


def from_fractions(fr: FractionResult) -> LpResult:
    """The reduced integer blocks of fr, each over the lcm of its
    denominators."""
    d_x = lcm(*(q.denominator for q in fr.witness))
    sigma = lcm(*(q.denominator for q in (*fr.row_multipliers,
                                          fr.normalization_multiplier)))
    return LpResult(fr.value, tuple(int(q * d_x) for q in fr.witness), d_x,
                    tuple(int(q * sigma) for q in fr.row_multipliers),
                    int(fr.normalization_multiplier * sigma), sigma)


def scaled(res: LpResult, g: int, h: int) -> LpResult:
    """res with its witness block, denominator too, times g and its
    multiplier block times h."""
    return replace(res, witness=tuple(g * a for a in res.witness),
                   witness_den=g * res.witness_den,
                   row_multipliers=tuple(h * a for a in res.row_multipliers),
                   normalization_multiplier=h * res.normalization_multiplier,
                   multiplier_den=h * res.multiplier_den)


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
    cone = cone_of(hom, labels)
    for j in range(k):
        if j == objective_index:
            continue
        var = cone.labels.index(f"x{j}")
        cone = fourier_motzkin_project(cone, var)
    xj = cone.labels.index(f"x{objective_index}")
    lower, upper = None, None
    for row in cone.rows:
        alpha, beta = Fraction(row[xj]), Fraction(row[1 - xj])
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
    cone = cone_of([[3, -1], [-1, 1]], ["d2", "d3"])
    res = lp_min(cone, 0)
    assert res.value == Q(1, 4)
    assert to_fractions(res).witness == (Q(1, 4), Q(3, 4))
    assert verify_lp_minimum(cone, 0, res)
    # the feasible slice is the segment from (1/4, 3/4) to (1/2, 1/2)
    res = lp_min(cone, 1)
    assert res.value == Q(1, 2)
    assert to_fractions(res).witness == (Q(1, 2), Q(1, 2))


def test_lp_min_orthant_boundary():
    cone = cone_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    res = lp_min(cone, 1)
    assert res.value == 0


def test_lp_min_infeasible():
    cone = cone_of([[1], [-1]])
    with pytest.raises(Infeasible):
        lp_min(cone, 0)


def test_lp_min_unbounded():
    cone = cone_of([[0, 1]])
    with pytest.raises(Unbounded):
        lp_min(cone, 0)


def test_lp_min_rank_deficient_constraints():
    # rank 2 of 3: the lineality of {x : rows . x >= 0} is spanned by
    # (0, 1, -1), which lies in sum(x) = 0, so x1 and x2 run off along it
    # while x0 = 1 across it is pinned
    rows = [[1, 0, 0], [0, 1, 1], [0, -1, -1]]
    cone = cone_of(rows)
    res = lp_min(cone, 0)
    assert res.value == 1 and fm_minimum(rows, 0) == ("min", 1)
    for j in (1, 2):
        assert fm_minimum(rows, j) == ("unbounded",)
        with pytest.raises(Unbounded):
            lp_min(cone, j)
    # x0 enters on the row, x1 on the normalization row, and x2 appears in
    # no row left: it stays nonbasic, its reduced cost nonzero only as the
    # objective
    rows = [[1, 0, 0]]
    cone = cone_of(rows)
    assert lp_min(cone, 0).value == 0 and fm_minimum(rows, 0) == ("min", 0)
    (tab,) = cone._warm
    assert tab.basis[-1] == 1 and 2 in tab.nonbasic
    assert fm_minimum(rows, 2) == ("unbounded",)
    with pytest.raises(Unbounded):
        lp_min(cone, 2)
    assert not cone._warm  # an error leaves no tableau: phase one reruns
    assert lp_min(cone, 0).value == 0


def test_lp_min_coordinate_only_the_normalization_touches():
    rows = [[1, -1, 0], [0, 1, 0]]  # x0 >= x1 >= 0, x2 unconstrained
    cone = cone_of(rows)
    res = lp_min(cone, 0)
    assert res.value == 0 and to_fractions(res).witness == (0, 0, 1)
    assert fm_minimum(rows, 2) == ("unbounded",)
    with pytest.raises(Unbounded):
        lp_min(cone, 2)


def test_lp_min_degenerate_ties_terminate():
    # scaled duplicate rows force degenerate pivots at every step
    rows = [[1, -1, 0], [-1, 1, 0], [2, -2, 0], [5, -5, 0],
            [1, 0, -1], [3, 0, -3], [0, 1, 0], [0, 3, 0]]
    cone = cone_of(rows)
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
        cone = cone_of(rows)
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
    cone = cone_of([[3, -1], [-1, 1]])
    res = lp_min(cone, 0)
    assert isinstance(res.value, Fraction)
    # the blocks are ints over positive int denominators
    assert all(type(v) is int for v in res.witness)
    assert all(type(v) is int for v in res.row_multipliers)
    assert type(res.normalization_multiplier) is int
    assert all(type(d) is int and d > 0 for d in (res.witness_den, res.multiplier_den))


def test_verify_rejects_tampered_result():
    cone = cone_of([[3, -1], [-1, 1]])
    res = lp_min(cone, 0)
    bad = replace(res, value=res.value + 1)
    with pytest.raises(ConeError, match="recorded minimum"):
        verify_lp_minimum(cone, 0, bad)


def fraction_verify(cone, objective_index, result):
    """Reference re-check in Fraction arithmetic, straight from the
    definitions on the slice sum(x) = 1; returns the first failing check's
    message or None.  The sums skip zero terms, which add exactly 0."""
    x = result.witness
    slacks = [sum(a * b for a, b in zip(row, x) if a and b) for row in cone.rows]
    mus, nu = result.row_multipliers, result.normalization_multiplier
    checks = (
        (all(s >= 0 for s in slacks), "witness violates a cone constraint"),
        (sum(x) == 1, "witness violates the normalization"),
        (x[objective_index] == result.value,
         "witness coordinate does not equal the recorded minimum"),
        (len(mus) == len(cone.rows), "one multiplier per constraint row required"),
        (all(mu >= 0 for mu in mus), "negative row multiplier"),
        (all(sum(mu * row[j] for mu, row in zip(mus, cone.rows) if mu and row[j]) + nu
             == (1 if j == objective_index else 0) for j in range(cone.num_vars)),
         "dual multipliers do not reproduce the objective"),
        (nu == result.value, "dual objective does not match the minimum"),
        (all(mu * s == 0 for mu, s in zip(mus, slacks)), "complementary slackness fails"),
    )
    return next((message for ok, message in checks if not ok), None)


def integer_verify(cone, objective_index, result: LpResult):
    try:
        verify_lp_minimum(cone, objective_index, result)
    except ConeError as exc:
        return str(exc)
    return None


# Rows whose minimum has fractional witness entries and multipliers, so
# that both scalings in the integer re-check (D and q) are nontrivial.
TAMPER_ROWS = [[3, -1, 0], [-1, 1, 0], [7, 0, -10], [0, 0, 1], [1, 1, 1]]
# a feasible point of the slice where row 0 (positive multiplier) is slack
SUBOPTIMAL = (Q(10, 27), Q(10, 27), Q(7, 27))


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
    cone = cone_of(TAMPER_ROWS)
    res = to_fractions(lp_min(cone, 0))
    assert res.value == Q(10, 47)
    assert res.row_multipliers[0] > 0 and res.row_multipliers[1] == 0
    tamper, message = TAMPERS[case]
    bad = tamper(res)
    with pytest.raises(ConeError, match=message):
        verify_lp_minimum(cone, 0, from_fractions(bad))
    assert fraction_verify(cone, 0, bad) == integer_verify(cone, 0, from_fractions(bad))


# a denominator that is not positive, and a whole block negated with its
# denominator (the same rationals): each is rejected before any other check
DENOMINATOR_TAMPERS = {
    "witness denominator 0": lambda r: replace(r, witness_den=0),
    "witness denominator -1": lambda r: replace(r, witness_den=-1),
    "witness block negated": lambda r: replace(
        r, witness=tuple(-a for a in r.witness), witness_den=-r.witness_den),
    "multiplier denominator 0": lambda r: replace(r, multiplier_den=0),
    "multiplier denominator -1": lambda r: replace(r, multiplier_den=-1),
    "multiplier block negated": lambda r: scaled(r, 1, -1),
}


@pytest.mark.parametrize("case", list(DENOMINATOR_TAMPERS))
def test_verify_rejects_a_denominator_that_is_not_positive(case):
    cone = cone_of(TAMPER_ROWS)
    res = lp_min(cone, 0)
    block = "witness" if case.startswith("witness") else "multiplier"
    with pytest.raises(ConeError, match=f"^{block} denominator must be positive$"):
        verify_lp_minimum(cone, 0, DENOMINATOR_TAMPERS[case](res))


def _agree_on_tampers(rng, cone, j, res):
    """Tamper one field of the Fraction view res six times; both re-checks
    must agree on each tampered result, also with both of its integer blocks
    scaled by a common factor.  The reference never rejects one for
    complementary slackness alone: given its earlier checks, weak duality
    makes sum_i mu_i * slack_i zero.  Returns how many the reference
    rejects."""
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
        expected = fraction_verify(cone, j, bad)
        assert expected != "complementary slackness fails"
        blocks = from_fractions(bad)
        assert integer_verify(cone, j, blocks) == expected
        assert integer_verify(cone, j, scaled(blocks, rng.randint(2, 9),
                                              rng.randint(2, 9))) == expected
        rejected += expected is not None
    return rejected


def test_integer_verify_matches_fraction_reference():
    rng = random.Random(31)
    checked = rejected = 0
    for _ in range(400):
        k = rng.randint(2, 4)
        rows = [canonical_ray([Q(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(k)])
                for _ in range(rng.randint(1, 5))]
        cone = cone_of(rows)
        j = rng.randrange(k)
        try:
            res = lp_min(cone, j)
        except (Infeasible, Unbounded):
            continue
        view = to_fractions(res)
        assert fraction_verify(cone, j, view) is None
        assert integer_verify(cone, j, from_fractions(view)) is None
        assert integer_verify(cone, j, scaled(res, rng.randint(2, 9),
                                              rng.randint(2, 9))) is None
        rejected += _agree_on_tampers(rng, cone, j, view)
        checked += 1
    assert checked > 80 and rejected > 5 * checked


def test_lp_min_results_pass_the_fraction_reference():
    rng = random.Random(17)
    checked = 0
    for _ in range(600):
        k = rng.randint(2, 6)
        rows = [canonical_ray([rng.choice([rng.randint(-5, 5),
                                           Q(rng.randint(-5, 5), rng.randint(1, 4))])
                               for _ in range(k)]) for _ in range(rng.randint(1, 8))]
        cone = cone_of(rows)
        for j in range(k):  # warm starts in order, then cold
            for c in (cone, cone_of(rows)):
                try:
                    res = lp_min(c, j)
                except (Infeasible, Unbounded):
                    continue
                assert fraction_verify(c, j, to_fractions(res)) is None
                checked += 1
    assert checked > 400


def test_verify_rejects_a_negative_multiplier_on_a_zero_row():
    # a zero row drops out of the Farkas identity and has slack 0, so only
    # the sign check sees its multiplier
    cone = cone_of([[3, -1], [0, 0], [-1, 1]])
    res = to_fractions(lp_min(cone, 0))
    bad = replace(res, row_multipliers=_set(res.row_multipliers, 1, Q(-1, 2)))
    assert fraction_verify(cone, 0, bad) == "negative row multiplier"
    assert integer_verify(cone, 0, from_fractions(bad)) == "negative row multiplier"


@pytest.mark.parametrize("index", [99, -1])
def test_verify_rejects_objective_index_out_of_range(index):
    cone = cone_of([[3, -1], [-1, 1]])
    res = lp_min(cone, 1)  # index -1 would read this coordinate
    with pytest.raises(DimensionMismatch, match="objective index out of range"):
        verify_lp_minimum(cone, index, res)


def _outcome(cone, j):
    try:
        res = lp_min(cone, j)
    except (Infeasible, Unbounded) as exc:
        return type(exc)
    assert verify_lp_minimum(cone, j, res)
    return res.value


def warm_start_rows():
    """The random integer cones of the warm-start suite."""
    rng = random.Random(13)
    for _ in range(120):
        k = rng.randint(2, 5)
        yield [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(1, 6))]


def phase_one_rows():
    """The random cones of the phase-one suite, every third one with rows
    scaled from fractions."""
    rng = random.Random(29)
    for trial in range(1000):
        k = rng.randint(2, 6)
        rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(1, 8))]
        if trial % 3 == 0:
            rows = [canonical_ray([Q(a, rng.randint(1, 4)) for a in row]) for row in rows]
        yield rows


def test_warm_start_matches_cold_start():
    kinds = set()
    for rows in warm_start_rows():
        calls = range(len(rows[0]))
        cold = {j: _outcome(cone_of(rows), j) for j in calls}
        # in order, in reverse, and the even coordinates before the odd ones
        for visit in (calls, calls[::-1], [*calls[::2], *calls[1::2]]):
            cone = cone_of(rows)
            assert {j: _outcome(cone, j) for j in visit} == cold
        kinds.update(o if isinstance(o, type) else "min" for o in cold.values())
    assert kinds == {"min", Infeasible, Unbounded}


def test_warm_start_keeps_the_pivot_limit_per_call(monkeypatch):
    pivots = [0]
    count_pivot = cone_module._Tableau._count_pivot

    def counted(self):
        pivots[0] += 1
        return count_pivot(self)

    # every pivot that counts toward the limit: the simplex pivots and the
    # free variables' entries in phase one
    monkeypatch.setattr(cone_module._Tableau, "_count_pivot", counted)
    matrix = pairing_matrix(10)
    cone = cone_of(matrix)
    per_call = []
    for j in range(cone.num_vars):
        before = pivots[0]
        lp_min(cone, j)
        per_call.append(pivots[0] - before)
    assert sum(per_call) > max(per_call)
    monkeypatch.setattr(cone_module, "_PIVOT_LIMIT", max(per_call))
    cone = cone_of(matrix)
    for j in range(cone.num_vars):
        lp_min(cone, j)
    monkeypatch.setattr(cone_module, "_PIVOT_LIMIT", max(per_call) - 1)
    cone = cone_of(matrix)
    with pytest.raises(PivotLimitExceeded):
        for j in range(cone.num_vars):
            lp_min(cone, j)


def _gauss_jordan_phase_one(cone):
    """Reference phase one that rewrites every row at every free pivot: it
    reads every row in full before each one."""
    k, m = cone.num_vars, len(cone.rows)
    art = k + m
    rows = []
    for ints in cone._int_rows:
        row = [1] + [0] * (k + 1)
        for j, num in ints:
            row[1 + j] = -num
        rows.append(row)
    rows.append([1] * (k + 2))
    tab = cone_module._Tableau(rows, [k + i for i in range(m)] + [art],
                               list(range(k)), k)

    def pivot(r, c):
        tab._pivot(r, c, [row[1 + c] for row in map(tab.row, range(len(rows)))])

    for j in range(k):
        c = tab.nonbasic.index(j)
        r = next((i for i, b in enumerate(tab.basis) if b >= k and tab.row(i)[1 + c]),
                 None)
        if r is not None:
            pivot(r, c)
    if art in tab.basis:  # minimized only while it is basic
        tab.set_objective(art)
        tab.optimize()
    if art in tab.basis:
        r = tab.basis.index(art)
        if tab.row(r)[-1]:
            raise Infeasible("cone slice sum(x) = 1 is empty")
        nonzero = [c for c in range(k) if tab.row(r)[1 + c]]
        if not nonzero:
            raise ConeError("degenerate artificial row cannot be pivoted out")
        pivot(r, min(nonzero, key=tab.nonbasic.__getitem__))
    return tab


def _phase_one_outcome(phase_one, cone):
    try:
        tab = phase_one(cone)
    except ConeError as exc:
        return type(exc)
    rows = [tab.row(i) for i in range(len(tab.rows))]  # owed substitutions applied
    return rows, tab.basis, tab.nonbasic, tab.pivots, tab.z


def test_phase_one_matches_gauss_jordan_on_pairing_matrices():
    for n in range(3, 61):
        cone = cone_of(pairing_matrix(n))
        expected = _phase_one_outcome(_gauss_jordan_phase_one, cone)
        assert not isinstance(expected, type)
        assert _phase_one_outcome(cone_module._phase_one, cone) == expected


def test_phase_one_matches_gauss_jordan_on_random_cones():
    kinds = set()
    for rows in phase_one_rows():
        cone = cone_of(rows)
        expected = _phase_one_outcome(_gauss_jordan_phase_one, cone)
        assert _phase_one_outcome(cone_module._phase_one, cone) == expected
        if expected is Infeasible:
            kinds.add(Infeasible)
            continue
        for j in range(cone.num_vars):
            try:
                lp_min(cone, j)
            except Unbounded:
                kinds.add(Unbounded)
            else:
                kinds.add("min")
    assert kinds == {"min", Infeasible, Unbounded}


def test_phase_one_leaves_the_artificial_variable_nonbasic(monkeypatch):
    # while the artificial variable is basic its value stays 1 (see
    # _phase_one), so it is basic at the phase-one optimum exactly when the
    # slice is empty, and never basic at 0
    optimize, pivot = cone_module._Tableau.optimize, cone_module._Tableau._pivot
    basic_at_optimum = []

    def artificial(tab):
        return tab.num_free + len(tab.rows) - 1

    def value(tab):
        if artificial(tab) not in tab.basis:
            return None
        row = tab.row(tab.basis.index(artificial(tab)))
        return Q(row[-1], row[0])

    def checked_pivot(self, r, c, col):
        pivot(self, r, c, col)
        assert value(self) in (None, 1)

    def checked_optimize(self):
        assert value(self) in (None, 1)
        optimize(self)
        assert value(self) in (None, 1)
        basic_at_optimum.append(value(self) == 1)

    monkeypatch.setattr(cone_module._Tableau, "_pivot", checked_pivot)
    monkeypatch.setattr(cone_module._Tableau, "optimize", checked_optimize)
    infeasible = returned = 0
    for rows in chain(phase_one_rows(), warm_start_rows()):
        try:
            tab = cone_module._phase_one(cone_of(rows))
        except Infeasible:
            infeasible += 1
            continue
        assert artificial(tab) not in tab.basis
        returned += 1
    assert sum(basic_at_optimum) == infeasible > 0 and returned > 0


def _ratio_test_reference(tab, cone, i, c):
    """(entry in column c, right-hand side) of bounded row i over its basic
    coefficient, as Fractions.  They are computed from the original equation
    of its basic variable, with each basic coordinate replaced by its free
    row, read through the substitutions that row owes without applying
    them to the tableau."""
    k = tab.num_free
    b = tab.basis[i]
    if b < k + len(cone.rows):  # s - row . x = 0
        coeffs, rhs = [-a for a in cone.rows[b - k]], Q(0)
    else:  # art + sum(x) = 1
        coeffs, rhs = [1] * k, Q(1)
    entry = Q(0)
    for j, a in enumerate(coeffs):
        if a and j in tab.basis:
            r = tab.basis.index(j)
            row = cone_module._substitute(tab.rows[r], tab.owed[r])
            entry -= Q(a * row[1 + c], row[0])
            rhs -= Q(a * row[-1], row[0])
        elif a and tab.nonbasic[c] == j:
            entry += a
    return entry, rhs


def _positive_multiple(pair, reference):
    """Whether pair == t * reference for some t > 0."""
    (a, b), (x, y) = pair, reference
    return a * y == b * x and all(u * w > 0 or u == w == 0 for u, w in ((a, x), (b, y)))


def test_deferred_ratio_test_reads_match_the_full_rows(monkeypatch):
    # at every ratio test, each bounded row's (entry, right-hand side) read
    # through the substitutions it owes is a positive multiple of the pair
    # in the full dictionary row, which a dropped or reordered one breaks;
    # and no row owes as many substitutions as it has entries
    column = cone_module._Tableau._column
    current = [None]  # the cone being solved
    owing = [0, 0]  # rows read owing one substitution, and two or more

    def checked_column(self, c):
        col = column(self, c)
        for i, b in enumerate(self.basis):
            assert len(self.owed[i]) < len(self.rows[i])
            if b >= self.num_free:
                pair = (col[i], self._entry(i, -1))
                assert _positive_multiple(pair, _ratio_test_reference(self, current[0], i, c))
                if self.owed[i]:
                    owing[len(self.owed[i]) > 1] += 1
        return col

    monkeypatch.setattr(cone_module._Tableau, "_column", checked_column)
    cones = chain((pairing_matrix(n) for n in range(3, 61)), phase_one_rows())
    for rows in cones:
        current[0] = cone_of(rows)
        for j in range(current[0].num_vars):
            try:
                lp_min(current[0], j)
            except (Infeasible, Unbounded):
                pass
    assert min(owing) > 0


@pytest.mark.parametrize("n", [3, 4, 10, 32, 100])
def test_bounded_rows_are_rewritten_at_most_once_per_pivot(monkeypatch, n):
    # a pivot rewrites z only; a bounded row is computed in full when it
    # leaves the basis or becomes the objective row
    counts = {"pivots": 0, "rewrites": 0}
    pivot, row = cone_module._Tableau._pivot, cone_module._Tableau.row

    def counted_pivot(self, r, c, col):
        counts["pivots"] += 1
        return pivot(self, r, c, col)

    def counted_row(self, i):
        counts["rewrites"] += bool(self.owed[i]) and self.basis[i] >= self.num_free
        return row(self, i)

    monkeypatch.setattr(cone_module._Tableau, "_pivot", counted_pivot)
    monkeypatch.setattr(cone_module._Tableau, "row", counted_row)
    cone_certificate(n)
    assert 0 < counts["rewrites"] <= counts["pivots"]


@pytest.mark.parametrize("n, calls, entries", [(32, 96, 5148), (100, 300, 50096)])
def test_certificate_row_rewrites_are_pinned(monkeypatch, n, calls, entries):
    # the rows a certificate rewrites, and the row entries they read: one
    # per entry of the row for each row substituted into it
    work = [0, 0]
    substitute = cone_module._substitute

    def counted(row, ops):
        work[0] += 1
        work[1] += len(row) * sum(len(terms) for _, terms in ops)
        return substitute(row, ops)

    monkeypatch.setattr(cone_module, "_substitute", counted)
    cone_certificate(n)
    assert work == [calls, entries]


def _full_row_point(tab):
    """The basic solution of tab's coordinates as Fractions, each read from
    its row in full on a deep copy, so tab itself is not rewritten; and
    whether any of those rows owed a substitution."""
    tab = deepcopy(tab)
    point = [Q(0)] * tab.num_free
    owing = False
    for i, v in enumerate(tab.basis):
        if v < tab.num_free:
            owing = owing or bool(tab.owed[i])
            row = tab.row(i)
            point[v] = Q(row[-1], row[0])
    return point, owing


def test_read_out_matches_the_full_rows():
    # after every lp_min, the witness read through the substitutions the
    # coordinates' rows owe is the basic solution of their full rows over
    # the least common denominator, and every result at one basis shares
    # one witness object, so there are as many as bases visited
    owing = 0
    n32 = pairing_matrix(32)
    for rows in chain([n32], islice(phase_one_rows(), 0, None, 4)):
        cone = cone_of(rows)
        basis = witness = None
        visits, witnesses = 0, []
        for j in range(cone.num_vars):
            try:
                res = lp_min(cone, j)
            except (Infeasible, Unbounded):
                basis = None  # the next call starts phase one again
                continue
            tab = cone._warm[0]
            point, owed = _full_row_point(tab)
            owing += owed
            assert (res.witness, res.witness_den) == tab.point
            assert [Q(x, res.witness_den) for x in res.witness] == point
            assert res.witness_den == lcm(*(x.denominator for x in point))
            if tab.basis != basis:
                basis, witness = tab.basis[:], res.witness
                visits += 1
            assert res.witness is witness
            witnesses.append(res.witness)
        assert len(set(map(id, witnesses))) == visits
        if rows is n32:
            assert len(set(witnesses)) == visits > 1
    assert owing > 0


def test_cone_rows_are_ints():
    cone = cone_of([[3, -1], [-1, 1]])
    assert all(type(a) is int for row in cone.rows for a in row)
    for bad in ([[Q(3), -1]], [[Q(3, 2), -1]], [[3.0, -1]], [[True, -1]]):
        with pytest.raises(ValueError, match="must be int"):
            cone_of(bad)


def test_warm_state_is_not_part_of_equality():
    a = cone_of([[3, -1], [-1, 1]])
    b = cone_of([[3, -1], [-1, 1]])
    lp_min(a, 0)
    assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# orthant containment certificates
# ---------------------------------------------------------------------------

def test_certificate_identity_rows():
    cert = certify([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert cert.minima == (0, 0, 0)
    assert cert.passed


def test_certificate_with_pinned_coordinate():
    # adjoining -x0 >= 0 to the orthant forces x0 = 0 on the slice
    cert = certify([[1, 0], [0, 1], [-1, 0]])
    assert cert.minima == (0, 1)
    assert cert.passed


def test_certificate_failure_detected():
    cert = certify([[1, 2], [2, 1]])
    assert cert.minima == (-1, -1)
    assert not cert.passed


def test_certificate_unbounded_coordinate_propagates():
    # {x0 >= |x1|} contains rays leaving the orthant; the x1 minimum over the
    # normalized slice is unbounded below, which is a reported failure too
    with pytest.raises(Unbounded):
        certify([[1, 1], [1, -1]])


def test_certificate_infeasible_slice_propagates():
    with pytest.raises(Infeasible):
        certify([[1, 0], [-1, 0], [0, 1], [0, -1]])


def test_certificate_rejects_zero_matrix():
    with pytest.raises(ConeError, match="constraint matrix is zero"):
        certify([[0, 0], [0, 0]])


def test_certificate_json_round_trip():
    cert = dual_contained_in_orthant([[3, -1], [-1, 1]], ["B[2]", "B[3]"])
    text = json.dumps(cert.as_dict(), sort_keys=True)  # as the CLI prints it
    data = json.loads(text)
    assert data["pass"] is True
    assert data["feasible"] is True
    assert data["minima"] == {"B[2]": "1/4", "B[3]": "1/2"}
    assert data["witnesses"][0] == ["1/4", "3/4"]
    assert json.dumps(data, sort_keys=True) == text


def test_certificate_formats_each_witness_once(monkeypatch):
    # the results of a certificate share their witnesses, and as_dict
    # formats each distinct one once, into lists that no two results share
    cert = cone_certificate(32)
    block = cone_module._block
    formatted = []

    def counted(nums, den):
        formatted.append(nums)
        return block(nums, den)

    monkeypatch.setattr(cone_module, "_block", counted)
    data = cert.as_dict()
    witnesses = {res.witness for res in cert.results}
    assert 1 < len(witnesses) < cert.cone.num_vars
    assert sum(nums in witnesses for nums in formatted) == len(witnesses)
    assert data["witnesses"] == [block(res.witness, res.witness_den)
                                 for res in cert.results]
    assert len(set(map(id, data["witnesses"]))) == cert.cone.num_vars
    assert data["constraints"] == [[str(a) for a in row] for row in cert.cone.rows]


def test_certificate_requires_one_entry_per_label():
    cert = certify(pairing_matrix(5))
    results = cert.results
    assert len(cert.labels) == 4
    truncations = [(), results[:2], results[:3], results + (results[0],)]
    for short in truncations:
        with pytest.raises(ConeError, match="per label required"):
            Certificate(cert.cone, short)
    # a witness block one entry short is caught by the re-check
    bad = replace(results[1], witness=results[1].witness[:3])
    with pytest.raises(DimensionMismatch, match="witness has wrong dimension"):
        Certificate(cert.cone, (results[0], bad, *results[2:]))


def test_certificate_validates_on_construction():
    cert = certify([[3, -1], [-1, 1]])
    bad = replace(cert.results[0], value=cert.minima[0] + 1)
    with pytest.raises(ConeError, match="recorded minimum"):
        Certificate(cert.cone, (bad, cert.results[1]))


def test_cone_certificate_builds_one_cone(monkeypatch):
    # the certificate re-checks its results on the cone lp_min solved on
    built = []
    post_init = ConeH.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ConeH, "__post_init__", counted)
    for n in (3, 5, 32):
        built.clear()
        cert = cone_certificate(n)
        assert len(built) == 1 and cert.cone is built[0]
        assert not cert.cone._warm  # the solver's tableau is not kept


def test_pairing_certificates_pass_the_fraction_reference():
    for n in range(3, 41):
        matrix = pairing_matrix(n)
        cone = cone_of(matrix)
        cert = certify(matrix)
        # B[2] has minimum 1/C(n+1, 3) and every other coordinate 0, except
        # at n = 3, where the rows are (3, -1) and (-1, 1)
        rest = (Q(1, 2),) if n == 3 else (Q(0),) * (n - 2)
        assert cert.minima == (Q(1, comb(n + 1, 3)),) + rest
        for j, res in enumerate(cert.results):
            assert res.witness_den > 0 and res.multiplier_den > 0
            assert fraction_verify(cone, j, to_fractions(res)) is None


# ---------------------------------------------------------------------------
# effectivity threshold
# ---------------------------------------------------------------------------

def test_kodaira_energy_full_space_example():
    base = (Q(1, 3), Q(0), Q(-1))
    direction = (Q(1, 3), Q(1), Q(2))
    assert kodaira_energy(base, direction) == Q(1, 2)


def test_kodaira_energy_zero_base():
    assert kodaira_energy((0, 0), (1, 2)) == 0


BIG_DIRECTION = r"every entry > 0 \(L big\)"


def test_kodaira_energy_needs_a_big_direction():
    # the threshold is taken along L big, in the open orthant: a zero
    # direction entry, or no entry at all, is refused
    for base, direction in (((1, 2), (Q(1, 2), 0)), ((), ())):
        with pytest.raises(ConeError, match=BIG_DIRECTION):
            kodaira_energy(base, direction)


def test_kodaira_energy_dead_coordinate():
    # a zero direction entry is not big, whatever the base entry there
    with pytest.raises(ConeError, match=BIG_DIRECTION):
        kodaira_energy((-1, 0), (0, 1))


def test_kodaira_energy_crossing_bounds():
    # a negative direction entry would bound a from above; it is not big
    with pytest.raises(ConeError, match=BIG_DIRECTION):
        kodaira_energy((-1, 0), (1, -1))


def test_kodaira_energy_minus_infinity():
    # every direction entry negative would leave a unbounded below
    with pytest.raises(ConeError, match=BIG_DIRECTION):
        kodaira_energy((1,), (-1,))


def test_kodaira_energy_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kodaira_energy((1, 2), (1,))


def test_kodaira_energy_takes_exact_entries():
    # an entry is an int or a Fraction: a float or a bool is refused, not
    # read as a Fraction
    for base, direction in (([0.5], [1]), ([0], [True]), ([1], [0.5])):
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            kodaira_energy(base, direction)


def kodaira_via_lp(base, direction):
    """Independent route: minimize a over {(a, t, z) : a*dir + t*base >= 0,
    z = -a, a + t + z = 1}, so t = 1, with the simplex engine."""
    rows = [[1, 0, 1], [-1, 0, -1]]  # z = -a
    rows += [[*canonical_ray([d, b]), 0] for b, d in zip(base, direction)]
    cone = cone_of(rows, ["a", "t", "z"])
    return lp_min(cone, 0).value


def test_kodaira_energy_agrees_with_lp_route():
    from effcone.fiber import fiber_class, to_A_basis
    from effcone.picard import kodaira_full, standard_coefficients
    from oracles import added, b_coordinates

    for n in range(3, 13):
        base = b_coordinates(n, added(standard_coefficients(n, "canonical"),
                                      standard_coefficients(n, "boundary")))
        direction = b_coordinates(n, standard_coefficients(n, "hyperplane"))
        assert kodaira_via_lp(base, direction) == kodaira_full(n) == Q(2, n)
        k_sub2, k_top2 = to_A_basis(fiber_class(n, "K"))
        lh_sub2, lh_top2 = to_A_basis(fiber_class(n, "Lhalf"))
        assert kodaira_via_lp((Q(k_sub2, 2) + 1, Q(k_top2, 2) + 1),
                              (Q(lh_sub2, 2), Q(lh_top2, 2))) == Q(2, n)

    rng = random.Random(77)
    for _ in range(40):
        k = rng.randint(1, 5)
        base = [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)]
        direction = [Q(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(k)]
        assert kodaira_via_lp(base, direction) == kodaira_energy(base, direction)


def test_kodaira_energy_shift_covariance():
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randint(1, 6)
        base = [Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k)]
        direction = [Q(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(k)]
        shift = Q(rng.randint(-20, 20), rng.randint(1, 7))
        shifted = [b + shift * d for b, d in zip(base, direction)]
        assert kodaira_energy(shifted, direction) == kodaira_energy(base, direction) - shift


def kodaira_energy_reference(base, direction):
    """The threshold with every entry made a Fraction and each bound -b/d
    divided out, so that no comparison is cross-multiplied."""
    b = [Q(x) for x in base]
    d = [Q(x) for x in direction]
    if len(b) != len(d):
        raise DimensionMismatch("base and direction have different lengths")
    if not d or min(d) <= 0:
        raise ConeError("the direction needs every entry > 0 (L big)")
    return max(-bj / dj for bj, dj in zip(b, d))


def test_kodaira_energy_matches_fraction_reference():
    rng = random.Random(15)

    def entry(low):
        # ints and Fractions mixed, at least low
        if rng.random() < 0.5:
            return rng.randint(low, 4)
        return Q(rng.randint(low, 9), rng.randint(1, 5))

    for _ in range(1000):
        k = rng.randint(1, 6)
        base = [entry(-9) for _ in range(k)]  # zero and negative included
        direction = [entry(1) for _ in range(k)]
        got = kodaira_energy(base, direction)
        assert type(got) is Fraction
        assert got == kodaira_energy_reference(base, direction)
        scale = rng.randint(1, 50)
        assert kodaira_energy([scale * x for x in base],
                              [scale * x for x in direction]) == got


# ---------------------------------------------------------------------------
# Fourier-Motzkin projection
# ---------------------------------------------------------------------------

def test_fm_single_step_example():
    cone = cone_of([[3, -1], [-1, 1]], ["d2", "d3"])
    projected = fourier_motzkin_project(cone, 1)
    assert projected.labels == ("d2",)
    assert projected.rows == ((Q(1),),)  # one combination, reduced: d2 >= 0


def test_fm_absent_variable():
    cone = cone_of([[1, 2, 0], [0, -1, 0]], ["x", "y", "z"])
    projected = fourier_motzkin_project(cone, 2)
    assert projected.labels == ("x", "y")
    assert projected.rows == ((Q(1), Q(2)), (Q(0), Q(-1)))


def test_fm_full_elimination_of_feasible_system():
    cone = cone_of([[1, -1, 2], [0, 1, -1], [1, 1, 1]])
    for _ in range(2):
        cone = fourier_motzkin_project(cone, 0)
    assert all(len(r) == 1 for r in cone.rows)
    # homogeneous systems stay feasible: no contradictory constant rows
    assert cone_of(cone.rows or [[0]], cone.labels or ("x",))


def test_fm_projection_sound_and_complete():
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randint(2, 4)
        m = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        cone = cone_of(rows)
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
