"""Integer binary forms, the unimodular substitution action, discriminants.

A form of degree n is the tuple (x0, ..., xn) of the integer coefficients
of x0*z^n + x1*z^(n-1)*w + ... + xn*w^n, and a matrix (a b; c d) is the
tuple (a, b, c, d); outside input is checked where it enters, in cli.  The
discriminant is

    (-1)^(n(n-1)/2) * Res(f_z, f_w) / n^(n-2),

with the resultant of the two partial derivatives taken at formal degree
n-1, by the subresultant remainder sequence of `resultant`; its cofactors
give the identities of counting.entry_bound.  The resultant is projective,
so roots at infinity need no change of chart.
"""

from __future__ import annotations

from itertools import dropwhile
from operator import not_

from ._terms import ExactnessError


class DegreeTooSmall(ValueError):
    """Discriminants need degree at least 2."""


def substitute(xs: tuple[int, ...], a: int, b: int, c: int,
               d: int) -> tuple[int, ...]:
    """Coefficients of f(a*z + b*w, c*z + d*w) for the coefficient vector xs.

    The one expansion of the substitution, by Horner's rule in the first
    linear form: h <- h * (a z + b w) + x_i * (c z + d w)^i.  A right
    action: substituting m and then m2 is substituting the matrix product
    m m2.
    """
    h = [xs[0]]
    qpow = [1]
    for i in range(1, len(xs)):
        nh = [0] * (i + 1)
        for t, hc in enumerate(h):
            nh[t] += a * hc
            nh[t + 1] += b * hc
        nq = [0] * (i + 1)
        for t, qc in enumerate(qpow):
            nq[t] += c * qc
            nq[t + 1] += d * qc
        qpow = nq
        x = xs[i]
        if x:
            for t, qc in enumerate(qpow):
                nh[t] += x * qc
        h = nh
    return tuple(h)


def taylor_shift(xs: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of f(z + w, w), the case substitute(xs, 1, 1, 0, 1).

    The Taylor shift p(t) -> p(t + 1) of p(t) = f(t, 1) by repeated
    synthetic division: n(n+1)/2 additions and no multiplication.  The
    mirror f(z, z + w) is taylor_shift(xs[::-1])[::-1].
    """
    h = list(xs)
    for top in range(len(h) - 1, 0, -1):
        for j in range(1, top + 1):
            h[j] += h[j - 1]
    return tuple(h)


# ---------------------------------------------------------------------------
# resultants and discriminants
# ---------------------------------------------------------------------------

def gradient_pair(xs: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """f_z and f_w of the form xs at formal degree n - 1, leading first in z."""
    n = len(xs) - 1
    return ([(n - i) * xs[i] for i in range(n)],
            [i * xs[i] for i in range(1, n + 1)])


def _pseudo_divide(a: list[int], b: list[int]) -> tuple[int, list[int], list[int]]:
    """(k, quo, rem) with k a = quo b + rem and k = lc(b)^(deg a - deg b + 1),
    for deg a >= deg b >= 1; rem has degree < deg b and no leading zeros."""
    lead = b[0]
    steps = len(a) - len(b) + 1
    rem = list(a)
    quo: list[int] = []
    for i in range(steps):
        c = rem[i]
        quo = [lead * x for x in quo] + [c]
        rem[i + 1:] = [lead * x for x in rem[i + 1:]]
        for j, e in enumerate(b[1:], i + 1):
            rem[j] -= c * e
    return lead ** steps, quo, list(dropwhile(not_, rem[steps:]))


def _combine(k: int, x: list[int], quo: list[int], y: list[int]) -> list[int]:
    """Coefficients, leading first, of k x - quo y."""
    out = [0] * (len(quo) + len(y) - 1 - len(x)) + [k * c for c in x]
    for i, c in enumerate(quo, len(out) - len(quo) - len(y) + 1):
        for j, e in enumerate(y, i):
            out[j] -= c * e
    return out


def resultant(p: list[int], q: list[int]) -> tuple[int, list[int], list[int]]:
    """(r, u, v) for coefficient lists p, q of one formal degree d >= 1,
    leading first: r = Res(p, q), the determinant of their Sylvester
    matrix, and u p + v q = r for d coefficients each in u and v, unique by
    Cramer's rule when r is nonzero.  The subresultant remainder sequence
    with cofactors, u p + v q = b for each member b (Collins, J. ACM 14,
    1967; Brown and Traub, J. ACM 18, 1971; Cohen, GTM 138, Alg. 3.3.7);
    each division below is exact for every delta >= 0.  If p[0] is 0,
    Res(p, q) = (-1)^d Res(q, p); a q of lower degree scales it by
    lc(p)^(d - deg q); with both leading coefficients missing it is 0."""
    d = len(p) - 1
    sign = 1
    # ua, ub hold the cofactors of a, b as the one polynomial u x^d + v;
    # deg v < d along the chain, so one k x - quo y updates both
    a, ua, b, ub = p, [1] + [0] * d, q, [1]
    if not a[0]:
        a, ua, b, ub = b, ub, a, ua
        sign = (-1) ** d
    b = list(dropwhile(not_, b)) if a[0] else []  # both missing: r = 0
    scale = a[0] ** (d + 1 - len(b))
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        k, quo, rem = _pseudo_divide(a, b)
        div = g * h ** delta
        a, ua, b, ub = (b, ub, [c // div for c in rem],
                        [c // div for c in _combine(k, ua, quo, ub)])
        g = a[0]
        h = g ** delta * h // h ** delta
    if not b:  # a common factor of positive degree, or q = 0
        return 0, [0] * d, [0] * d
    e = len(a) - 1  # b is a nonzero constant: r = sign scale b^e / h^(e-1)
    num, den = sign * scale * b[0] ** (e - 1), h ** (e - 1)
    uv = [0] * (2 * d - len(ub)) + [c * num // den for c in ub]
    return num * b[0] // den, uv[:d], uv[d:]


def disc(xs: tuple[int, ...]) -> int:
    """Exact discriminant of the form xs; zero iff it has a repeated root on
    the projective line (roots at infinity included).  Invariant under the
    determinant-1 substitution action.  Raises ExactnessError if the
    resultant is not a multiple of n^(n-2)."""
    n = len(xs) - 1
    if n < 2:
        raise DegreeTooSmall("discriminant needs degree at least 2")
    res = resultant(*gradient_pair(xs))[0]
    quot, rem = divmod(res, n ** (n - 2))
    if rem:
        raise ExactnessError(f"Res(f_z, f_w) = {res} is not a multiple of "
                             f"n^(n-2) = {n ** (n - 2)}")
    return -quot if (n * (n - 1) // 2) % 2 else quot
