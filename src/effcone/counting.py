"""Counting unimodular-orbit forms of bounded height and fitting the growth.

A form f is its coefficient tuple xs (see forms), and a count series is
the tuple of its (B, N) pairs.

Orbit counts are exact.  For a form f of degree n >= 3 with nonzero
discriminant, `entry_bound(xs, B)` is an integer T such that every
determinant-1 matrix g with height(f o g) <= B has all entries in [-T, T];
its docstring states and proves the lemma.  One exact descent over the
Farey (Stern-Brocot) tree in integer arithmetic then visits every matrix of
that box (see the Farey-tree section).  Each recorded node stands for one
pair of matrices +-[v u] and one pair +-[u -v], and every matrix of the box
belongs to exactly one recorded node; the second root stands for +-S and
+-I again, so it is walked but not recorded.  Each child node costs one
additions-only Taylor shift.  A subtree is dropped for good when f keeps
one sign on it and is already too large, and the sign-changing spine along
the real roots of f, where that never happens, ends at the box; below a
one-signed node the prune alone ends the walk, since by the lemma it drops
every node outside the box.  No image is stored: every image is hit by
exactly |Stab_f| matrices of the box, so N(B) = 4 M(B) / |Stab_f| for the
number M(B) of recorded nodes of height <= B, counted per grid point as the
walk goes, and |Stab_f| is read off the walk.  A Taylor shift only adds, so
below a node whose form has one sign every form keeps that sign: those
subtrees, nearly all of the walk, need no sign test and are walked level by
level, a level being its k coefficients as packed big ints, one lane per
node, a guard word that marks the lanes holding nodes, and its signs: one
big-int addition per addition of the shift, and one guarded subtraction per
lane-wise comparison for the heights, the prune and the grid counts.  The
lanes a prune drops are zeroed in place in one generation and cut out with
the next one's, so only every second generation is compacted.  The
recorded sign-changing nodes are yielded as packed levels too, _MAX_BATCH
at a time.  Memory is the walk's stack, at most _MAX_BATCH one-signed lanes
per entry and at most 2 _MAX_BATCH per level (a wider level is split), at
most _MAX_BATCH gathered nodes of each kind, and the grid.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import neg

from ._terms import ExactnessError
from .forms import disc, gradient_pair, resultant, substitute, taylor_shift


class NonGenericForm(ValueError):
    """Orbit counting requires a nonzero discriminant."""


class CountingError(ExactnessError):
    """The walk's matrix counts are not whole orbits of one stabilizer."""


class InsufficientData(ValueError):
    """Exponent fits need at least 3 nonzero counts."""


# ---------------------------------------------------------------------------
# entry bound
# ---------------------------------------------------------------------------

def entry_bound(xs: tuple[int, ...], b: int) -> int:
    """Largest integer T with |R| * T^(n-2) <= (n+1) * L * b, for R and L
    below: every determinant-1 matrix g with height(f o g) <= b has all
    entries in [-T, T], for the form f with coefficients xs.

    f needs degree n >= 3 (ValueError otherwise) and a nonzero discriminant
    (NonGenericForm otherwise).

    Lemma.  Let g have columns u, v, let T be its largest absolute entry
    and H = height(f o g).  Then |R| * T^(n-2) <= (n+1) * L * H.

    1. The z^n and z^(n-1) w coefficients of f o g are x0 = f(u) and
       x1 = grad f(u) . v, and Euler's identity gives grad f(u) . u =
       n f(u).  This 2x2 system has matrix g^T of determinant 1, so its
       solution grad f(u) = (f_z(u), f_w(u)) is bounded entrywise by
       T (n |x0| + |x1|) <= (n+1) T H.  The w^n and z w^(n-1)
       coefficients f(v) and grad f(v) . u bound grad f(v) the same way.
    2. R = Res(f_z, f_w) is the determinant of the (2n-2)-square Sylvester
       matrix S of f_z and f_w at formal degree n-1, and forms.disc is
       (-1)^(n(n-1)/2) R / n^(n-2), so R is nonzero exactly when disc f is.
       The first row of adj S holds the coefficients of forms A, B of
       degree n-2 with A f_z + B f_w = R z^(2n-3), and its last row such a
       pair for R w^(2n-3), each unique by Cramer's rule: the cofactors of
       the subresultant chain (forms.resultant) in the charts z = 1, w = 1.
    3. L is the larger of the two l1 norms of those (A, B) coefficient
       vectors.  For a column (a, c) with t = max(|a|, |c|), the identity
       whose right side carries the larger coordinate gives
       |R| t^(2n-3) <= L t^(n-2) max(|f_z|, |f_w|) at (a, c).  On the
       column holding T, step 1 turns this into |R| T^(n-1) <= L (n+1) T H.

    For n >= 3 the left side grows with T, so H <= b bounds T.
    """
    n = len(xs) - 1
    if n < 3:
        raise ValueError(f"orbit counting needs degree n >= 3 (got {n})")
    if disc(xs) == 0:
        raise NonGenericForm("orbit counting requires a nonzero discriminant")
    r, l1 = _gradient_identities(xs)
    top = (n + 1) * l1 * b // r
    # the largest T with T^(n-2) <= top, bisecting lo^(n-2) <= top < hi^(n-2)
    lo, hi = 0, 1 << -(-top.bit_length() // (n - 2))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** (n - 2) <= top:
            lo = mid
        else:
            hi = mid
    return lo


def _gradient_identities(xs: tuple[int, ...]) -> tuple[int, int]:
    """(|R|, L) of entry_bound's lemma for the form with coefficients xs.

    forms.resultant gives R and the pair (A, B) for R w^(2n-3) in the chart
    w = 1, and, on the reversed coefficient lists, the pair for R z^(2n-3)
    in the chart z = 1 (the resultant there is (-1)^(n-1) R).
    """
    fz, fw = gradient_pair(xs)
    r, a, b = resultant(fz, fw)
    _, a_rev, b_rev = resultant(fz[::-1], fw[::-1])
    return abs(r), max(sum(map(abs, a + b)), sum(map(abs, a_rev + b_rev)))


# ---------------------------------------------------------------------------
# Farey-tree orbit search
#
# A node is an interval (p/q, r/s) of the Stern-Brocot tree, with
# p*s - r*q = -1, and carries F(m, n) = f(p m + r n, q m + s n): f seen
# through the matrix with columns u = (p, q) and v = (r, s).  The children
# (p/q, mediant) and (mediant, r/s) carry F(m + n, n) and F(m, m + n): one
# Taylor shift by 1 (forms.taylor_shift, k(k+1)/2 additions and no
# multiplication in degree k) of F and of its reversal.
#
# A node stands for the four determinant-1 matrices +-[v u] and +-[u -v],
# with the images +-F(w, z) and +-F(z, -w) (the sign is (-1)^n), all of
# height max |F|, read off min(F) and max(F) with the one-sign test below.
# The walk starts from the root (0/1, 1/0), which stands for +-I and +-S
# with S = [0 -1; 1 0], and from the two children of the root
# (-1/0, 0/1): that root stands for +-S and +-I again, so it is walked but
# not recorded.  Every determinant-1 matrix is then one of the four of
# exactly one recorded node.
#
# Prune: every fraction strictly inside a node is m u + n v with m, n >= 1,
# where f takes the value F(m, n).  When the nonzero coefficients of F share
# one sign, |F(m, n)| >= |F(1, 1)|, so once |F(1, 1)| > B no node below has
# an image of height <= B and the subtree is dropped (by Descartes' rule of
# signs, a subtree around a root of f keeps a sign change in F).
#
# Box: every node below has an entry at least as large as the mediant
# u + v, so a node whose mediant leaves the box [-box, box] has no
# descendant in it.  The box test cuts the sign-changing spine, the nodes
# along the real roots of f, where the prune never applies: there it is what
# ends the walk.  Below a one-signed node it is left out, which needs
# box >= entry_bound(f, B): a node outside that box has height > B (the
# entry_bound lemma), so in a one-signed subtree its sum |F(1, 1)| >= its
# height is > B and the prune drops its subtree anyway.  The node itself is
# walked, has height > B and counts for nothing.
#
# One-signed levels: a Taylor shift by 1 of coefficients >= 0 gives
# coefficients >= 0, so every node below a one-signed node has a form of
# the same sign and needs no sign test.  With the form negated once where
# that sign is -, the height is max(F) and the prune test is sum(F) > B.
# The walk gathers the one-signed nodes it enters, _MAX_BATCH at a time,
# and walks their subtrees a level at a time.  A level is its k packed
# coefficient ints, the guard word live and the list of its signs, nothing
# else: coefficient j of the node in lane i is lane i, of W = 8 m bits, of
# the j-th int, with m = ceil((n + 1 + B.bit_length()) / 8) bytes.
# forms.taylor_shift, which only adds, shifts the L lanes of the parents
# into the 2L lanes of the children, left children first.  A kept parent
# has coefficients >= 0 of sum <= B, so every partial sum of the shift and
# each child's sum F(2, 1) or F(1, 2) is at most 2^n B < 2^(W-1): no lane
# carries, and the top bit of a lane is a free guard.  With the guards of
# live set, one subtraction compares two packed ints lane by lane, which
# gives the heights (a running lane maximum), the prune mask and, in
# count_series, the grid counts, on the lanes of live only.  A level
# wider than _MAX_BATCH is split and the pieces are walked depth first, so
# at most one piece per level waits.  The gathered nodes are packed once,
# by joining the W/8 little-endian bytes of each entry.
#
# Zero lanes: a lane without its guard in live holds no node and is zero
# in every coefficient int, so it has height 0, fails every guarded
# comparison and shifts to zero lanes.  When the prune drops lanes of a
# level that has no zero lane and at most _MAX_BATCH lanes, they are
# zeroed in place, with the one mask kept - (kept >> (W-1)) over the kept
# guards; the kept lanes keep sum <= B, so the no-carry bound holds.  Every
# other level that drops a lane, its zero lanes included, is compacted, by
# joining the byte runs of consecutive kept lanes of each int.  So a zero
# lane never enters live, the level of the zero children of a zeroed level
# is compacted before it is pushed, and one generation in two is compacted.
#
# Spine levels: the recorded sign-changing nodes are gathered, _MAX_BATCH
# at a time, and yielded as one level of sign +1 in the same W-bit lanes,
# each coefficient in two's complement; a height is at most B, so
# count_series reads the level as any other.
#
# Count: no image is stored.  The image f o g is hit by exactly the
# matrices h g with h in the stabilizer Stab_f of f in SL2(Z).  They share
# its height, so all of them lie in the box.  For degree n >= 3 and a
# nonzero discriminant, Stab_f is a finite cyclic group: of order 1 or 3
# when n is odd (-I sends f to -f), and of order 2, 4 or 6 when n is even
# (it contains -I).  So N(B) = 4 M(B) / |Stab_f|, where M(B) is the number
# of recorded nodes of height <= B, and |Stab_f| is the number of walked
# matrices whose image is the first image recorded.
# ---------------------------------------------------------------------------

_MAX_BATCH = 1024  # nodes per gathered batch; a larger level is split


def _lane_width(k: int, b_max: int) -> int:
    """W = 8 m, the least with k + b_max.bit_length() <= W, for forms
    with k coefficients walked up to height b_max: a lane is a whole number
    of bytes, as few as hold 2^(k-1) b_max below its guard bit."""
    return 8 * -(-(k + b_max.bit_length()) // 8)


def _pack(column: list[int], step: int) -> int:
    """column as one int, entry i (0 <= entry < 2^(8 step)) in lane i of
    step bytes."""
    return int.from_bytes(b"".join([c.to_bytes(step, "little") for c in column]),
                          "little")


def _guards(size: int, step: int) -> int:
    """The top bit of each of size lanes of step bytes."""
    return int.from_bytes((bytes(step - 1) + b"\x80") * size, "little")


def _compact(xs: list[int], keep: bytes, step: int) -> list[int]:
    """The packed ints xs, lanes of step bytes, with only the lanes i of
    keep[i] = 1 (keep holds 0 and 1), moved down in order: each int is cut
    into the byte runs of consecutive kept lanes, which are joined."""
    runs, end = [], 0
    while (start := keep.find(1, end)) >= 0:
        end = keep.find(0, start)
        if end < 0:
            end = len(keep)
        runs.append(slice(step * start, step * end))
    size = step * len(keep)
    return [int.from_bytes(b"".join([data[run] for run in runs]), "little")
            for data in (memoryview(x.to_bytes(size, "little")) for x in xs)]


def _one_signed_walk(rows: list[tuple[int, ...]], b_max: int, width: int):
    """Yield the given one-signed nodes, all of height <= b_max, as one
    level, then every level of their subtrees, children of height > b_max
    included, in levels of at most 2 * _MAX_BATCH lanes (see _farey_walk).

    A row is a node form times its sign, so that every coefficient is
    >= 0, then the sign; width is _lane_width(k, b_max).  A level without
    zero lanes and of at most _MAX_BATCH lanes zeroes the lanes its prune
    drops, so that its children hold zero lanes; every other level that
    drops a lane, zero lanes included, is compacted.
    """
    step = width // 8  # bytes per lane
    *columns, signs = map(list, zip(*rows))
    coeffs = [_pack(c, step) for c in columns]
    live = _guards(len(signs), step)  # the guards of the nodes, not of zero lanes
    stack: list[tuple[list[int], list[int], int]] = []
    while True:
        heights = coeffs[0]
        for x in coeffs[1:]:  # heights = max(heights, x) lane by lane
            ge = ((x | live) - heights) & live
            heights ^= (x ^ heights) & (ge - (ge >> (width - 1)))
        yield heights, live, coeffs, signs
        bound = b_max * (live >> (width - 1)) | live
        kept = (bound - sum(coeffs)) & live  # the nodes of sum <= b_max
        size = len(signs)
        whole = live.bit_count() == size  # no zero lane
        if not kept:
            live = 0
        elif kept != live or not whole:
            if whole and size <= _MAX_BATCH:
                mask = kept - (kept >> (width - 1))  # the kept lanes below the guard
                coeffs = [x & mask for x in coeffs]
            else:
                keep = (kept >> (width - 1)).to_bytes(
                    step * size, "little")[::step]  # lane bit 0
                coeffs = _compact(coeffs, keep, step)
                signs = list(compress(signs, keep))
                size = len(signs)
                kept = _guards(size, step)
            live = kept
        if live and size > _MAX_BATCH:
            piece = (1 << width * _MAX_BATCH) - 1
            stack += (([x >> width * i & piece for x in coeffs],
                       signs[i:i + _MAX_BATCH], live >> width * i & piece)
                      for i in range(0, size, _MAX_BATCH))
        elif live:
            stack.append((coeffs, signs, live))
        if not stack:
            return
        parents, signs, live = stack.pop()
        left, right = taylor_shift(parents), taylor_shift(parents[::-1])[::-1]
        shift = width * len(signs)
        coeffs = [x | y << shift for x, y in zip(left, right)]
        signs = signs + signs
        live |= live << shift


def _spine_level(nodes: list[tuple[int, ...]], width: int):
    """The gathered sign-changing nodes, rows (height, *F), as one level
    of W-bit two's complement lanes, every sign +1."""
    step, lane = width // 8, (1 << width) - 1
    heights, *coeffs = [_pack([x & lane for x in column], step)
                        for column in zip(*nodes)]
    return heights, _guards(len(nodes), step), coeffs, [1] * len(nodes)


def _farey_walk(xs: tuple[int, ...], b_max: int, box: int):
    """Yield levels (heights, live, coeffs, signs) that hold every
    recorded node of height <= b_max exactly once, for a box with
    box >= entry_bound(xs, b_max) (see the Farey-tree section).

    A level of L lanes is packed in lanes of W = _lane_width(len(xs), b_max)
    bits: the node in lane i has the height in lane i of heights and the
    coefficient j of its form, times signs[i], in lane i of coeffs[j], in
    W-bit two's complement; live has the top bit of lane i set exactly
    when lane i holds a node.  A lane without it is zero in heights and in
    every coeffs[j], and is no node.  A node of height > b_max is not
    recorded and counts for nothing; the first level holds recorded nodes
    only, and its first lane is a node.

    The recorded sign-changing nodes are gathered, _MAX_BATCH at a time,
    and yielded as one level; the one-signed nodes the spine enters are
    gathered, _MAX_BATCH at a time, and walked a level at a time.
    """
    width = _lane_width(len(xs), b_max)
    root = substitute(xs, -1, 0, 0, 1)
    entered = ((substitute(xs, 0, 1, 1, 0), 0, 1, 1, 0),
               (taylor_shift(root), -1, 0, -1, 1),
               (taylor_shift(root[::-1])[::-1], -1, 1, 0, 1))
    stack: list[tuple] = []
    push = stack.append
    spine: list[tuple[int, ...]] = []  # gathered sign-changing nodes
    rows: list[tuple[int, ...]] = []  # gathered one-signed nodes
    while True:
        for node in entered:  # record, then keep or gather, unless pruned
            F = node[0]
            lo, hi = min(F), max(F)
            height = hi if hi >= -lo else -lo
            if lo < 0 < hi:
                push(node)
                if height <= b_max:
                    spine.append((height,) + F)
                    if len(spine) == _MAX_BATCH:
                        yield _spine_level(spine, width)
                        spine = []
            elif height <= b_max:
                if lo >= 0:
                    rows.append(F + (1,))
                else:
                    rows.append(tuple(map(neg, F)) + (-1,))
                if len(rows) == _MAX_BATCH:
                    yield from _one_signed_walk(rows, b_max, width)
                    rows = []
        if not stack:
            break
        F, p, q, r, s = stack.pop()  # q and s are never negative
        mp, mq = p + r, q + s
        entered = () if abs(mp) > box or mq > box else (
            (taylor_shift(F), p, q, mp, mq),
            (taylor_shift(F[::-1])[::-1], mp, mq, r, s))
    if spine:
        yield _spine_level(spine, width)
    if rows:
        yield from _one_signed_walk(rows, b_max, width)


def _lane_form(coeffs: list[int], signs: list[int], i: int,
               width: int) -> tuple[int, ...]:
    """The signed form of node i of a level."""
    lane, top = (1 << width) - 1, 1 << (width - 1)
    form = []
    for x in coeffs:
        v = x >> width * i & lane
        form.append(signs[i] * (v - ((v & top) << 1)))
    return tuple(form)


def count_series(xs: tuple[int, ...], b_grid) -> tuple[tuple[int, int], ...]:
    """The pairs (B, N(B)), for every B in the increasing grid of ints (a
    point of any other type raises ValueError), of the number N(B) of
    distinct orbit coefficient vectors of the form xs with height <= B,
    from one walk over the box of entry_bound(xs, max B).
    Memory is the walk's (see the module docstring) and the grid.

    The recorded nodes of height <= B of a level are counted from its
    packed heights: one subtraction guarded by the level's live word per
    grid point sets the guard of every node's lane with height <= B, and
    int.bit_count() counts them; a zero lane has no guard and is never
    counted.  Node forms are read only off the nodes of the first recorded
    height, for the stabilizer order.

    Raises CountingError when the matrix counts are not whole multiples of
    a stabilizer order (see the Farey-tree section), which exact arithmetic
    rules out.
    """
    grid = list(b_grid)
    for b in grid:
        if type(b) is not int:
            raise ValueError(f"grid point {b!r} is not an integer")
    if not grid or any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("grid must be nonempty and strictly increasing")
    b_max = grid[-1]
    box = entry_bound(xs, b_max)
    width = _lane_width(len(xs), b_max)
    odd = (len(xs) - 1) % 2
    counts = [0] * len(grid)  # recorded nodes of height <= B
    hits = first_height = 0
    refs: tuple = ()  # one entry per matrix of a node with the first image
    for heights, guards, coeffs, signs in _farey_walk(xs, b_max, box):
        ones = guards >> (width - 1)
        room = guards - heights  # lane i: 2^(W-1) - height, no borrow
        for j in reversed(range(len(grid))):  # down to a B with none
            below = ((room + grid[j] * ones) & guards).bit_count()
            if not below:
                break
            counts[j] += below
        if not refs:
            # the first image is F(w, z), of the first level's first node,
            # which is recorded; a node form G has it as G(w, z) for G = F,
            # as G(z, -w) for G = alt, and as (-1)^n times either for
            # G = (-1)^n F or (-1)^n alt
            F = _lane_form(coeffs, signs, 0, width)
            alt = tuple(-x if i % 2 else x for i, x in enumerate(F[::-1]))
            refs = (F, alt) + ((tuple(map(neg, F)), tuple(map(neg, alt)))
                               if odd else (F, alt))
            first_height = max(map(abs, F))
        same = (guards - (heights ^ first_height * ones)) & guards
        while same:  # the lanes of the first height
            i = (same & -same).bit_length() // width - 1
            hits += refs.count(_lane_form(coeffs, signs, i, width))
            same &= same - 1
    if not refs:
        return tuple((b, 0) for b in grid)
    matrices = [4 * c for c in counts]
    if (hits not in ((1, 3) if odd else (2, 4, 6))
            or any(m % hits for m in matrices)):
        raise CountingError(f"{hits} walked matrices hit one image, which is "
                            f"no stabilizer order dividing {matrices}")
    return tuple((b, m // hits) for b, m in zip(grid, matrices))


# ---------------------------------------------------------------------------
# exponent fit
# ---------------------------------------------------------------------------

def fit_exponent(points) -> dict:
    """Least-squares fit of log N against log B (floating point, stated so)
    over the pairs (B, N) with N >= 1: slope, intercept, residual_norm and
    points_used, in that order."""
    pts = [(math.log(b), math.log(n)) for b, n in points if n >= 1]
    if len(pts) < 3:
        raise InsufficientData("need at least 3 entries with N >= 1")
    k = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    denom = k * sxx - sx * sx
    slope = (k * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / k
    sse = sum((y - slope * x - intercept) ** 2 for x, y in pts)
    return {"slope": slope, "intercept": intercept,
            "residual_norm": math.sqrt(sse), "points_used": k}
