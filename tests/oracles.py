"""Reference implementations the tests trust.

Everything here is written from the model definition in plain Python,
sharing no code with the package: costs are accumulated by walking parent
arrays, schedules come from itertools, and the optimizer enumerates the
tie patterns of the min-max objective directly.  Slow on purpose; the
point is a second, independent route to the same numbers.

`duality_gap` is the optimality certificate of any one split, however
large or ill-conditioned its matrix: weak duality turns the row weights
of the split's support into a lower bound on the optimum, and the gap to
that bound is computed exactly in `fractions.Fraction`, so no float
solver's tolerance stands between a split and its proof.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class PlainTree:
    """Structure-only view of a rooted delivery tree, node 0 the root.

    rate[i] is the bits/s of the link parent[i] -> i; rate[0] is unused.
    """

    parent: tuple[int, ...]
    rate: tuple[float, ...]
    freq: tuple[float, ...]
    cap: tuple[float, ...]
    tx: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.parent)


def path_edges(parent: tuple[int, ...], i: int) -> list[int]:
    """Edge list on the root -> i route, each edge named by its child end."""
    out = []
    while i != 0:
        out.append(i)
        i = parent[i]
    out.reverse()
    return out


def subtree_root(parent: tuple[int, ...], i: int) -> int:
    while parent[i] != 0:
        i = parent[i]
    return i


def subtree_members(parent: tuple[int, ...], root: int) -> list[int]:
    # the edge list of i's path names every node on it except the root
    return sorted(i for i in range(1, len(parent)) if root in path_edges(parent, i))


def all_schedules(parent: tuple[int, ...]):
    """Every per-subtree permutation combo, subtrees in root-id order."""
    roots = sorted(i for i in range(1, len(parent)) if parent[i] == 0)
    pools = [itertools.permutations(subtree_members(parent, t)) for t in roots]
    yield from itertools.product(*pools)


def count_all_schedules(parent: tuple[int, ...]) -> int:
    total = 1
    for t in sorted(i for i in range(1, len(parent)) if parent[i] == 0):
        k = len(subtree_members(parent, t))
        for v in range(2, k + 1):
            total *= v
    return total


# --- cost model, from the definition ---------------------------------------


def node_cost(
    net: PlainTree,
    schedule,
    y,
    w1: float,
    w2: float,
    b: float,
    i: int,
) -> float:
    mine = path_edges(net.parent, i)
    inv = sum(1.0 / net.rate[e] for e in mine)
    t = y[i] * inv

    # earlier subtasks of the same subtree hold the shared edges first
    if i != 0:
        seq = next(s for s in schedule if i in s)
        mine_set = set(mine)
        for j in seq:
            if j == i:
                break
            shared = [e for e in path_edges(net.parent, j) if e in mine_set]
            t += y[j] * sum(1.0 / net.rate[e] for e in shared)

    t += y[i] * b / net.freq[i]

    e = net.cap[i] * y[i] * b * net.freq[i] ** 2
    for c in range(1, len(net)):
        if net.parent[c] == i:
            load = sum(
                y[k]
                for k in range(len(net))
                if k == c or c in path_edges(net.parent, k)
            )
            e += net.tx[i] * load / net.rate[c]

    return w1 * t + w2 * e


def system_cost(net: PlainTree, schedule, y, w1, w2, b) -> float:
    return max(node_cost(net, schedule, y, w1, w2, b, i) for i in range(len(net)))


# --- brute-force optimizer ---------------------------------------------------


def lattice_points(n: int, total: float, divs: int):
    """All ways to split `divs` chunks of size total/divs over n slots."""
    chunk = total / divs
    for cut in itertools.combinations(range(divs + n - 1), n - 1):
        counts = []
        prev = -1
        for c in cut:
            counts.append(c - prev - 1)
            prev = c
        counts.append(divs + n - 2 - prev)
        yield tuple(k * chunk for k in counts)


def linear_rows(net: PlainTree, schedule, w1, w2, b):
    """Per-node cost coefficients under a fixed schedule.

    Every term of the model is proportional to exactly one component of
    the allocation, so row i dotted with y reproduces node i's cost and
    the coefficients fall out of putting a unit of work on one slot at a
    time.
    """
    n = len(net)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            unit = [0.0] * n
            unit[j] = 1.0
            row.append(node_cost(net, schedule, unit, w1, w2, b, i))
        rows.append(row)
    return rows


def _solve_square(m, rhs):
    # Gaussian elimination, partial pivoting; None when the tie pattern
    # does not pin down a unique point
    n = len(m)
    a = [list(m[r]) + [rhs[r]] for r in range(n)]
    scale = max(abs(v) for row in a for v in row[:-1]) or 1.0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) < 1e-13 * scale:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1.0 / a[col][col]
        for r in range(n):
            if r == col:
                continue
            f = a[r][col] * inv
            if f == 0.0:
                continue
            for c in range(col, n + 1):
                a[r][c] -= f * a[col][c]
    return [a[r][-1] / a[r][r] for r in range(n)]


def minmax_on_simplex(rows, total: float):
    """Exact min of max_i rows[i].y over y >= 0 with sum(y) = total.

    A max of linear forms attains its minimum where some rows tie at the
    top while the remaining slots sit at zero, and each such tie pattern
    is a square linear system once the partition constraint is added.
    All patterns are enumerated; with the handful of slots the tests use
    that is a few hundred tiny solves per call.
    """
    n = len(rows)
    if total <= 0.0:
        return 0.0, tuple([0.0] * n)
    amax = max(abs(v) for row in rows for v in row) or 1.0
    scaled = [[v / amax for v in row] for row in rows]

    def value(y):
        return max(sum(r[j] * y[j] for j in range(n)) for r in rows)

    best_y = tuple(total / n for _ in range(n))
    best = value(best_y)
    for k in range(1, n + 1):
        for tied in itertools.combinations(range(n), k):
            for free in itertools.combinations(range(n), k):
                m = [[1.0] * k + [0.0]]
                rhs = [1.0]
                for i in tied:
                    m.append([scaled[i][j] for j in free] + [-1.0])
                    rhs.append(0.0)
                sol = _solve_square(m, rhs)
                if sol is None or any(v < -1e-9 for v in sol[:k]):
                    continue
                y = [0.0] * n
                for j, v in zip(free, sol):
                    y[j] = max(v, 0.0) * total
                s = sum(y)
                if s <= 0.0:
                    continue
                y = [v * (total / s) for v in y]
                v = value(y)
                if v < best:
                    best, best_y = v, tuple(y)
    return best, best_y


def best_allocation(net: PlainTree, schedule, total, w1, w2, b):
    """Exact optimum of one schedule via tie-pattern enumeration."""
    rows = linear_rows(net, schedule, w1, w2, b)
    return minmax_on_simplex(rows, total)


def brute_minmax(net: PlainTree, total, w1, w2, b):
    """Min over every schedule of the per-schedule exact optimum."""
    best = None
    best_y = None
    for schedule in all_schedules(net.parent):
        v, y = best_allocation(net, schedule, total, w1, w2, b)
        if best is None or v < best:
            best, best_y = v, y
    return best, best_y


# --- exact optimality certificate ---------------------------------------------


def duality_gap(m, u, support, forced=frozenset()) -> Fraction:
    """Exact relative gap of the split u of min over the simplex of max(m u).

    m is a (rows, cols) array and u its split, zero on the pinned columns
    `forced`, nonnegative and summing to 1 within 1e-12.  support is the
    (S, R) the split was certified with, indices into the unpinned columns
    and into the rows, or None for a free column, whose split must cost
    exactly 0.  The row weights p on R that make every column of S cost
    the same come from a float solve on m scaled as `solvers._scaled`
    does, clipped at 0.  Any p >= 0 bounds the optimum from below by its
    cheapest unpinned column, min_j (pᵀm)_j / Σp (weak duality), so the
    gap, max(m u) / Σu less that bound, relative to max(m u) / Σu, is
    evaluated exactly on the floats' values: a gap of at most 1e-12
    proves u / Σu optimal to that tolerance, whatever the float solve's
    error.
    """
    cols = [j for j in range(m.shape[1]) if j not in forced]
    q = [Fraction(v) for v in u.tolist()]
    total = sum(q)
    assert min(q) >= 0 and not any(q[j] for j in forced), u
    assert abs(total - 1) <= 1e-12, float(total - 1)
    rows = m.tolist()
    split = [(j, v) for j, v in enumerate(q) if v]
    zp = max(sum(Fraction(row[j]) * v for j, v in split) for row in rows) / total
    if support is None:
        assert zp == 0
        return Fraction(0)
    s, r = support
    sub = m[:, cols]
    k = len(s)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = (sub / sub.max(axis=0).min())[np.ix_(r, s)].T
    kkt[:k, k] = -1.0
    kkt[k, :k] = 1.0
    p = np.linalg.solve(kkt, np.r_[np.zeros(k), 1.0])[:k]
    assert p.min() >= -1e-12, p.min()
    dual = [(rows[i], Fraction(v)) for i, v in zip(r, p.tolist()) if v > 0.0]
    zd = min(sum(Fraction(row[j]) * v for row, v in dual) for j in cols)
    return 1 - zd / sum(v for _, v in dual) / zp


# --- two-node closed form -----------------------------------------------------


def two_node_minmax(net: PlainTree, total, w1, w2, b):
    """Exact optimum for a master plus one worker: max of two lines on [0, Y].

    Slopes are written out symbolically; extracting them by differencing
    j(1) - j(0) would cancel away most of their digits.
    """
    assert len(net) == 2
    # j0(y0) = s0*y0 + c0, j1(y0) = s1*y0 + c1
    s0 = w1 * b / net.freq[0] + w2 * (
        net.cap[0] * b * net.freq[0] ** 2 - net.tx[0] / net.rate[1]
    )
    c0 = w2 * net.tx[0] * total / net.rate[1]
    per_bit = w1 * (1.0 / net.rate[1] + b / net.freq[1])
    per_bit += w2 * net.cap[1] * b * net.freq[1] ** 2
    s1 = -per_bit
    c1 = per_bit * total

    def j0(y0):
        return s0 * y0 + c0

    def j1(y0):
        return s1 * y0 + c1

    cands = [0.0, total]
    if s0 != s1:
        x = (c1 - c0) / (s0 - s1)
        if 0.0 < x < total:
            cands.append(x)
    best_y0 = min(cands, key=lambda v: max(j0(v), j1(v)))
    return max(j0(best_y0), j1(best_y0)), (best_y0, total - best_y0)


# --- rooted tree shapes -------------------------------------------------------


def _canon(children, v) -> str:
    return "(" + "".join(sorted(_canon(children, c) for c in children[v])) + ")"


def tree_shapes(n: int) -> list[tuple[int, ...]]:
    """One parent vector per unlabeled rooted tree shape on n nodes."""
    if n == 1:
        return [(-1,)]
    seen = {}
    for tail in itertools.product(*[range(i) for i in range(1, n)]):
        parent = (-1,) + tail
        kids = [[] for _ in range(n)]
        for i in range(1, n):
            kids[parent[i]].append(i)
        key = _canon(kids, 0)
        if key not in seen:
            seen[key] = parent
    return list(seen.values())
