"""Exact workload placement.

For one transmission schedule the per-node costs are nonnegative linear
forms, so the best split solves

    min z   s.t.  (A y)_i <= z  for every node,  sum(y) = Y,  y >= 0,

the value of a zero-sum matrix game.  It is solved once on the unit
simplex (the optimal shape of y does not depend on Y, only its scale
does), which makes solutions exactly proportional across task sizes and
lets a cached solution be rescaled instead of re-solved.

At the optimum the participating nodes S and as many binding rows R all
finish together, so the split is one small linear solve on (S, R): the
equaliser.  Its answer is accepted only with a certificate: the primal
weights and the dual row weights from the transposed solve are
nonnegative, and the dual bound is within 1e-12 of the primal value
(weak duality); a matrix it refutes gets a row of NaN, the one way a
split fails.  `_minmax_unit` splits a stack of matrices, each one with
the cascade (`_cascade`): a pure saddle point, then the guess that every
node free to work does work (one stacked equaliser solve), and a dense
simplex only where the certificate refutes both.  The simplex step
carries the last support it certified to the matrices after it and tries
it on many of them in one stacked equaliser solve; only a matrix it
fails is pivoted on, and a simplex basis the certificate refutes, or the
one it holds when it gives up, is rebuilt from the matrix and pivoted on
again.  A split that no step of the cascade certifies raises
InfeasibleError, so every split returned carries the certificate.

`cmo` enumerates every per-subtree transmission order and keeps the
best: `_best_order` splits the orders in lexicographic blocks, one stack
of linear forms per block, and scores a block with one stacked matmul.
The genetic search in `heuristics.ga` splits each generation's new
orders the same way.
`pmo` exploits that subtrees only interact through the master: each
subtree's orders are enumerated the same way on its slice of the tree's
matrices, then one more small split divides the task between the master
and the subtrees.  Both exact solvers build the static matrix once and
audit only their answer.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .costs import (
    Allocation,
    Schedule,
    Weights,
    _static_matrix,
    _waiting,
    cost_coefficients,
    system_cost,
)
from .errors import InfeasibleError, ParameterError, checked
from .network import write_json
from .tree import SinkTree, tree_fingerprint

# an equaliser answer may dip this far below zero before clipping, and its
# primal-dual gap may be at most this fraction of its value
_CERT_TOL = 1e-12
# a simplex tableau entry that cancels to within this fraction of the
# terms that formed it is rounding noise, and is set to zero
_CANCEL_TOL = 1e-13
# a simplex basis the certificate refutes is reinverted and pivoted on
# again at most this many times before the split raises InfeasibleError
_REINVERT = 3
# cmo and pmo warn before enumerating more orders than this
_WARN_SCHEDULES = 10**6
# _best_order stacks at most this many orders at once, and _cascade's
# simplex step first tries a carried support on this many matrices
_BLOCK = 2048
_SWEEP = 8


@dataclass(frozen=True)
class Solution:
    """A solved instance: the split, the schedule, and its audited cost.

    A split solved here (every exact solver's, and GA's) is certified
    optimal for its schedule; one that cannot be certified raises
    InfeasibleError instead (see `_cascade`).
    """

    tree: SinkTree
    weights: Weights
    b_comp: float
    allocation: Allocation
    schedule: Schedule
    cost: float
    solver_tag: str
    schedules_evaluated: int = 1


def _equalise(m: np.ndarray, s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Equal-finish weights on support s and tight rows r, where provably optimal.

    m is a (B, rows, cols) stack of matrices; a single split is a stack of
    one.  s and r, both (k,), are one support for the whole stack.  For
    each matrix, solves [m_rs  -1; 1ᵀ 0] [u_s; z] = [0; 1] for the primal
    and the transposed system for the duals p_r.  An answer passes only
    when u and p are nonnegative (to _CERT_TOL before clipping) and the
    primal value zp = max(m u) exceeds the dual bound zd = min over
    columns of pᵀm by at most _CERT_TOL * zp: every simplex point costs
    at least zd (weak duality), so a passing u is optimal to that
    tolerance.  Each matrix gets the bits it would get alone.  Returns u,
    shape (B, cols), always: a matrix's row is NaN when the support is
    empty or |s| != |r|, its system is singular, or its certificate fails.
    """
    nb, nr, nc = m.shape
    k = s.shape[-1]
    if k == 0 or k != r.shape[-1]:
        return np.full((nb, nc), np.nan)
    m_rs = m[:, r[:, None], s]
    kkt = np.zeros((nb, 2, k + 1, k + 1))
    kkt[:, 0, :k, :k] = m_rs
    kkt[:, 1, :k, :k] = m_rs.transpose(0, 2, 1)
    kkt[:, :, :k, k] = -1.0
    kkt[:, :, k, :k] = 1.0
    rhs = np.zeros((nb, 2, k + 1, 1))
    rhs[:, :, k] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)[:, :, :k, 0]
    except np.linalg.LinAlgError:
        # one singular system fails the whole stack: solve each alone
        sol = np.full((nb, 2, k), np.nan)
        for i in range(nb):
            try:
                sol[i] = np.linalg.solve(kkt[i], rhs[i])[:, :k, 0]
            except np.linalg.LinAlgError:
                pass
    # a NaN minimum compares false, so it fails too
    ok = sol.min(axis=(1, 2)) >= -_CERT_TOL
    if not ok.all():
        if not ok.any():
            return np.full((nb, nc), np.nan)
        m, sol = m[ok], sol[ok]
    u = np.zeros((len(m), nc))
    p = np.zeros((len(m), nr))
    u[:, s] = np.maximum(sol[:, 0], 0.0)
    p[:, r] = np.maximum(sol[:, 1], 0.0)
    u /= u.sum(axis=1, keepdims=True)
    p /= p.sum(axis=1, keepdims=True)
    zp = (m @ u[:, :, None]).max(axis=1)[:, 0]
    zd = (p[:, None, :] @ m).min(axis=2)[:, 0]
    passed = zp - zd <= _CERT_TOL * zp
    if passed.all() and len(m) == nb:
        return u
    out = np.full((nb, nc), np.nan)
    out[np.flatnonzero(ok)[passed]] = u[passed]
    return out


def _scaled(
    a: np.ndarray, forced_zero: frozenset[int]
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The checks and scaling `_minmax_unit` applies, on a (B, rows, n) stack.

    Returns (cols, free, msc): the columns not in forced_zero, a (B,
    len(cols)) mask of those columns no row pays for, and each matrix's
    `cols` divided by its scale.  Raises InfeasibleError when every column
    is pinned, and ParameterError when an entry of an unpinned column is
    not finite (an overflowing weight).
    """
    cols = [k for k in range(a.shape[2]) if k not in forced_zero]
    if not cols:
        raise InfeasibleError("every node is forced to zero workload")
    sub = a[:, :, cols]
    if not np.isfinite(sub).all():
        raise ParameterError(
            "split cost matrix overflows float64: a weight or node parameter "
            "is too large"
        )
    free = sub.sum(axis=1) == 0.0
    # scale by the smallest per-column maximum: that value bounds the
    # optimum from above (all mass on that column), and the optimum is at
    # least it divided by the column count, so the scaled solution sits in
    # [1/m, 1] even when entries span many orders of magnitude; a matrix
    # with a free column scales by zero into NaN and infinities, which fail
    # every certificate
    scale = sub.max(axis=1).min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        msc = sub / scale[:, None, None]
    return cols, free, msc


def _minmax_unit(a: np.ndarray, forced_zero: frozenset[int]) -> np.ndarray:
    """Minimize max over rows of (a u) on the simplex, for a stack of a.

    a is a (B, rows, cols) stack; row i is the node of column i + cols -
    rows.  Columns in forced_zero are pinned to zero.  Returns the (B,
    cols) unit weights u, each certified by `_cascade`.  Raises
    InfeasibleError when no step certifies a split, and ParameterError
    when a column that is not pinned holds a value that is not finite (an
    overflowing weight).
    """
    cols, free, msc = _scaled(a, forced_zero)
    own_row = np.array(cols) - (a.shape[2] - a.shape[1])
    u = np.zeros((len(a), a.shape[2]))
    u[:, cols] = _cascade(msc, free, own_row)[0]
    return u


def _cascade(
    msc: np.ndarray, free: np.ndarray, own_row: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray] | None]]:
    """The split cascade on a (B, rows, cols) stack `_scaled` made.

    free is the stack's (B, cols) mask of the columns no row pays for, and
    own_row, ascending and the same for the whole stack, is each column's
    row, negative where a node has no row.  Each matrix takes the first
    step its certificate passes:

    1. free column: it takes everything at zero cost, with no support;
    2. saddle point: all weight on the column c of least maximum, R the
       row r of greatest minimum, when colmax[c] - rowmin[r] <= _CERT_TOL
       * colmax[c] (`_equalise`'s weak-duality check on ([c], [r]));
    3. every node works, the usual optimum: S every column and R their
       own rows, unless a column has none; one `_equalise` for the stack;
    4. simplex, one loop in stack order: the (S, R) the last simplex run
       certified is tried on the matrices after it with one stacked
       `_equalise`, over a window of _SWEEP that doubles while every
       matrix in it passes.  The first one it fails is pivoted on: the
       basis a dense simplex stops on from the origin gives (S, R)
       (`_simplex_support`; a basis of the game's LP is an (S, R),
       Shapley and Snow 1950), and a basis the certificate refutes is
       reinverted and pivoted on again, at most _REINVERT times.  Its
       support is carried on.

    Every step reads one failure signal, `_equalise`'s NaN row.  A matrix
    that steps 1-3 certify, or that the simplex pivots on, gets the bits
    it gets as a stack of one.  Raises InfeasibleError when the
    reinversion rounds run out.  Returns (u, supports): u, (B, cols), and
    each matrix's certified (S, R), None for a free column.
    """
    nb, _, nc = msc.shape
    u, supports, left = np.zeros((nb, nc)), [None] * nb, []
    # `_scaled` makes the least column maximum exactly 1 where no column
    # is free, so colmax[c] is 1 in the saddle test
    rowmin = msc.min(axis=2)
    pure = (1.0 - rowmin.max(axis=1) <= _CERT_TOL).tolist()
    for j, loose in enumerate(free.any(axis=1).tolist()):
        if loose:
            u[j, free[j].argmax()] = 1.0
        elif pure[j]:
            c = msc[j : j + 1].max(axis=1).argmin(axis=1)
            u[j, c[0]] = 1.0
            supports[j] = c, rowmin[j : j + 1].argmax(axis=1)
        else:
            left.append(j)
    every = np.arange(nc)
    if left and own_row[0] >= 0:
        at = slice(None) if len(left) == nb else left
        got = _equalise(msc[at], every, own_row)
        u[at] = got  # the simplex overwrites a refuted row's NaN
        for j, first in zip(left, got[:, 0].tolist()):
            if not math.isnan(first):
                supports[j] = every, own_row
    todo = [j for j in left if supports[j] is None]
    # width 0: pivot on todo[i]; else try `carried` on that many from it
    i, width = 0, 0
    while i < len(todo):
        if width:
            at = todo[i : i + width]
            got = _equalise(msc[at], *carried)
            ok = ~np.isnan(got[:, 0])
            passed = len(at) if ok.all() else int(ok.argmin())
            u[at[:passed]] = got[:passed]
            for j in at[:passed]:
                supports[j] = carried
            i += passed
            width = 2 * width if passed == width else 0
            continue
        j, carried = todo[i], None
        for _ in range(1 + _REINVERT):
            carried = _simplex_support(msc[j], carried)
            got = _equalise(msc[j : j + 1], *carried)
            if not math.isnan(got[0, 0]):
                break
        else:
            raise InfeasibleError("min-max split could not be certified")
        u[j], supports[j] = got[0], carried
        i, width = i + 1, _SWEEP
    return u, supports


def _simplex_support(
    msc: np.ndarray, start: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(S, R) of the split from a dense primal simplex.

    Solves max 1ᵀx s.t. msc x <= 1, x >= 0 (x = u / value) on a tableau
    with the slacks as the first basis: the origin is feasible and every
    column has a positive entry, so the LP is bounded and needs no
    phase 1.  Enters the most negative reduced cost and leaves the lowest
    row of least ratio, switching for good to Bland's rule (lowest index
    in and out) after a degenerate step, so it cannot cycle.  Any positive
    entry may pivot, however small (a row whose own column is 1e21 times
    its others holds such entries), because entries that cancel to noise
    are zeroed (_CANCEL_TOL).  Pivoting stops at optimality, on a column
    with no positive entry, or after 50 (rows + cols) pivots, and returns
    the basis it holds: S, the basic x columns, and R, the rows whose
    slack left it; |S| = |R| and msc[R, S] is the basis matrix.  In exact
    arithmetic the LP is bounded, so a column with no positive entry is
    rounding noise, and the certificate judges that basis like any other.

    Pivots accumulate rounding, and a pivot on an entry that is only
    rounding noise breaks the tableau's link to its basis, so a final
    tableau can call a basis optimal that is not.  `start`, the (S, R) of
    such a basis, reinverts it: the tableau is rebuilt as B⁻¹[msc I | 1],
    B the columns of S and the slacks of the rows outside R, with fresh
    reduced costs, and pivoting resumes from there, entering any negative
    reduced cost (stopping at -_CERT_TOL, as a cold run does, can leave
    duals of -1e-13 that fail the certificate every round).  That basis
    need not be feasible; pivoting only searches for an (S, R), and the
    certificate judges it.  When B is numerically singular, returns
    `start` itself, which the certificate has already refuted.
    """
    nr, nc = msc.shape
    t = np.zeros((nr + 1, nc + nr + 1))
    t[:nr, :nc] = msc
    t[:nr, nc:-1] = np.eye(nr)
    t[:nr, -1] = 1.0
    t[nr, :nc] = -1.0
    basis = np.arange(nc, nc + nr)
    if start is not None:
        s, r = start
        basis = np.concatenate([s, nc + np.setdiff1d(np.arange(nr), r)])
        try:
            t[:nr] = np.linalg.solve(t[:nr, basis], t[:nr])
        except np.linalg.LinAlgError:
            return start
        if not np.isfinite(t).all():
            return start
        t[:nr, basis] = np.eye(nr)
        t[nr] -= t[nr, basis] @ t[:nr]
        t[nr, basis] = 0.0
    least = -_CERT_TOL if start is None else 0.0
    bland = False
    for _ in range(50 * (nr + nc)):
        entering = np.flatnonzero(t[nr, :-1] < least)
        if not entering.size:
            break
        j = entering[0] if bland else int(np.argmin(t[nr, :-1]))
        col = t[:nr, j]
        rows = np.flatnonzero(col > 0.0)
        if not rows.size:
            break
        ratio = t[rows, -1] / col[rows]
        ties = rows[ratio == ratio.min()]
        i = ties[np.argmin(basis[ties])] if bland else ties[0]
        bland = bland or not t[i, -1] > _CERT_TOL
        pivot = t[i] / t[i, j]
        step = np.outer(t[:, j], pivot)
        new = t - step
        new[np.abs(new) <= _CANCEL_TOL * (np.abs(t) + np.abs(step))] = 0.0
        new[i] = pivot
        t = new
        basis[i] = j
    s = np.sort(basis[basis < nc])
    r = np.flatnonzero(~np.isin(np.arange(nc, nc + nr), basis))
    return s, r


# unused: kept only because perfbench/tracing.py wraps this name (--trace 1)
def linprog(*args, **kwargs):
    """scipy's `linprog`, imported on the first call."""
    from scipy.optimize import linprog as highs

    return highs(*args, **kwargs)


def check_task_size(task_size: float) -> None:
    """Raise ParameterError unless task_size is a finite number >= 0."""
    checked("task_size", task_size)


def _solution(
    tree: SinkTree,
    schedule: Schedule,
    y,
    task_size: float,
    weights: Weights,
    b: float,
    tag: str,
    evaluated: int = 1,
) -> Solution:
    """Audit the split y (bits per node) under `schedule` into a Solution."""
    alloc = Allocation(y=tuple(float(v) for v in y), total=task_size)
    return Solution(
        tree=tree,
        weights=weights,
        b_comp=b,
        allocation=alloc,
        schedule=schedule,
        cost=system_cost(tree, schedule, alloc, weights, b).j_system,
        solver_tag=tag,
        schedules_evaluated=evaluated,
    )


def solve_fixed_order(
    tree: SinkTree,
    schedule: Schedule,
    task_size: float,
    weights: Weights,
    forced_zero: frozenset[int] = frozenset(),
    *,
    b: float,
) -> Solution:
    """Optimal split for one fixed schedule."""
    check_task_size(task_size)
    a = cost_coefficients(tree, schedule, weights, b)
    y = _minmax_unit(a[None], forced_zero)[0] * task_size
    return _solution(tree, schedule, y, task_size, weights, b, "fixed-order")


def _orders(groups):
    """One permutation of each group, every combination, lazily and in
    lexicographic order (the first group's order varies slowest)."""
    if not groups:
        yield ()
        return
    for first in itertools.permutations(groups[0]):
        for rest in _orders(groups[1:]):
            yield (first, *rest)


def count_schedules(tree: SinkTree) -> int:
    out = 1
    for t in tree.subtree_roots:
        out *= math.factorial(len(tree.subtrees[t]))
    return out


def _best_order(
    static: np.ndarray,
    shared: np.ndarray,
    groups,
    w1: float,
    task_size: float,
    forced_zero: frozenset[int],
):
    """Best transmission order, splitting the orders a block at a time.

    `static` and `shared` (a slice of the tree's sharing matrix) have a
    column per node and a row per node of their trailing columns: every
    node in `cmo`, every node but the master in a `pmo` probe.  An order
    takes one permutation of each of `groups`' columns, and its linear
    form is static + w1 times its `costs._waiting` mask.

    Orders come in lexicographic blocks of at most _BLOCK, and each block
    is one (B, rows, cols) stack of those forms, split by one
    `_minmax_unit` call.  An order scores the largest row of a @ y, y its
    split in bits, from one stacked matmul; ties go to the earliest order.
    Warns (RuntimeWarning) before more than 10**6 orders.  Returns
    (score, order, y, orders split), the order as one tuple of columns
    per group.
    """
    total = math.prod(math.factorial(len(g)) for g in groups)
    if total > _WARN_SCHEDULES:
        warnings.warn(
            f"enumerating {total} transmission orders (more than "
            f"{_WARN_SCHEDULES}), one split each; this may run for hours",
            RuntimeWarning,
            stacklevel=3,
        )
    orders = _orders(groups)
    best, split = None, 0
    while block := list(itertools.islice(orders, _BLOCK)):
        split += len(block)
        a = static + w1 * _waiting(shared, block)
        y = _minmax_unit(a, forced_zero) * task_size
        z = (a @ y[:, :, None]).max(axis=(1, 2), initial=0.0)
        k = int(z.argmin())
        if best is None or z[k] < best[0]:
            best = (float(z[k]), block[k], y[k])
    return (*best, split)


def cmo(
    tree: SinkTree,
    task_size: float,
    weights: Weights,
    forced_zero: frozenset[int] = frozenset(),
    *,
    b: float,
) -> Solution:
    """Exhaustive schedule search: one certified split per order combination.

    Every schedule is split on the one static matrix and scored by its
    largest node cost (`_best_order`, a block of schedules per stacked
    solve); only the winner becomes a Schedule and is audited into a
    Solution.  Ties go to the earliest schedule in enumeration order.
    Warns (RuntimeWarning) before enumerating more than 10**6 schedules.
    """
    check_task_size(task_size)
    _, orders, y, evaluated = _best_order(
        _static_matrix(tree, weights, b),
        tree.shared_inv_rate,
        [tree.subtrees[t] for t in tree.subtree_roots],
        weights.w1,
        task_size,
        forced_zero,
    )
    schedule = Schedule(orders=orders)
    return _solution(tree, schedule, y, task_size, weights, b, "cmo", evaluated)


def solve_master_split(
    tree: SinkTree,
    static: np.ndarray,
    per_bit: dict[int, float],
    task_size: float,
    *,
    master_blocked: bool = False,
) -> tuple[float, dict[int, float]]:
    """Split the task between the master and whole subtrees.

    Each probed subtree t is summarized by its probe's cost per bit,
    per_bit[t]: its cost grows linearly with the bits it carries.  The
    master's row comes from the tree's static matrix `static`: its own
    compute, static[0, 0], plus the relay energy of pushing each subtree's
    share onto its first hop, static[0, t] (the same for every node of
    subtree t).  Subtrees missing from per_bit are pinned to zero, as is
    the master's own share when master_blocked is set.  Returns the
    master's bits and each subtree's bits.
    """
    roots = tree.subtree_roots
    a = np.zeros((len(roots) + 1, len(roots) + 1))
    a[0] = static[0, (0, *roots)]
    for idx, t in enumerate(roots):
        if t in per_bit:
            a[1 + idx, 1 + idx] = per_bit[t]
    forced = frozenset(1 + idx for idx, t in enumerate(roots) if t not in per_bit)
    if master_blocked:
        forced = forced | {0}
    u = _minmax_unit(a[None], forced)[0]
    y0 = float(u[0] * task_size)
    shares = {t: float(u[1 + idx] * task_size) for idx, t in enumerate(roots)}
    return y0, shares


def pmo(
    tree: SinkTree,
    task_size: float,
    weights: Weights,
    forced_zero: frozenset[int] = frozenset(),
    *,
    b: float,
) -> Solution:
    """Decomposition: order each subtree independently, then split.

    A subtree's nodes cost nothing to other subtrees, so each subtree with
    a node that is not forced to zero is probed in place: its orders are
    enumerated as in `cmo` (`_best_order`, in blocks) on the slices of the
    static and sharing matrices with its nodes as rows and the master plus
    its nodes as columns, the master's column pinned to zero.  The probe carries the
    whole task (1 bit for a zero task, as does the master split); its best
    score per bit is the subtree's cost per bit in `solve_master_split`,
    whose master row holds the master's relay energy for the subtree.
    Each subtree's split keeps its probe's shape, scaled to its share.
    Only the answer is audited.  Matches `cmo` cost while evaluating
    sum-of-factorials many schedules instead of their product.
    """
    check_task_size(task_size)
    static = _static_matrix(tree, weights, b)
    probe_size = task_size if task_size > 0.0 else 1.0
    orders = dict(tree.subtrees)
    per_bit, shares = {}, {}
    evaluated = 0
    for t, nodes in tree.subtrees.items():
        if all(i in forced_zero for i in nodes):
            continue
        forced = frozenset({0}) | {
            k for k, i in enumerate(nodes, 1) if i in forced_zero
        }
        cols = (0, *nodes)
        z, (order,), y, tried = _best_order(
            static[np.ix_(nodes, cols)],
            tree.shared_inv_rate[np.ix_(nodes, cols)],
            [range(1, len(cols))],
            weights.w1,
            probe_size,
            forced,
        )
        orders[t] = tuple(cols[k] for k in order)
        per_bit[t] = z / probe_size
        shares[t] = y[1:] / probe_size
        evaluated += tried
    schedule = Schedule(orders=tuple(orders[t] for t in tree.subtree_roots))
    evaluated = max(evaluated, 1)

    y0, subtree_share = solve_master_split(
        tree, static, per_bit, probe_size, master_blocked=0 in forced_zero
    )
    u = np.zeros(len(tree))
    u[0] = y0 / probe_size
    for t, share in shares.items():
        # probe shape, rescaled to the subtree's awarded total
        u[list(tree.subtrees[t])] = share * subtree_share[t] / probe_size
    return _solution(
        tree, schedule, u * task_size, task_size, weights, b, "pmo", evaluated
    )


def scale_solution(base: Solution, new_task_size: float) -> Solution:
    """Rescale a solved split to a new task size; schedule and shape carry over."""
    check_task_size(new_task_size)
    if base.allocation.total <= 0.0:
        raise ParameterError("base solution must have a positive task size")
    factor = new_task_size / base.allocation.total
    return _solution(
        base.tree,
        base.schedule,
        [v * factor for v in base.allocation.y],
        new_task_size,
        base.weights,
        base.b_comp,
        base.solver_tag + "+scaled",
        base.schedules_evaluated,
    )


# --- cached baseline for the offline/online scheme -------------------------


def save_baseline(path, sol: Solution) -> None:
    """Persist a solved baseline keyed by the tree's content hash."""
    doc = {
        "tree_sha": tree_fingerprint(sol.tree),
        "task_size": sol.allocation.total,
        "weights": [sol.weights.w1, sol.weights.w2],
        "b_comp": sol.b_comp,
        "y": list(sol.allocation.y),
        "orders": [list(seq) for seq in sol.schedule.orders],
        "cost": sol.cost,
        "solver_tag": sol.solver_tag,
    }
    write_json(path, doc)


def load_baseline(path, tree: SinkTree, weights: Weights, b: float) -> Solution | None:
    """Recover a cached baseline; None when the tree or settings changed.

    A file that is not a cached plan raises ParameterError naming it.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None
    except ValueError as exc:  # also undecodable bytes
        raise ParameterError(f"{path}: not a cached plan: {exc}") from None
    if not isinstance(doc, dict):
        raise ParameterError(f"{path}: not a cached plan: not a JSON object")
    if (
        doc.get("tree_sha") != tree_fingerprint(tree)
        or doc.get("weights") != [weights.w1, weights.w2]
        or doc.get("b_comp") != b
    ):
        return None
    try:
        schedule = Schedule(orders=tuple(tuple(seq) for seq in doc["orders"]))
        y, task_size = doc["y"], float(doc["task_size"])
        tag = str(doc.get("solver_tag", "cached"))
        return _solution(tree, schedule, y, task_size, weights, b, tag)
    except KeyError as missing:
        raise ParameterError(f"{path}: cached plan missing key {missing}") from None
    except (TypeError, ValueError) as exc:  # also ParameterError, ScheduleError
        raise ParameterError(f"{path}: not a usable cached plan: {exc}") from None
