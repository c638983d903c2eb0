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
(weak duality).  `_minmax_unit` describes the cascade that finds
(S, R): a cold split first tries a pure saddle point, then guesses that
every node free to work does work, and a dense simplex runs only when
the certificate refutes both; a simplex basis the certificate refutes,
or the one it holds when it gives up, is rebuilt from the matrix and
pivoted on again.  A split that no step of the cascade certifies raises
InfeasibleError, so every split returned carries the certificate.

`cmo` enumerates every per-subtree transmission order and keeps the
best.  `_best_order` takes the orders in lexicographic blocks: one stack
of linear forms per block, the last certified (S, R) carried from one
order to the next and tried on many orders in one stacked equaliser
solve, and one stacked matmul to score them.  Every order's split has the
bits a one-order-at-a-time loop would give it.  The genetic search in
`heuristics.ga` carries (S, R) the same way from one fitness evaluation
to the next, a stack of one at a time.
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
    CostBreakdown,
    Schedule,
    Weights,
    _static_matrix,
    cost_coefficients,
    system_cost,
)
from .errors import InfeasibleError, ParameterError, checked
from .tree import SinkTree, tree_fingerprint
from .units import DEFAULT_B

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
# _best_order stacks at most this many orders at once, and first tries a
# carried support on this many of them
_BLOCK = 2048
_SWEEP = 8


@dataclass(frozen=True)
class Solution:
    """A solved instance: the split, the schedule, and its audited cost.

    A split solved here (every exact solver's, and GA's) is certified
    optimal for its schedule; one that cannot be certified raises
    InfeasibleError instead (see `_minmax_unit`).
    """

    tree: SinkTree
    weights: Weights
    b_comp: float
    task_size: float
    allocation: Allocation
    schedule: Schedule
    cost: float
    breakdown: CostBreakdown
    solver_tag: str
    schedules_evaluated: int = 1


def _equalise(m: np.ndarray, s: np.ndarray, r: np.ndarray) -> np.ndarray | None:
    """Equal-finish weights on support s and tight rows r, where provably optimal.

    m is a (B, rows, cols) stack of matrices; a single split is a stack of
    one.  s and r are either one (k,) support shared by every matrix or
    both (B, k), a support per matrix.  For each matrix, solves
    [m_rs  -1; 1ᵀ 0] [u_s; z] = [0; 1] for the primal and the transposed
    system for the duals p_r.  An answer passes only when u and p are
    nonnegative (to _CERT_TOL before clipping) and the primal value
    zp = max(m u) exceeds the dual bound zd = min over columns of pᵀm by
    at most _CERT_TOL * zp: every simplex point costs at least zd (weak
    duality), so a passing u is optimal to that tolerance.  Each matrix
    gets the bits it would get alone.  Returns u, shape (B, cols), with a
    row of NaN for each matrix whose system is singular or whose
    certificate fails; None when none passes.
    """
    k = s.shape[-1]
    if k == 0 or k != r.shape[-1]:
        return None
    nb, nr, nc = m.shape
    shared = s.ndim == 1
    if shared:
        m_rs = m[:, r[:, None], s]
    else:
        m_rs = m[np.arange(nb)[:, None, None], r[:, :, None], s[:, None, :]]
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
            return None
        m, sol = m[ok], sol[ok]
        if not shared:
            s, r = s[ok], r[ok]
    u = np.zeros((len(m), nc))
    p = np.zeros((len(m), nr))
    if shared:
        u[:, s] = np.maximum(sol[:, 0], 0.0)
        p[:, r] = np.maximum(sol[:, 1], 0.0)
    else:
        at = np.arange(len(m))[:, None]
        u[at, s] = np.maximum(sol[:, 0], 0.0)
        p[at, r] = np.maximum(sol[:, 1], 0.0)
    u /= u.sum(axis=1, keepdims=True)
    p /= p.sum(axis=1, keepdims=True)
    zp = (m @ u[:, :, None]).max(axis=1)[:, 0]
    zd = (p[:, None, :] @ m).min(axis=2)[:, 0]
    passed = zp - zd <= _CERT_TOL * zp
    if passed.all() and len(m) == nb:
        return u
    if not passed.any():
        return None
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


def _minmax_unit(
    a: np.ndarray,
    forced_zero: frozenset[int],
    warm: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """Minimize max over rows of (a u) on the simplex; returns unit weights u.

    Columns in forced_zero are pinned to zero.

    The optimum is the equal-finish point of some support S of columns and
    as many tight rows R, so it is found by `_equalise` and certified by a
    dual vector.  After `_scaled`, `_cascade` runs the one split cascade;
    each step runs only when every earlier one failed its certificate:

    1. carried support: `warm`, the (S, R) of an earlier answer on a
       matrix of the same shape;
    2. saddle point: all weight on the column of least maximum, with
       the row of greatest minimum as R, when the pure-strategy test of
       `_saddle` passes (that test is `_equalise`'s certificate on this
       support);
    3. every node works, the usual optimum: S is every free column and R
       those nodes' own rows (row i is the node of column i + cols - rows,
       as in `_best_order`), unless a free column has no row;
    4. simplex: a dense simplex cold-starts from the origin and the basis
       it stops on gives (S, R) (`_simplex_support`; a basis of the game's
       LP is an (S, R), Shapley and Snow 1950); a basis the certificate
       refutes is reinverted, rebuilt from msc with fresh reduced costs,
       and pivoted on again, at most _REINVERT times.

    Raises InfeasibleError when no step certifies the split, and
    ParameterError when a column that is not pinned holds a value
    that is not finite (an overflowing weight).  Returns (u, support):
    support is the certified (S, R) to warm-start the next call, or None.
    """
    cols, free, msc = _scaled(a[None], forced_zero)
    u = np.zeros(a.shape[1])
    own_row = np.array(cols) - (a.shape[1] - a.shape[0])
    u[cols], support = _cascade(msc, free[0], own_row, warm)
    return u, support


def _cascade(
    msc: np.ndarray,
    free: np.ndarray,
    own_row: np.ndarray,
    warm: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """`_minmax_unit`'s cascade on a matrix `_scaled` has already scaled.

    msc is a (1, rows, cols) stack of one and free its mask of the columns
    no row pays for.  own_row[k] is the row of column k's node, negative
    when that node has no row.  Returns (u, support), u over msc's columns.
    """
    if free.any():
        # a column nobody pays for absorbs everything at zero cost
        u = np.zeros(len(free))
        u[free.argmax()] = 1.0
        return u, None
    u = None if warm is None else _equalise(msc, *warm)
    if u is None:
        c, r, pure = _saddle(msc)
        if pure[0]:
            # the pure test is _equalise's own check on ([c], [r])
            warm = c, r
            u = np.eye(msc.shape[2])[c]
    if u is None and own_row[0] >= 0:
        warm = np.arange(len(own_row)), own_row
        u = _equalise(msc, *warm)
    if u is None:
        warm = None
        for _ in range(1 + _REINVERT):
            warm = _simplex_support(msc[0], warm)
            u = None if warm is None else _equalise(msc, *warm)
            if u is not None or warm is None:
                break
    if u is None:
        raise InfeasibleError("min-max split could not be certified")
    return u[0], warm


def _saddle(msc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pure-strategy saddle points of a (B, rows, cols) stack.

    c is each matrix's column of least maximum and r its row of greatest
    minimum, the first on ties.  All weight on c is optimal when
    colmax[c] - rowmin[r] <= _CERT_TOL * colmax[c]: the weak-duality check
    `_equalise` applies to ([c], [r]).  Returns (c, r, pure), each (B,).
    """
    colmax, rowmin = msc.max(axis=1), msc.min(axis=2)
    top = colmax.min(axis=1)
    pure = top - rowmin.max(axis=1) <= _CERT_TOL * top
    return colmax.argmin(axis=1), rowmin.argmax(axis=1), pure


def _simplex_support(
    msc: np.ndarray, start: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """(S, R) of the split from a dense primal simplex, or None.

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
    reduced costs, and pivoting resumes from there.  That basis need not
    be feasible; pivoting only searches for an (S, R), and the
    certificate judges it.  None only when B is numerically singular.
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
            return None
        if not np.isfinite(t).all():
            return None
        t[:nr, basis] = np.eye(nr)
        t[nr] -= t[nr, basis] @ t[:nr]
        t[nr, basis] = 0.0
    bland = False
    for _ in range(50 * (nr + nc)):
        entering = np.flatnonzero(t[nr, :-1] < -_CERT_TOL)
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
    breakdown = system_cost(tree, schedule, alloc, weights, b)
    return Solution(
        tree=tree,
        weights=weights,
        b_comp=b,
        task_size=task_size,
        allocation=alloc,
        schedule=schedule,
        cost=breakdown.j_system,
        breakdown=breakdown,
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
    b: float = DEFAULT_B,
) -> Solution:
    """Optimal split for one fixed schedule."""
    check_task_size(task_size)
    a = cost_coefficients(tree, schedule, weights, b)
    y = _minmax_unit(a, forced_zero)[0] * task_size
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


def enumerate_schedules(tree: SinkTree):
    """Every per-subtree order combination, lazily, in lexicographic order."""
    groups = [tree.subtrees[t] for t in tree.subtree_roots]
    return (Schedule(orders=orders) for orders in _orders(groups))


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
    takes one permutation of each of `groups`' columns and ranks each
    column by its place in its group (0 outside every group).  As in
    `costs._waiting`, row i waits on every column ranked before it, so an
    order's linear form a is static + w1 * shared * (rank_i > rank_j).

    Orders come in lexicographic blocks of at most _BLOCK, and each block
    is one (B, rows, cols) stack of those forms.  Every order gets the
    split `_minmax_unit` gives it with the previous order's certified
    support carried in, bit for bit.  The carried support is tried on the
    pending orders with one stacked `_equalise`, over a window of
    _SWEEP orders that doubles while every order in it passes.  The
    first order it fails (every order with a free column fails) goes
    through `_cascade` on its scaled matrix, and the support that order
    certifies is swept over the orders after it.  An order scores the
    largest row of a @ y, y its split in bits, from one stacked matmul;
    ties go to the earliest order.  Warns (RuntimeWarning) before more
    than 10**6 orders.  Returns (score, order, y, orders tried), the order
    as one tuple of columns per group.
    """
    total = math.prod(math.factorial(len(g)) for g in groups)
    if total > _WARN_SCHEDULES:
        warnings.warn(
            f"enumerating {total} transmission orders (more than "
            f"{_WARN_SCHEDULES}), one split each; this may run for hours",
            RuntimeWarning,
            stacklevel=3,
        )
    nr, n = static.shape
    place = np.array([k for g in groups for k in range(len(g))], dtype=int)
    orders = _orders(groups)
    best, support = None, None
    while block := list(itertools.islice(orders, _BLOCK)):
        nb = len(block)
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.chain.from_iterable(block)),
            dtype=int,
            count=nb * place.size,
        ).reshape(nb, place.size)
        rank = np.zeros((nb, n), dtype=int)
        rank[np.arange(nb)[:, None], flat] = place
        a = static + w1 * (shared * (rank[:, n - nr :, None] > rank[:, None, :]))
        cols, free, msc = _scaled(a, forced_zero)
        own_row = np.array(cols) - (n - nr)
        u = np.zeros((nb, n))
        i = 0
        while i < nb:
            width = _SWEEP
            while support is not None and i < nb:
                window = min(width, nb - i)
                got = _equalise(msc[i : i + window], *support)
                ok = [False] if got is None else ~np.isnan(got[:, 0])
                passed = window if np.all(ok) else int(np.argmin(ok))
                if passed:
                    u[i : i + passed, cols] = got[:passed]
                i += passed
                if passed < width:
                    break
                width *= 2
            if i < nb:
                u[i, cols], support = _cascade(msc[i : i + 1], free[i], own_row)
                i += 1
        y = u * task_size
        z = (a @ y[:, :, None]).max(axis=(1, 2), initial=0.0)
        k = int(z.argmin())
        if best is None or z[k] < best[0]:
            best = (float(z[k]), block[k], y[k])
    return (*best, total)


def cmo(
    tree: SinkTree,
    task_size: float,
    weights: Weights,
    forced_zero: frozenset[int] = frozenset(),
    *,
    b: float = DEFAULT_B,
) -> Solution:
    """Exhaustive schedule search: one certified split per order combination.

    Every schedule is split on the one static matrix, each split starting
    from the previous schedule's certified support, and scored by its
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
    u, _ = _minmax_unit(a, forced)
    y0 = float(u[0] * task_size)
    shares = {t: float(u[1 + idx] * task_size) for idx, t in enumerate(roots)}
    return y0, shares


def pmo(
    tree: SinkTree,
    task_size: float,
    weights: Weights,
    forced_zero: frozenset[int] = frozenset(),
    *,
    b: float = DEFAULT_B,
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
    if base.task_size <= 0.0:
        raise ParameterError("base solution must have a positive task size")
    factor = new_task_size / base.task_size
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
        "task_size": sol.task_size,
        "weights": [sol.weights.w1, sol.weights.w2],
        "b_comp": sol.b_comp,
        "y": list(sol.allocation.y),
        "orders": [list(seq) for seq in sol.schedule.orders],
        "cost": sol.cost,
        "solver_tag": sol.solver_tag,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_baseline(
    path, tree: SinkTree, weights: Weights, b: float = DEFAULT_B
) -> Solution | None:
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
