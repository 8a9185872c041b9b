"""Dense dual simplex for the l1-minimal point of a system of ranged rows.

Solves  min |v|_1  subject to  lower <= A v <= upper,  v free  (A is k x d).
Row j has a logical r_j = A_j v in [lower_j, upper_j] (lower_j = -inf for a
one-sided row), and v_i costs |v_i|, with its breakpoint at 0. A nonbasic
v_i sits at 0, a nonbasic logical at one of its bounds, and a basic v_i on
one side of 0, at cost +1 or -1. The condensed tableau [T, x_B; z, .] is
(k+1) x (d+1), with x_B = T x_N and the reduced costs z = c_B T; labels name
the basic variable of each row and the nonbasic one of each column, and a
pivot is a Jordan exchange, which swaps one row label with one column label.

The all-logical start at v = 0 has z = 0, so it is dual feasible with no
phase one. The dual simplex leaves the most infeasible basic variable at
the bound it violates, and its ratio test flips bounds: each logical it
passes moves to its other bound while the leaving variable stays infeasible
(Fourer, Math. Prog. 1985; Koberstein, PhD thesis, Paderborn 2005). After a
run of degenerate pivots it falls back to Bland's rule without flips.

A warm state is the k basic labels: i for v_i > 0, d + i for v_i < 0, 2d + j
for the logical of row j. Each nonbasic logical sits at the bound its
reduced cost allows, so the labels fix the vertex; its tableau is rebuilt
from the all-logical one by one block exchange. Along a path of widths an
optimal basis stays dual feasible, so the dual simplex resumes from it.
Every returned vertex passes a feasibility and a duality-gap certificate.
"""
from __future__ import annotations

import numpy as np

from .errors import SolverError

_RC_TOL = 1e-9  # reduced-cost and infeasibility tolerance
_PIV_TOL = 1e-9  # smallest acceptable pivot element
_STALL_LIMIT = 30  # degenerate pivots before switching to Bland's rule
_FEAS_TOL = 1e-7  # certificates, relative to the scale of the programme


def _pivot(tab: np.ndarray, p: int, q: int) -> None:
    """Jordan exchange in place of basic row ``p`` with nonbasic column ``q``."""
    pivot_row = tab[p] / -tab[p, q]
    pivot_row[q] = 1.0 / tab[p, q]
    factors = tab[:, q].copy()
    tab[:, q] = 0.0
    tab += factors[:, None] * pivot_row
    tab[p] = pivot_row


def _exchange(tab: np.ndarray, at_rows: np.ndarray, at_cols: np.ndarray) -> None:
    """Block Jordan exchange in place: the rows ``at_rows`` trade places with
    the columns ``at_cols``, pairwise. It equals the single pivots of
    :func:`_pivot` on the block, done by one block inverse and two products.
    Raises ``LinAlgError`` when the block is singular or not square."""
    if at_rows.size != at_cols.size:
        raise np.linalg.LinAlgError("exchange block is not square")
    factors = tab[:, at_cols]
    pivot_rows = -tab[at_rows]
    pivot_rows[:, at_cols] = np.eye(at_cols.size)
    pivot_rows = np.linalg.inv(factors[at_rows]) @ pivot_rows
    tab[:, at_cols] = 0.0
    tab += factors @ pivot_rows
    tab[at_rows] = pivot_rows


def _iterate(tab, rows, cols, lows, highs, costs, max_iter) -> np.ndarray | None:
    """Dual simplex pivots in place from the basis ``rows``/``cols`` to an
    optimal one; labels index ``lows``/``highs``/``costs``, and a nonbasic
    v_i is labelled i. Returns each nonbasic column's side (+1 for a logical
    at its lower bound, -1 at its upper, 0 for a v), or None when the start
    is not dual feasible. Raises ``SolverError`` when the rows admit no
    point, or on iteration exhaustion.
    """
    k, d = rows.size, cols.size
    free = (cols < 2 * d).astype(float)  # 1.0 for a v column, 0.0 for a logical
    lo_b, hi_b = lows[rows], highs[rows]
    tab[k, :d] = costs[rows] @ tab[:k, :d]
    z, x_b = tab[k, :d], tab[:k, d]
    if not np.abs(z * free).max() <= 1.0 + _RC_TOL:  # also catches nan
        return None
    # Each nonbasic logical sits at the bound its reduced cost allows (either
    # bound at z = 0, by the sign of the zero).
    step = np.copysign(1.0 - free, z)
    val = np.where(step < 0, highs[cols], lows[cols])
    if np.isinf(val).any():
        return None
    span = highs[cols] - lows[cols]
    x_b[:] = tab[:k, :d] @ val
    labels = rows.tolist()  # scalar reads are cheaper from a list; written back on return
    ratio = np.empty(d)
    stall, use_bland = 0, False
    for _ in range(max_iter):
        infeas = np.maximum(lo_b - x_b, x_b - hi_b)
        if use_bland:
            late = np.flatnonzero(infeas > _RC_TOL)
            p = late[np.array(labels)[late].argmin()] if late.size else 0
        else:
            p = infeas.argmax()
        delta = infeas[p]
        if delta <= _RC_TOL:
            rows[:] = labels
            return step
        sgn = 1.0 if x_b[p] < lo_b[p] else -1.0
        # Column j changes x_p toward its bound at rate t_j; moving that way
        # costs rc_j per unit of x_j, so ratio_j = rc_j / |t_j| per unit of
        # x_p, where rc_j = sign(t_j) z_j + 1 for a v and sign(t_j) z_j for a
        # logical, which may only move off its bound.
        t = tab[p, :d] * sgn
        size = np.abs(t)
        ratio.fill(np.inf)
        ok = np.where(free, size, t * step) > _PIV_TOL
        np.divide(z + np.copysign(free, t), t, out=ratio, where=ok)
        q = ratio.argmin()
        # A leaving v may instead cross 0 and stay basic on its other side:
        # a breakpoint at ratio 2 that no column passes.
        limit = 2.0 if labels[p] < 2 * d else np.inf
        if ratio[q] >= limit:
            q = None
        elif use_bland:
            ties = np.flatnonzero(ratio <= ratio[q] + _PIV_TOL)
            q = ties[cols[ties].argmin()]
        elif size[q] * span[q] < delta:
            # Pass breakpoints in ratio order while flipping them leaves x_p
            # infeasible; the first one that would not, enters.
            cand = np.flatnonzero(ratio < limit)
            cand = cand[np.argsort(ratio[cand])]
            stop = np.searchsorted(np.cumsum(size[cand] * span[cand]), delta)
            q, flips = (cand[stop] if stop < cand.size else None), cand[:stop]
            step[flips] = -step[flips]
            moved = np.where(step[flips] > 0, lows[cols[flips]], highs[cols[flips]])
            x_b += tab[:k, flips] @ (moved - val[flips])
            val[flips] = moved
        if q is None and limit == np.inf:
            raise SolverError("infeasible constraint system")
        if q is None or ratio[q] * size[q] > _RC_TOL:
            stall, use_bland = 0, False
        else:
            stall += 1
            use_bland = use_bland or stall >= _STALL_LIMIT
        leaving = labels[p]
        if q is None:
            z -= 2.0 * costs[leaving] * tab[p, :d]
            entering = (leaving + d) % (2 * d)
        else:
            bound = lo_b[p] if sgn > 0 else hi_b[p]
            entering = int(cols[q]) + (d if free[q] and t[q] < 0 else 0)
            # Exchanged, x_B holds the values at x_p = bound, with x_q's change
            # from its old value in row p; z loses x_p's cost and gains x_q's.
            x_b[p] -= bound
            _pivot(tab, p, q)
            x_b[p] += val[q]
            z[q] -= costs[leaving]
            if costs[entering]:
                z += costs[entering] * tab[p, :d]
            free[q], step[q], val[q] = (1.0, 0.0, 0.0) if leaving < 2 * d else (0.0, sgn, bound)
            cols[q] = leaving % d if free[q] else leaving
            span[q] = highs[cols[q]] - lows[cols[q]]
        labels[p] = entering
        lo_b[p], hi_b[p] = lows[entering], highs[entering]
    raise SolverError("simplex iteration limit reached")


def _certify(a: np.ndarray, lower: np.ndarray, upper: np.ndarray, v: np.ndarray, y: np.ndarray):
    """Raise ``SolverError`` unless ``v`` satisfies the rows and the row duals
    ``y`` prove it optimal: |a' y|_inf <= 1 and sum(lower y+ - upper y-)
    equals |v|_1."""
    bounds = np.abs(np.concatenate([lower, upper]))
    scale = _FEAS_TOL * max(1.0, bounds[bounds < np.inf].max(initial=0.0))
    act = a @ v
    if np.maximum(lower - act, act - upper).max() > scale:
        raise SolverError("simplex vertex failed feasibility certificate")
    l1 = np.abs(v).sum()
    gap = np.where(y > 0, lower, np.where(y < 0, upper, 0.0)) @ y - l1
    if np.abs(a.T @ y).max() > 1.0 + _FEAS_TOL or abs(gap) > scale * max(1.0, l1):
        raise SolverError("simplex vertex failed duality certificate")


def solve_lp(
    a: np.ndarray, lower: np.ndarray, upper: np.ndarray, basis: np.ndarray | None = None
) -> np.ndarray:
    """Minimise ``|v|_1`` over ``lower <= a @ v <= upper``, ``v`` free.

    ``basis``, when given, holds the k basic labels of the warm state (see
    the module notes): the solve starts from it and overwrites it with the
    optimal one. Labels that repeat, a singular block or a start that is
    not dual feasible fall back to the all-logical start. Raises
    :class:`SolverError` when infeasible, or when the returned vertex fails
    its feasibility or duality-gap certificate.
    """
    a = np.asarray(a, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    k, d = a.shape
    if lower.shape != (k,) or upper.shape != (k,) or (basis is not None and basis.shape != (k,)):
        raise SolverError("inconsistent LP dimensions")
    lows = np.concatenate([np.zeros(d), np.full(d, -np.inf), lower])
    highs = np.concatenate([np.full(d, np.inf), np.zeros(d), upper])
    costs = np.repeat([1.0, -1.0, 0.0], [d, d, k])
    for labels in ([] if basis is None else [basis]) + [2 * d + np.arange(k)]:
        if labels.min() < 0 or labels.max() >= 2 * d + k:
            continue
        tab = np.zeros((k + 1, d + 1))
        tab[:k, :d] = a
        rows, cols = 2 * d + np.arange(k), np.arange(d)
        # The basic v_i enter for the logicals of the rows left out.
        v_labels = labels[labels < 2 * d]
        leave = np.flatnonzero(np.bincount(labels, minlength=2 * d + k)[2 * d :] == 0)
        try:
            if v_labels.size:
                _exchange(tab, leave, v_labels % d)
            rows[leave], cols[v_labels % d] = v_labels, 2 * d + leave
            step = _iterate(tab, rows, cols, lows, highs, costs, 200 * (k + d) + 1000)
        except np.linalg.LinAlgError:
            continue
        if step is not None:
            break
    v, basic_v = np.zeros(d), rows < 2 * d
    v[rows[basic_v] % d] = tab[:k, d][basic_v]
    # Row duals: a nonbasic logical's reduced cost, clipped to the sign its
    # bound allows, and 0 for a basic one.
    logical = cols >= 2 * d
    y = np.zeros(k)
    y[cols[logical] - 2 * d] = (np.maximum(tab[k, :d] * step, 0.0) * step)[logical]
    _certify(a, lower, upper, v, y)
    if basis is not None:
        basis[:] = rows
    return v


def solve_l1_box(
    a_mat: np.ndarray,
    rhs: np.ndarray,
    widths: float | np.ndarray,
    bases: dict[int, np.ndarray] | None = None,
) -> np.ndarray:
    """Minimise |v|_1 subject to |a_mat @ v - rhs| <= widths elementwise.

    ``rhs`` is one target (k,) or one per column (k, p), and ``widths``
    broadcasts to its shape; each column is one LP with ranged rows
    rhs - widths <= a_mat @ v <= rhs + widths, and the result has the shape
    of ``rhs`` with d rows. ``bases`` maps a column to its warm state (see
    :func:`solve_lp`): a column found there starts from its last optimal
    basis, and every column leaves its new one there, so a path over widths
    re-solves each column warm. Errors name the failing column.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    k, d = a_mat.shape
    targets = rhs.reshape(k, -1)
    bounds = np.broadcast_to(np.asarray(widths, dtype=float), rhs.shape).reshape(k, -1)
    lower, upper = targets - bounds, targets + bounds
    out = np.empty((d, targets.shape[1]))
    for j in range(targets.shape[1]):
        basis = None if bases is None else bases.setdefault(j, 2 * d + np.arange(k))
        try:
            out[:, j] = solve_lp(a_mat, lower[:, j], upper[:, j], basis)
        except SolverError as err:
            raise SolverError(f"column {j + 1}: {err}") from err
    return out.reshape((d,) + rhs.shape[1:])


def solve_l1_general(f_mat: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Minimise |v|_1 subject to f_mat @ v <= h (v unrestricted in sign)."""
    h = np.asarray(h, dtype=float)
    return solve_lp(f_mat, np.full(h.shape, -np.inf), h)
