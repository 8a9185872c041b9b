"""Dense simplex on a condensed tableau for small linear programs.

Solves  min c'x  subject to  A x <= b,  x >= 0.  The tableau [T, rhs; d, -z]
keeps only the nonbasic columns, (m+1) x (n+1), with label arrays naming the
basic variable of each row and the nonbasic variable of each column
(structurals 0..n-1, slacks n..n+m-1). A pivot is a Jordan exchange, which
swaps one row label with one column label.

The all-slack basis needs no artificial variables: with the clipped costs
max(c, 0) it is dual feasible, so the dual simplex starts there at once
(leave the most negative rhs, enter by the ratio test). The dual simplex
is the primal simplex on the dual tableau (the negated transpose, with rhs
and costs swapped), so both phases share one loop. Only when some c < 0 are
the true reduced costs rebuilt from the labels and the primal simplex run.
Pricing is steepest; after a run of degenerate pivots it falls back to
Bland's rule, which cannot cycle. Every returned vertex is checked for
feasibility.

A solve can also start from a given basis, whose tableau is rebuilt from
the slack one by a single block exchange. Along a path of right-hand sides
with c and A fixed, the previous optimal basis stays dual feasible, so the
dual simplex resumes from it instead of from the slack basis.
"""
from __future__ import annotations

import numpy as np

from .errors import SolverError

_RC_TOL = 1e-9  # reduced-cost tolerance
_PIV_TOL = 1e-9  # smallest acceptable pivot element
_STALL_LIMIT = 30  # degenerate pivots before switching to Bland's rule
_FEAS_TOL = 1e-7  # feasibility certificate, relative to max(1, max|b|)


def _iterate(
    tab: np.ndarray, rows: np.ndarray, cols: np.ndarray, max_iter: int, unbounded: str
) -> None:
    """Run primal simplex pivots on a condensed tableau in place until optimal.

    ``rows``/``cols`` label the basic and nonbasic variables and are swapped
    at each pivot. Raises ``SolverError(unbounded)`` when an improving column
    has no positive entry, or on iteration exhaustion.
    """
    m = tab.shape[0] - 1
    costs = tab[-1, :-1]  # views: pivots update the tableau in place
    rhs = tab[:m, -1]
    stall = 0
    use_bland = False
    last_obj = tab[-1, -1]
    for _ in range(max_iter):
        candidates = np.flatnonzero(costs < -_RC_TOL)
        if candidates.size == 0:
            return
        # Bland enters the smallest label, steepest the most negative cost.
        col = candidates[(cols[candidates] if use_bland else costs[candidates]).argmin()]
        column = tab[:m, col]
        eligible = np.flatnonzero(column > _PIV_TOL)
        if eligible.size == 0:
            raise SolverError(unbounded)
        ratios = rhs[eligible] / column[eligible]
        ties = eligible[ratios <= ratios.min() + _PIV_TOL]
        # Bland tie-break: leave the variable with the smallest label.
        row = ties[rows[ties].argmin()]
        # Jordan exchange: row and column labels trade places.
        pivot = tab[row, col]
        pivot_row = tab[row] / pivot
        pivot_row[col] = 1.0 / pivot
        factors = tab[:, col].copy()
        tab[:, col] = 0.0
        tab -= factors[:, None] * pivot_row
        tab[row] = pivot_row
        rows[row], cols[col] = cols[col], rows[row]
        # The corner stores minus the objective, so progress means it increases.
        obj = tab[-1, -1]
        if obj > last_obj + 1e-12:
            stall = 0
            use_bland = False
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                use_bland = True
        last_obj = obj
    raise SolverError("simplex iteration limit reached")


def _exchange(
    tab: np.ndarray, rows: np.ndarray, cols: np.ndarray, at_rows: np.ndarray, at_cols: np.ndarray
) -> None:
    """Block Jordan exchange in place: the labels of the rows ``at_rows``
    trade places with those of the columns ``at_cols``, pairwise.

    It equals the k single pivots of :func:`_iterate` on the k x k block,
    done by one linear solve and one matrix product. Raises ``LinAlgError``
    when the block is singular or not square.
    """
    if at_rows.size != at_cols.size:
        raise np.linalg.LinAlgError("exchange block is not square")
    factors = tab[:, at_cols]
    pivot_rows = tab[at_rows]
    pivot_rows[:, at_cols] = np.eye(at_cols.size)
    pivot_rows = np.linalg.solve(factors[at_rows], pivot_rows)
    tab[:, at_cols] = 0.0
    tab -= factors @ pivot_rows
    tab[at_rows] = pivot_rows
    rows[at_rows], cols[at_cols] = cols[at_cols], rows[at_rows]


def _slack_tableau(
    dual: np.ndarray, c: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fill ``dual`` with the dual tableau [-A', max(c, 0); b', 0] of the
    slack basis; return the basic and the nonbasic labels."""
    m, n = a.shape
    dual[:n, :m] = -a.T
    dual[:n, m] = np.maximum(c, 0.0)
    dual[n, :m] = b
    dual[n, m] = 0.0
    return n + np.arange(m), np.arange(n)


def _enter_basis(
    dual: np.ndarray, rows: np.ndarray, cols: np.ndarray, basis: np.ndarray
) -> bool:
    """Move a slack-basis dual tableau to the basic labels ``basis``.

    The basic structurals S enter in one block exchange, for the slacks of
    the rows R that leave. Returns whether the result is usable: a square,
    nonsingular block and dual feasible reduced costs.
    """
    n = cols.size
    is_basic = np.zeros(n + rows.size, dtype=bool)
    is_basic[basis] = True
    try:
        _exchange(dual, cols, rows, np.flatnonzero(is_basic[:n]), np.flatnonzero(~is_basic[n:]))
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.isfinite(dual))) and dual[:n, -1].min(initial=0.0) >= -_RC_TOL


def solve_lp(
    c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray, basis: np.ndarray | None = None
) -> np.ndarray:
    """Minimise ``c @ x`` over ``a_ub @ x <= b_ub``, ``x >= 0``.

    ``basis``, when given, holds m basic labels: the solve starts from that
    basis and overwrites it with the optimal one. Along a path of right-hand
    sides for fixed c and A an optimal basis stays dual feasible, so the
    dual simplex resumes from it; a basis whose basis matrix is singular or
    whose rebuilt reduced costs are negative falls back to the slack start.
    Returns the optimal x after checking its feasibility. Raises
    :class:`SolverError` when infeasible or unbounded, or when the returned
    vertex fails the feasibility certificate.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    m, n = a.shape
    if c.shape != (n,) or b.shape != (m,) or (basis is not None and basis.shape != (m,)):
        raise SolverError("inconsistent LP dimensions")
    max_iter = 200 * (m + n) + 1000

    # Dual simplex, run as the primal loop on the dual tableau: its rows are
    # the primal nonbasic columns, its costs the primal right-hand side, its
    # right-hand side the primal reduced costs, and its corner minus the
    # primal corner.
    dual = np.empty((n + 1, m + 1))
    rows, cols = _slack_tableau(dual, c, a, b)
    if basis is not None and not _enter_basis(dual, rows, cols, basis):
        rows, cols = _slack_tableau(dual, c, a, b)
    _iterate(dual, cols, rows, max_iter, "infeasible constraint system")
    basic = dual[n, :m]  # values of the basic variables ``rows``

    if np.any(c < 0):
        # Primal phase: reduced costs of the true c from the labels.
        tab = -dual.T.copy()
        tab[:m, n] = basic
        full_c = np.concatenate([c, np.zeros(m)])
        tab[m] = np.append(full_c[cols], 0.0) - full_c[rows] @ tab[:m]
        _iterate(tab, rows, cols, max_iter, "objective unbounded below")
        basic = tab[:m, n]

    x = np.zeros(n + m)
    x[rows] = basic
    x = x[:n]
    scale = _FEAS_TOL * max(1.0, float(np.max(np.abs(b), initial=0.0)))
    if np.max(a @ x - b, initial=0.0) > scale or -np.min(x, initial=0.0) > scale:
        raise SolverError("simplex vertex failed feasibility certificate")
    if basis is not None:
        basis[:] = rows
    return x


def solve_l1_box(
    a_mat: np.ndarray,
    rhs: np.ndarray,
    widths: float | np.ndarray,
    bases: dict[int, np.ndarray] | None = None,
) -> np.ndarray:
    """Minimise |v|_1 subject to |a_mat @ v - rhs| <= widths elementwise.

    ``rhs`` is one target (k,) or one per column (k, p), and ``widths``
    broadcasts to its shape; each column is one LP, and the result has the
    shape of ``rhs`` with d rows. Split-variable reformulation v = v+ - v-,
    both parts non-negative; the split matrix [A, -A; -A, A] is built once
    and shared by every column. ``bases`` maps a column to its basic labels
    (see :func:`solve_lp`): a column found there starts from its last
    optimal basis, and every column leaves its new one there, so a path
    over widths re-solves each column warm. Errors name the failing column.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    k, d = a_mat.shape
    targets = rhs.reshape(k, -1)
    bounds = np.broadcast_to(np.asarray(widths, dtype=float), rhs.shape).reshape(k, -1)
    a_ub = np.block([[a_mat, -a_mat], [-a_mat, a_mat]])
    c = np.ones(2 * d)
    out = np.empty((d, targets.shape[1]))
    for j in range(targets.shape[1]):
        b_ub = np.concatenate([targets[:, j] + bounds[:, j], bounds[:, j] - targets[:, j]])
        basis = None
        if bases is not None:
            basis = bases.setdefault(j, 2 * d + np.arange(2 * k))
        try:
            x = solve_lp(c, a_ub, b_ub, basis)
        except SolverError as err:
            raise SolverError(f"column {j + 1}: {err}") from err
        out[:, j] = x[:d] - x[d:]
    return out.reshape((d,) + rhs.shape[1:])


def solve_l1_general(f_mat: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Minimise |v|_1 subject to f_mat @ v <= h (v unrestricted in sign)."""
    f_mat = np.asarray(f_mat, dtype=float)
    h = np.asarray(h, dtype=float)
    d = f_mat.shape[1]
    a_ub = np.hstack([f_mat, -f_mat])
    x = solve_lp(np.ones(2 * d), a_ub, h)
    return x[:d] - x[d:]
