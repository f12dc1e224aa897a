"""Direct banded solvers with exact floating-point operation counts.

Three solvers, all O(N), all pivot-free (dominantize first if the input is
not safe):

* solve_pd_lu ("NPDM"): unit-lower LU of the full pentadiagonal band.  Every
  row gets the complete five-diagonal treatment regardless of sparsity.
  Counted work is exactly 19*N - 29 operations.

* solve_pd_modified ("MNPDM"): row-normalized elimination that consults the
  full_rows metadata (one membership check per row in the forward pass) and
  runs the five-term recurrences only on those rows; the remaining rows get
  the tridiagonal-style reduced recurrences.  Counted work is exactly
  13*N + 7*K - 8 operations for systems with K contact rows plus full first
  and last rows.

* solve_td_thomas ("NTDM"): the classical normalized forward sweep plus back
  substitution for tridiagonal systems.  Counted work is exactly 9*N - 8.

op_count tallies multiplications, divisions, additions and subtractions on
matrix/vector scalars.  Index arithmetic, the row-type check-ups of
solve_pd_modified, pivot guards and the post-solve residual are not counted.
wall_time covers the arithmetic phases only (diagonal extraction and the
residual are outside the timer).

A pivot whose magnitude falls below 1e-30 times its row's largest input
entry is treated as a structural zero and raises BreakdownError; callers
are expected to dominantize, or to fall back to the exact solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .assembly import LinearSystem, PentaMatrix, TriMatrix

#: Relative pivot threshold separating structural zeros from rounding noise.
PIVOT_RTOL = 1e-30

SOLVER_IDS = ("NPDM", "MNPDM", "NTDM", "SPDM", "STDM")


class BreakdownError(RuntimeError):
    """Zero (or structurally tiny) pivot at some row of a pivot-free sweep."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


@dataclass(eq=False)
class SolveReport:
    """Outcome of one solve: solution plus instrumentation.

    residual_inf is measured against the system actually handed to the
    solver (the shifted system, when a dominance shift was applied upstream).
    iterations is 0 for these direct solvers; outer fixed-point drivers fill
    it in on their own reports.
    """

    solution: np.ndarray
    op_count: int
    wall_time: float
    residual_inf: object
    solver_id: str
    iterations: int = 0


def sup_norm(v: np.ndarray) -> object:
    """max |v_i|.  Float vectors take numpy's reduction, which propagates
    NaN; exact (object) vectors stay exact."""
    if v.dtype == object:
        return max(abs(x) for x in v.tolist())
    return np.max(np.abs(v))


def _residual_inf(system: LinearSystem, x) -> object:
    return sup_norm(system.matrix.matvec(x) - system.rhs)


def _pivot_thresholds(bands) -> list:
    """Per-row breakdown thresholds: PIVOT_RTOL * max |row entry|.

    Exact (object dtype) systems get zero thresholds: exact arithmetic has
    no rounding noise, so only a literally zero pivot is a breakdown there.
    """
    if bands[0].dtype == object:
        return [0] * len(bands[0])
    stacked = np.abs(np.vstack(bands))
    return (PIVOT_RTOL * stacked.max(axis=0)).tolist()


def _wrap(x_list, system, ops, wall, solver_id) -> SolveReport:
    exact = system.rhs.dtype == object
    x = np.array(x_list, dtype=object) if exact else np.asarray(x_list, dtype=np.float64)
    return SolveReport(x, ops, wall, _residual_inf(system, x), solver_id)


def solve_pd_lu(system: LinearSystem) -> SolveReport:
    """Dense-band pentadiagonal LU without pivoting ("NPDM")."""
    m = system.matrix
    if not isinstance(m, PentaMatrix):
        raise TypeError("solve_pd_lu expects a pentadiagonal system")
    n = m.n
    if n < 3:
        raise ValueError("pentadiagonal solver needs N >= 3")
    e = m.d2m.tolist()
    c = m.d1m.tolist()
    d = m.d0.tolist()
    a = m.d1p.tolist()
    b = m.d2p.tolist()
    f = system.rhs.tolist()
    thr = _pivot_thresholds((m.d2m, m.d1m, m.d0, m.d1p, m.d2p))

    u = [0] * n
    v = [0] * n
    w = [0] * n
    l1 = [0] * n
    l2 = [0] * n
    y = [0] * n
    x = [0] * n
    ops = 0

    start = perf_counter()
    # factorization: A = L U with unit lower bands l1, l2 and upper bands
    # u (main), v (+1), w (+2); w rows copy straight from b
    u[0] = d[0]
    if u[0] == 0 or abs(u[0]) < thr[0]:
        raise BreakdownError(0, "zero pivot in row 0")
    v[0] = a[0]
    w[0] = b[0]
    l1[1] = c[1] / u[0]
    u[1] = d[1] - l1[1] * v[0]
    ops += 3
    if u[1] == 0 or abs(u[1]) < thr[1]:
        raise BreakdownError(1, "zero pivot in row 1")
    v[1] = a[1] - l1[1] * w[0]
    ops += 2
    if n >= 4:
        w[1] = b[1]
    for i in range(2, n):
        l2[i] = e[i] / u[i - 2]
        l1[i] = (c[i] - l2[i] * v[i - 2]) / u[i - 1]
        u[i] = d[i] - l2[i] * w[i - 2] - l1[i] * v[i - 1]
        ops += 8
        if u[i] == 0 or abs(u[i]) < thr[i]:
            raise BreakdownError(i, f"zero pivot in row {i}")
        if i <= n - 2:
            v[i] = a[i] - l1[i] * w[i - 1]
            ops += 2
        if i <= n - 3:
            w[i] = b[i]
    # forward substitution L y = f
    y[0] = f[0]
    y[1] = f[1] - l1[1] * y[0]
    ops += 2
    for i in range(2, n):
        y[i] = f[i] - l1[i] * y[i - 1] - l2[i] * y[i - 2]
        ops += 4
    # back substitution U x = y
    x[n - 1] = y[n - 1] / u[n - 1]
    x[n - 2] = (y[n - 2] - v[n - 2] * x[n - 1]) / u[n - 2]
    ops += 4
    for i in range(n - 3, -1, -1):
        x[i] = (y[i] - v[i] * x[i + 1] - w[i] * x[i + 2]) / u[i]
        ops += 5
    wall = perf_counter() - start

    return _wrap(x, system, ops, wall, "NPDM")


def solve_pd_modified(system: LinearSystem) -> SolveReport:
    """Sparsity-aware pentadiagonal elimination ("MNPDM").

    Rows listed in full_rows get the five-term normalized recurrences; all
    other rows are known to carry no outer entries and run tridiagonal-style
    ones.  The back substitution is uniform (the second super-diagonal
    coefficient of a reduced row is stored as zero), so the row-type
    check-up happens once per row, in the forward pass.
    """
    m = system.matrix
    if not isinstance(m, PentaMatrix):
        raise TypeError("solve_pd_modified expects a pentadiagonal system")
    n = m.n
    if n < 3:
        raise ValueError("pentadiagonal solver needs N >= 3")
    e = m.d2m.tolist()
    c = m.d1m.tolist()
    d = m.d0.tolist()
    a = m.d1p.tolist()
    b = m.d2p.tolist()
    f = system.rhs.tolist()
    thr = _pivot_thresholds((m.d2m, m.d1m, m.d0, m.d1p, m.d2p))
    is_full = [False] * n
    for i in m.full_rows:
        is_full[i] = True

    alpha = [0] * n
    beta = [0] * n
    z = [0] * n
    x = [0] * n
    ops = 0

    start = perf_counter()
    # row 0: x_0 + alpha_0 x_1 + beta_0 x_2 = z_0
    mu = d[0]
    if mu == 0 or abs(mu) < thr[0]:
        raise BreakdownError(0, "zero pivot in row 0")
    inv = 1 / mu
    alpha[0] = a[0] * inv
    z[0] = f[0] * inv
    ops += 3
    if is_full[0] and n > 2:
        beta[0] = b[0] * inv
        ops += 1
    for i in range(1, n):
        if is_full[i]:
            if i >= 2:
                gam = c[i] - alpha[i - 2] * e[i]
                mu = d[i] - beta[i - 2] * e[i] - alpha[i - 1] * gam
                ops += 6
            else:
                gam = c[i]
                mu = d[i] - alpha[i - 1] * gam
                ops += 2
            if mu == 0 or abs(mu) < thr[i]:
                raise BreakdownError(i, f"zero pivot in row {i}")
            inv = 1 / mu
            ops += 1
            if i <= n - 2:
                alpha[i] = (a[i] - beta[i - 1] * gam) * inv
                ops += 3
            if i <= n - 3:
                beta[i] = b[i] * inv
                ops += 1
            if i >= 2:
                z[i] = (f[i] - e[i] * z[i - 2] - gam * z[i - 1]) * inv
                ops += 5
            else:
                z[i] = (f[i] - gam * z[i - 1]) * inv
                ops += 3
        else:
            gam = c[i]
            mu = d[i] - alpha[i - 1] * gam
            ops += 2
            if mu == 0 or abs(mu) < thr[i]:
                raise BreakdownError(i, f"zero pivot in row {i}")
            inv = 1 / mu
            ops += 1
            if i <= n - 2:
                alpha[i] = (a[i] - beta[i - 1] * gam) * inv
                ops += 3
            z[i] = (f[i] - gam * z[i - 1]) * inv
            ops += 3
    # uniform back substitution; beta of reduced rows is zero
    x[n - 1] = z[n - 1]
    x[n - 2] = z[n - 2] - alpha[n - 2] * x[n - 1]
    ops += 2
    for i in range(n - 3, -1, -1):
        x[i] = z[i] - alpha[i] * x[i + 1] - beta[i] * x[i + 2]
        ops += 4
    wall = perf_counter() - start

    return _wrap(x, system, ops, wall, "MNPDM")


def solve_td_thomas(system: LinearSystem) -> SolveReport:
    """Normalized Thomas sweep for tridiagonal systems ("NTDM")."""
    m = system.matrix
    if not isinstance(m, TriMatrix):
        raise TypeError("solve_td_thomas expects a tridiagonal system")
    n = m.n
    if n < 2:
        raise ValueError("tridiagonal solver needs N >= 2")
    c = m.sub.tolist()
    d = m.diag.tolist()
    a = m.sup.tolist()
    f = system.rhs.tolist()
    thr = _pivot_thresholds((m.sub, m.diag, m.sup))

    sp = [0] * n
    z = [0] * n
    x = [0] * n
    ops = 0

    start = perf_counter()
    den = d[0]
    if den == 0 or abs(den) < thr[0]:
        raise BreakdownError(0, "zero pivot in row 0")
    inv = 1 / den
    sp[0] = a[0] * inv
    z[0] = f[0] * inv
    ops += 3
    for i in range(1, n - 1):
        den = d[i] - c[i] * sp[i - 1]
        ops += 2
        if den == 0 or abs(den) < thr[i]:
            raise BreakdownError(i, f"zero pivot in row {i}")
        inv = 1 / den
        sp[i] = a[i] * inv
        z[i] = (f[i] - c[i] * z[i - 1]) * inv
        ops += 5
    den = d[n - 1] - c[n - 1] * sp[n - 2]
    ops += 2
    if den == 0 or abs(den) < thr[n - 1]:
        raise BreakdownError(n - 1, f"zero pivot in row {n - 1}")
    z[n - 1] = (f[n - 1] - c[n - 1] * z[n - 2]) / den
    ops += 3
    x[n - 1] = z[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = z[i] - sp[i] * x[i + 1]
        ops += 2
    wall = perf_counter() - start

    return _wrap(x, system, ops, wall, "NTDM")
