"""Banded elimination kernels, the float solvers on them, the solver registry.

Each elimination is written once, as a kernel: factor(inputs, thr, on_zero)
returns factors that solve(factors, f) reuses for any right-hand side f.
Inputs are plain lists, so one kernel runs in float and in exact arithmetic.

* LU: unit-lower LU of the full five-diagonal band.  NPDM, SPDM.
* MODIFIED: row-normalized pentadiagonal elimination that runs the
  five-term recurrences only on the matrix's full_rows (one membership
  check per row) and tridiagonal-style ones elsewhere.  MNPDM.
* THOMAS: the normalized Thomas sweep, which multiplies by the inverse
  pivot and divides in its last row.  NTDM, STDM.

Pivot policy.  Row i's pivot p is zero when ``p == 0 or thr[i] and abs(p) <
thr[i]`` (so a NaN pivot is not, and a zero threshold takes no abs());
on_zero(i) then returns the pivot to use or raises.  The float entry points
use thr[i] = PIVOT_RTOL * max |row i entry| and raise BreakdownError(i):
dominantize first, or use the exact solvers, whose thresholds are zero:
their sweeps modulo a prime raise too, and their Fraction fallback defers
the pivot to a formal eps (exact_solvers).  Exact (object) data handed to a
float entry point gets zero thresholds too.

The compiled twin.  native.py builds thomas.c, THOMAS written once more in
C over float64 arrays, on the first float NTDM factorization, and factorize
sends float64 tridiagonal matrices to it: solve_td_thomas and every float
THOMAS factorization of time_stepper, back-solves included.  It keeps the
operation order (inverse pivot, last row divides) and the pivot test above,
so its solutions and BreakdownError rows are byte-equal to the Python
kernel's; tests/test_native.py pins that.  The Python kernels stay the
specification and run everywhere else: exact data, STDM, CountingFloat, LU
and MODIFIED, and every THOMAS solve when the twin cannot be built.

op_count is a closed form for the +, -, * and / on matrix and vector
scalars in one factor and one solve: 19N - 29 (LU), 9N - 8 (THOMAS), and
for MODIFIED 13N - 15 plus a cost per full row, 13N + 7K - 8 for full rows
0, N-1 and K contact rows.  Index arithmetic, row-type checks, pivot tests
and the residual are not counted; bench.verify_op_counts checks the forms
by running the kernels over a counting scalar.  A SolveReport carries no
time: bench times the entry points from outside.

SOLVERS is the one table of solver ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from importlib import import_module
from typing import Callable, NamedTuple

import numpy as np

from . import native
from .assembly import LinearSystem, PentaMatrix, TriMatrix, _field

#: Relative pivot threshold separating structural zeros from rounding noise.
PIVOT_RTOL = 1e-30


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
    It costs a matvec, so it is computed on first read.
    """

    solution: np.ndarray
    op_count: int
    solver_id: str
    system: LinearSystem = field(repr=False)

    @cached_property
    def residual_inf(self) -> object:
        return sup_norm(self.system.residual(self.solution))


def sup_norm(v: np.ndarray) -> object:
    """max |v_i|.  Float vectors take numpy's reduction, which propagates
    NaN; exact (object) vectors stay exact."""
    if v.dtype == object:
        return max(abs(x) for x in v.tolist())
    return np.max(np.abs(v))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def lu_factor(inputs, thr, on_zero):
    """A = L U with unit lower bands l1, l2 and upper bands u (main), v (+1)
    and b (+2), which U shares with A."""
    e, c, d, a, b = inputs
    n = len(d)
    l1 = [0] * n
    l2 = [0] * n
    u = [0] * n
    v = [0] * n
    p = d[0]
    if p == 0 or thr[0] and abs(p) < thr[0]:
        p = on_zero(0)
    u[0] = p
    v[0] = a[0]
    l1[1] = c[1] / u[0]
    p = d[1] - l1[1] * v[0]
    if p == 0 or thr[1] and abs(p) < thr[1]:
        p = on_zero(1)
    u[1] = p
    v[1] = a[1] - l1[1] * b[0]
    for i in range(2, n):
        l2[i] = e[i] / u[i - 2]
        l1[i] = (c[i] - l2[i] * v[i - 2]) / u[i - 1]
        p = d[i] - l2[i] * b[i - 2] - l1[i] * v[i - 1]
        t = thr[i]
        if p == 0 or t and abs(p) < t:
            p = on_zero(i)
        u[i] = p
        if i <= n - 2:
            v[i] = a[i] - l1[i] * b[i - 1]
    return l1, l2, u, v, b


def lu_solve(factors, f):
    """L y = f, then U x = y with x written over y."""
    l1, l2, u, v, w = factors
    n = len(f)
    y = [0] * n
    y[0] = f[0]
    y[1] = f[1] - l1[1] * y[0]
    for i in range(2, n):
        y[i] = f[i] - l1[i] * y[i - 1] - l2[i] * y[i - 2]
    y[n - 1] = y[n - 1] / u[n - 1]
    y[n - 2] = (y[n - 2] - v[n - 2] * y[n - 1]) / u[n - 2]
    for i in range(n - 3, -1, -1):
        y[i] = (y[i] - v[i] * y[i + 1] - w[i] * y[i + 2]) / u[i]
    return y


def modified_factor(inputs, thr, on_zero):
    """Row i becomes x_i + alpha_i x_{i+1} + beta_i x_{i+2} = z_i.  Full rows
    first eliminate their outer entry, which turns c_i into gam_i; reduced
    rows keep gam_i = c_i and beta_i = 0."""
    e, c, d, a, b, full_rows = inputs
    n = len(d)
    is_full = [False] * n
    for i in full_rows:
        is_full[i] = True
    alpha = [0] * n
    beta = [0] * n
    gam = list(c)
    inv = [0] * n
    mu = d[0]
    if mu == 0 or thr[0] and abs(mu) < thr[0]:
        mu = on_zero(0)
    inv[0] = q = 1 / mu
    alpha[0] = a[0] * q
    if is_full[0]:
        beta[0] = b[0] * q
    for i in range(1, n):
        g = c[i]
        if is_full[i] and i >= 2:
            g = gam[i] = c[i] - alpha[i - 2] * e[i]
            mu = d[i] - beta[i - 2] * e[i] - alpha[i - 1] * g
        else:
            mu = d[i] - alpha[i - 1] * g
        t = thr[i]
        if mu == 0 or t and abs(mu) < t:
            mu = on_zero(i)
        inv[i] = q = 1 / mu
        if i <= n - 2:
            alpha[i] = (a[i] - beta[i - 1] * g) * q
        if is_full[i] and i <= n - 3:
            beta[i] = b[i] * q
    return e, alpha, beta, gam, inv, is_full


def modified_solve(factors, f):
    """Forward sweep for z, then a uniform back substitution (beta of a
    reduced row is zero) with x written over z."""
    e, alpha, beta, gam, inv, is_full = factors
    n = len(f)
    z = [0] * n
    z[0] = f[0] * inv[0]
    for i in range(1, n):
        if is_full[i] and i >= 2:
            z[i] = (f[i] - e[i] * z[i - 2] - gam[i] * z[i - 1]) * inv[i]
        else:
            z[i] = (f[i] - gam[i] * z[i - 1]) * inv[i]
    z[n - 2] = z[n - 2] - alpha[n - 2] * z[n - 1]
    for i in range(n - 3, -1, -1):
        z[i] = z[i] - alpha[i] * z[i + 1] - beta[i] * z[i + 2]
    return z


def thomas_factor(inputs, thr, on_zero):
    """Normalized sweep: row i becomes x_i + sp_i x_{i+1} = z_i.  q holds the
    inverse pivots, except q[N-1], the last pivot itself (that row divides)."""
    c, d, a = inputs
    n = len(d)
    sp = [0] * n
    q = [0] * n
    den = d[0]
    if den == 0 or thr[0] and abs(den) < thr[0]:
        den = on_zero(0)
    q[0] = inv = 1 / den
    sp[0] = a[0] * inv
    for i in range(1, n - 1):
        den = d[i] - c[i] * sp[i - 1]
        t = thr[i]
        if den == 0 or t and abs(den) < t:
            den = on_zero(i)
        q[i] = inv = 1 / den
        sp[i] = a[i] * inv
    den = d[n - 1] - c[n - 1] * sp[n - 2]
    if den == 0 or thr[n - 1] and abs(den) < thr[n - 1]:
        den = on_zero(n - 1)
    q[n - 1] = den
    return c, sp, q


def thomas_solve(factors, f):
    """Forward sweep for z, then back substitution with x written over z."""
    c, sp, q = factors
    n = len(f)
    z = [0] * n
    z[0] = f[0] * q[0]
    for i in range(1, n - 1):
        z[i] = (f[i] - c[i] * z[i - 1]) * q[i]
    z[n - 1] = (f[n - 1] - c[n - 1] * z[n - 2]) / q[n - 1]
    for i in range(n - 2, -1, -1):
        z[i] = z[i] - sp[i] * z[i + 1]
    return z


class Kernel(NamedTuple):
    """One banded elimination; shape "pd" (five diagonals) or "td" (three)."""

    name: str
    shape: str
    factor: Callable
    solve: Callable


LU = Kernel("LU", "pd", lu_factor, lu_solve)
MODIFIED = Kernel("MODIFIED", "pd", modified_factor, modified_solve)
THOMAS = Kernel("THOMAS", "td", thomas_factor, thomas_solve)

#: Band shape -> matrix class, smallest N and name.
_SHAPES = {
    "pd": (PentaMatrix, 3, "pentadiagonal"),
    "td": (TriMatrix, 2, "tridiagonal"),
}


def kernel_inputs(matrix, kernel: Kernel, convert) -> list:
    """kernel.factor's inputs: each diagonal of matrix, lowest first, as
    convert(array, name), and the full rows for MODIFIED."""
    cls, n_min, word = _SHAPES[kernel.shape]
    if not isinstance(matrix, cls):
        raise TypeError(f"the {kernel.name} kernel expects a {word} system")
    if matrix.n < n_min:
        raise ValueError(f"{word} solver needs N >= {n_min}")
    inputs = [convert(band, name)
              for name, band in zip(matrix.BANDS, matrix.bands())]
    if kernel is MODIFIED:
        inputs.append(matrix.full_rows)
    return inputs


def op_count(kernel: Kernel, matrix) -> int:
    """Closed-form count of + - * / in one kernel.factor and kernel.solve."""
    n = matrix.n
    if kernel is LU:
        return 19 * n - 29
    if kernel is THOMAS:
        return 9 * n - 8
    # a full row's work over a reduced row's: beta_0 in row 0, beta_1 in row
    # 1 (none at N = 3), no beta in the last two rows and no alpha in N-1
    return 13 * n - 15 + sum(1 if i == 0 else int(n >= 4) if i == 1
                             else 6 if i >= n - 2 else 7
                             for i in set(matrix.full_rows))


# ---------------------------------------------------------------------------
# float entry points
# ---------------------------------------------------------------------------

def raise_breakdown(row: int):
    """Float pivot policy: a zero pivot ends the sweep."""
    raise BreakdownError(row, f"zero pivot in row {row}")


def _thresholds(matrix) -> np.ndarray:
    """PIVOT_RTOL times the largest |entry| of each row."""
    return PIVOT_RTOL * np.abs(np.vstack(matrix.bands())).max(axis=0)


def factorize(matrix,
              kernel: Kernel) -> Callable[[np.ndarray], list | np.ndarray]:
    """Factor matrix once under the float pivot policy; the returned
    function solves for one right-hand side per call.  THOMAS runs its
    compiled twin on float64 matrices when the twin could be built."""
    inputs = kernel_inputs(matrix, kernel, lambda arr, name: arr)
    bands = inputs[:len(matrix.BANDS)]
    twin = (native.thomas_twin().lib if kernel is THOMAS and all(
        band.dtype == np.float64 for band in bands) else None)
    if twin is not None:
        row, factors = native.factor(twin, *bands, _thresholds(matrix))
        if row >= 0:
            raise_breakdown(row)
        return lambda rhs: native.solve(twin, factors, rhs)
    # the lists before the thresholds: the other order left the `solve`
    # benchmark (N = 1e5) with a 2.6 MB higher peak resident memory
    lists = [band.tolist() for band in bands] + inputs[len(bands):]
    thresholds = ([0] * matrix.n if matrix.is_exact
                  else _thresholds(matrix).tolist())
    factors = kernel.factor(lists, thresholds, raise_breakdown)
    return lambda rhs: kernel.solve(factors, rhs.tolist())


def _float_solve(system: LinearSystem, solver_id: str) -> SolveReport:
    kernel = SOLVERS[solver_id].kernel
    m = system.matrix
    x = _field(factorize(m, kernel)(system.rhs), system.rhs.dtype == object)
    return SolveReport(x, op_count(kernel, m), solver_id, system)


def solve_pd_lu(system: LinearSystem) -> SolveReport:
    """Dense-band pentadiagonal LU without pivoting ("NPDM")."""
    return _float_solve(system, "NPDM")


def solve_pd_modified(system: LinearSystem) -> SolveReport:
    """Sparsity-aware pentadiagonal elimination ("MNPDM")."""
    return _float_solve(system, "MNPDM")


def solve_td_thomas(system: LinearSystem) -> SolveReport:
    """Normalized Thomas sweep for tridiagonal systems ("NTDM")."""
    return _float_solve(system, "NTDM")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class Solver(NamedTuple):
    """A solver: its kernel (and so its band shape), its arithmetic, and the
    module and name of its public entry point.  The entry point is looked up
    at call time, so a rebinding (a tracer's wrapper) is seen."""

    kernel: Kernel
    exact: bool
    module: str
    entry: str

    def entry_point(self) -> Callable:
        return getattr(import_module(f"{__package__}.{self.module}"), self.entry)

    def solution(self, system: LinearSystem) -> np.ndarray:
        out = self.entry_point()(system)
        return np.array(out, dtype=object) if self.exact else out.solution


SOLVERS = {
    "NPDM": Solver(LU, False, "band_solvers", "solve_pd_lu"),
    "MNPDM": Solver(MODIFIED, False, "band_solvers", "solve_pd_modified"),
    "NTDM": Solver(THOMAS, False, "band_solvers", "solve_td_thomas"),
    "SPDM": Solver(LU, True, "exact_solvers", "exact_solve_pd"),
    "STDM": Solver(THOMAS, True, "exact_solvers", "exact_solve_td"),
}
