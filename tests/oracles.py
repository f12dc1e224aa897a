"""Independent reference solvers used to check the banded implementations.

These deliberately share no code with the package: the float oracle is
LAPACK's dense partial-pivoting solve via numpy, and the exact oracles are
textbook dense eliminations over Fractions (Bareiss fraction-free, and
plain Gaussian elimination with partial pivoting by magnitude).  The float
oracle row-equilibrates first: an assembled system's rows can differ in
scale by 1e12, and unscaled LAPACK loses digits to that alone.

The assembly and shift-scan oracles are the exception: they restate the
package's whole-array assemble_system and build_td_shift one row at a time,
so the whole-array code can be held to them value for value.  Here the
interior row is written one node at a time: sample evaluates a node's
coefficients and assemble_interior_row its stencil, with the steps
recomputed from the nodes.  band_pattern_errors checks the sparsity of a
PentaMatrix, and weakly_dominant_rows scans a matrix for weak diagonal
dominance.  pd_shift_rows keeps the paper's closed form of the
pentadiagonal shift, which build_pd_shift reads off the assembled matrix
instead.  So do the band product and the PD -> TD reduction oracles, which
write out the operation order that BandMatrix.matvec and
conditioning.pd_to_td must keep.
mesh_nodes_rows likewise writes build_mesh's whole-array node construction
one node at a time.  fraction_kernel_solve runs the package's own band
kernels directly over Fractions: the exact solvers' modular solves and
their fallback must both reproduce it.  column_woodbury_solve restates the
corrected shift mode's Sherman-Morrison-Woodbury solve from one public
solve per column and its own capacitance solve; it borrows no package
internals.
"""

from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from radialheat import (SOLVERS, LinearSystem, MaterialDomainError,
                        assemble_contact_row, assemble_neumann_rows,
                        contact_conductivities)
from radialheat.band_solvers import raise_breakdown


def dense_solve(system):
    """Dense partial-pivoting solve of a banded LinearSystem (float).

    Each row and its right-hand side are divided by the row's largest
    |entry| before LAPACK's solve.  On the assembled N = 1e3 cylinder that
    brings cond(A) from about 1.8e15 down to 1.1e4, and the error against
    the exact solution from 3.4e-4 to 5.6e-14 relative.
    """
    dense = np.asarray(system.matrix.to_dense(), dtype=np.float64)
    rhs = np.asarray(system.rhs, dtype=np.float64)
    scale = np.max(np.abs(dense), axis=1)
    return np.linalg.solve(dense / scale[:, None], rhs / scale)


def rel_inf_err(x, ref):
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def bareiss_solve(matrix_rows, rhs):
    """Fraction-free (Bareiss) elimination over exact integers/rationals.

    matrix_rows: list of list of Fraction-compatible scalars (dense).
    Returns the exact solution as a list of Fractions.
    """
    n = len(matrix_rows)
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])]
         for i, row in enumerate(matrix_rows)]
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                raise ZeroDivisionError("singular matrix in Bareiss oracle")
            a[k], a[swap] = a[swap], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = a[i][n]
        for j in range(i + 1, n):
            acc -= a[i][j] * x[j]
        if a[i][i] == 0:
            raise ZeroDivisionError("singular matrix in Bareiss oracle")
        x[i] = acc / a[i][i]
    return x


def pivoted_fraction_solve(matrix_rows, rhs):
    """Gaussian elimination with partial pivoting, exact over Fractions."""
    n = len(matrix_rows)
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])]
         for i, row in enumerate(matrix_rows)]
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(a[r][k]))
        if a[piv][k] == 0:
            raise ZeroDivisionError("singular matrix in pivoted oracle")
        a[k], a[piv] = a[piv], a[k]
        for i in range(k + 1, n):
            if a[i][k] == 0:
                continue
            factor = a[i][k] / a[k][k]
            for j in range(k, n + 1):
                a[i][j] -= factor * a[k][j]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = a[i][n]
        for j in range(i + 1, n):
            acc -= a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return x


def fraction_kernel_solve(system, kernel):
    """kernel (band_solvers.LU or THOMAS) factored and solved directly over
    the system's Fractions, with zero pivot thresholds; a zero pivot raises
    BreakdownError.  Returns the solution as a list."""
    m = system.matrix
    inputs = [band.tolist() for band in m.bands()]
    factors = kernel.factor(inputs, [0] * m.n, raise_breakdown)
    return kernel.solve(factors, system.rhs.tolist())


def column_woodbury_solve(system, shift, solver_id):
    """The unshifted solution A u = rhs of the corrected mode, from M = A + P.

    y = M^-1 rhs and each row z_j = M^-1 e_j of Z, j in the rows R where P
    is nonzero, come from a separate public solve of solver_id; then
    u = y + (C^-1 y[R]) Z with the capacitance matrix
    C = diag(1/P_R) - Z[:, R]^T, in the package's operation order.
    """
    solve = SOLVERS[solver_id].entry_point()
    shifted = shift.apply(system.matrix)
    rows = np.flatnonzero(shift.entries)
    y = solve(LinearSystem(shifted, system.rhs)).solution
    z = np.array([solve(LinearSystem(shifted, np.eye(1, shifted.n, j)[0]))
                  .solution for j in rows])
    capacitance = np.diag(1 / shift.entries[rows]) - z[:, rows].T
    return y + np.linalg.solve(capacitance, y[rows]) @ z


def fraction_det(matrix_rows):
    """Determinant by exact Gaussian elimination with row swaps."""
    a = [[Fraction(v) for v in row] for row in matrix_rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return det


def exact_dense_rows(matrix):
    """Dense row list of a banded matrix with exact scalars preserved."""
    dense = matrix.to_dense()
    return [list(row) for row in dense.tolist()]


def mesh_nodes_rows(layers):
    """build_mesh's node array one node at a time: r0 + j * h for each
    layer's cells, then the outermost radius.  Ints become Fractions when
    no radius is a float; otherwise the nodes are converted to float64."""
    exact = not any(isinstance(v, (float, np.floating))
                    for spec in layers for v in (spec.r_start, spec.r_end))

    def coerce(v):
        return Fraction(v) if exact and isinstance(v, int) else v

    nodes = []
    for spec in layers:
        r0, r1 = coerce(spec.r_start), coerce(spec.r_end)
        h = (r1 - r0) / spec.cells
        nodes.extend(r0 + j * h for j in range(spec.cells))
    nodes.append(coerce(layers[-1].r_end))
    return np.array(nodes, dtype=object if exact else np.float64)


class CoefficientSample(NamedTuple):
    """One node's stencil coefficients: rho*c and phi at the node, lambda at
    the two adjacent cell-mean temperatures."""

    rho_c: object
    lambda_minus: object
    lambda_plus: object
    phi: object


def sample(model, u_i, u_im1, u_ip1):
    """Range- and positivity-checked coefficients of one node.  The
    half-point conductivities are lambda of the mean temperature."""
    for u in (u_i, u_im1, u_ip1):
        model.check_temperature(u)
    rho, cv = model.rho(u_i), model.cv(u_i)
    for name, value in (("rho", rho), ("cv", cv)):
        if not value > 0:
            raise MaterialDomainError(f"{name}({u_i}) = {value} is not positive",
                                      value=value)
    return CoefficientSample(rho * cv,
                             model.conductivity_at((u_i + u_im1) / 2),
                             model.conductivity_at((u_i + u_ip1) / 2),
                             model.source(u_i))


def assemble_interior_row(mesh, coeff, i, tau, u_old_i):
    """(c_{i,i-1}, c_{i,i}, c_{i,i+1}, rhs_i) of interior node i:

        c_{i,i-1} = -r_{i-1/2} lam_{i-1/2} / (r_i hbar_i h_i)
        c_{i,i+1} = -r_{i+1/2} lam_{i+1/2} / (r_i hbar_i h_{i+1})
        c_{i,i}   = rho*c/tau - c_{i,i-1} - c_{i,i+1}
        rhs_i     = rho*c*u_old_i/tau + phi_i
    """
    r_prev, r_i, r_next = mesh.nodes[i - 1], mesh.nodes[i], mesh.nodes[i + 1]
    h_lo = r_i - r_prev
    h_hi = r_next - r_i
    hbar = (h_lo + h_hi) / 2
    r_lo = (r_prev + r_i) / 2
    r_hi = (r_i + r_next) / 2
    c_lo = -(r_lo * coeff.lambda_minus) / (r_i * hbar * h_lo)
    c_hi = -(r_hi * coeff.lambda_plus) / (r_i * hbar * h_hi)
    diag = coeff.rho_c / tau - c_lo - c_hi
    rhs = coeff.rho_c * u_old_i / tau + coeff.phi
    return c_lo, diag, c_hi, rhs


def band_pattern_errors(matrix):
    """The nonzero entries of a PentaMatrix that lie outside the matrix, or
    on an outer diagonal of a row missing from full_rows, as messages."""
    n = matrix.n
    errors = []
    for name, diag, out in (("d2m", matrix.d2m, range(min(2, n))),
                            ("d1m", matrix.d1m, range(min(1, n))),
                            ("d1p", matrix.d1p, range(max(n - 1, 0), n)),
                            ("d2p", matrix.d2p, range(max(n - 2, 0), n))):
        errors += [f"{name}[{i}] out of band but nonzero" for i in out if diag[i] != 0]
    errors += [f"row {i} has outer entries but is not in full_rows"
               for i in range(n) if (matrix.d2m[i] != 0 or matrix.d2p[i] != 0)
               and i not in matrix.full_rows]
    return errors


def assemble_rows(mesh, materials, u_guess, u_old, tau, extra_source=None):
    """Row-by-row assembly: one sample and one assemble_interior_row call
    per interior node, then the package's Neumann and contact rows.  Returns
    (d2m, d1m, d0, d1p, d2p, rhs) as lists, the reference that the
    whole-array assemble_system must match exactly."""
    n = mesh.n
    u_guess, u_old = list(u_guess), list(u_old)
    d2m, d1m, d0, d1p, d2p, rhs = ([0] * n for _ in range(6))
    (d0[0], d1p[0], d2p[0]), (d2m[-1], d1m[-1], d0[-1]) = \
        assemble_neumann_rows(mesh)
    for i in range(1, n - 1):
        if i in mesh.contact_indices:
            continue
        # node i lies in layer j, j the number of contacts before it
        model = materials[mesh.layer_materials[bisect_left(mesh.contact_indices, i)]]
        coeff = sample(model, u_guess[i], u_guess[i - 1], u_guess[i + 1])
        d1m[i], d0[i], d1p[i], rhs[i] = assemble_interior_row(
            mesh, coeff, i, tau, u_old[i])
        if extra_source is not None:
            rhs[i] = rhs[i] + extra_source[i]
    lams = contact_conductivities(mesh, materials, u_guess)
    for i_star, (lam_l, lam_r) in zip(mesh.contact_indices, lams):
        (d2m[i_star], d1m[i_star], d0[i_star], d1p[i_star],
         d2p[i_star]) = assemble_contact_row(mesh, lam_l, lam_r, i_star)
    return d2m, d1m, d0, d1p, d2p, rhs


def td_shift_rows(td, rtol=1e-13):
    """Row-by-row dominance scan of a tridiagonal matrix: the shift entries
    (as a list) and the extended rows that conditioning.build_td_shift must
    reproduce exactly."""
    n = td.n
    designated = {0, n - 1} | set(td.contact_rows)
    entries = [0] * n
    entries[0] = abs(td.sup[0])
    entries[n - 1] = abs(td.sub[n - 1])
    for i in td.contact_rows:
        entries[i] = abs(td.sub[i]) + abs(td.sup[i])
    extended = []
    for i in range(1, n - 1):
        if i in designated:
            continue
        off = abs(td.sub[i]) + abs(td.sup[i])
        deficit = off - td.diag[i]
        slack = 0 if td.is_exact else rtol * max(abs(td.diag[i]), off)
        if deficit > slack:
            entries[i] = deficit
            extended.append(i)
    return entries, tuple(extended)


def weakly_dominant_rows(matrix, rtol=0.0):
    """Per-row weak diagonal dominance: |main| >= sum |off-diagonal|.

    rtol loosens the comparison by rtol * (row magnitude) to absorb float
    rounding; exact (object) matrices are scanned exactly.
    """
    bands = matrix.bands()
    mid = len(bands) // 2
    diag = np.abs(bands[mid])
    off = sum(np.abs(band) for j, band in enumerate(bands) if j != mid)
    slack = rtol * np.maximum(diag, off) if rtol else 0
    return np.asarray(diag + slack >= off, dtype=bool)


def pd_shift_rows(mesh, lams):
    """The paper's closed-form pentadiagonal shift, as a list: 2*h_1^2 at
    row 0, 2*h_{N-1}^2 at row N-1 and, at each contact row, the two-sided
    lambda*h term.  lams holds the (lambda_left, lambda_right) pair of each
    contact.  conditioning.build_pd_shift reads the same entries off the
    assembled matrix as row dominance deficits."""
    n = mesh.n
    steps = mesh.steps.tolist()
    entries = [0] * n
    entries[0] = 2 * steps[0] * steps[0]
    entries[n - 1] = 2 * steps[-1] * steps[-1]
    for i_star, (lam_l, lam_r) in zip(mesh.contact_indices, lams):
        h_im1, h_i, h_ip1, h_ip2 = steps[i_star - 2:i_star + 2]
        entries[i_star] = (2 * lam_l * h_i / (h_im1 * (h_i + h_im1))
                           + 2 * lam_r * h_ip1 / (h_ip2 * (h_ip1 + h_ip2)))
    return entries


def matvec_rows(matrix, x, width):
    """A x one row at a time from the dense matrix of half-bandwidth width,
    adding the terms of row i in the order of columns i, i+1, i-1, i+2, i-2."""
    dense = matrix.to_dense().tolist()
    n = len(x)
    out = []
    for i in range(n):
        acc = dense[i][i] * x[i]
        for k in range(1, width + 1):
            if i + k < n:
                acc = acc + dense[i][i + k] * x[i + k]
            if i - k >= 0:
                acc = acc + dense[i][i - k] * x[i - k]
        out.append(acc)
    return out


def reduce_rows(system):
    """The PD -> TD reduction with each side of each full row written out:
    row 1 clears row 0's (0,2) entry, row N-2 row N-1's (N-1,N-3) entry,
    and rows i-1 then i+1 the two outer entries of a contact row i.
    Returns (sub, diag, sup, rhs) as lists."""
    m = system.matrix
    n = m.n
    d2m, d2p = m.d2m.tolist(), m.d2p.tolist()
    sub, diag, sup = m.d1m.tolist(), m.d0.tolist(), m.d1p.tolist()
    rhs = system.rhs.tolist()
    for i in m.full_rows:
        if i > 0 and d2m[i] != 0:
            f = d2m[i] / sub[i - 1]
            diag[i] = diag[i] - f * sup[i - 1]
            sub[i] = sub[i] - f * diag[i - 1]
            rhs[i] = rhs[i] - f * rhs[i - 1]
        if i < n - 1 and d2p[i] != 0:
            f = d2p[i] / sup[i + 1]
            diag[i] = diag[i] - f * sub[i + 1]
            sup[i] = sup[i] - f * diag[i + 1]
            rhs[i] = rhs[i] - f * rhs[i + 1]
    return sub, diag, sup, rhs
