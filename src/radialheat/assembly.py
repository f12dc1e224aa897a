"""Pentadiagonal system assembly for one implicit time level.

Row types:

* interior nodes: three-point conduction stencil in implicit form, positive
  main diagonal, right-hand side rho*c*u_old/tau + phi;
* nodes 0 and N-1: second-order one-sided derivative stencils for the
  homogeneous Neumann conditions, assembled in cleared-denominator form
  (coefficients h2*(2*h1+h2), -(h1+h2)^2, h1^2 and mirrored), zero RHS;
* contact nodes: five-point flux-continuity stencil, the two one-sided
  derivative expressions each scaled by the adjacent layer's conductivity
  and by 1/(h*h*(h+h)) as written, zero RHS.

The sign of every boundary/contact row is chosen to make its main-diagonal
entry positive.  With that scaling the dominance deficit of row 0 is exactly
2*h_1^2, of row N-1 exactly 2*h_{N-1}^2 and of a contact row exactly the
paper's two-sided lambda*h term; interior rows are already weakly dominant
on their own.  conditioning.build_pd_shift reads these deficits off the
assembled matrix, so the contact stencil is stated here only; the closed
forms are kept in tests/oracles.py as the oracle.

assemble_system is the one statement of the interior row.  For each
material it gathers the material's non-contact interior nodes by index and
evaluates the coefficient polynomials on the gathered temperatures at once;
the stencil entries of every row are then computed together, with the steps
read from mesh.steps.  numpy applies one ufunc per operation, with no fused
multiply-add, so float64 results are bit-identical to the same formulas
written one row at a time; tests/oracles.py keeps that row-by-row version
as the oracle.  The range and positivity checks run on the same arrays and
name the first node at fault.  The Neumann and contact rows, O(K) in
number, come from their row helpers.

Exact meshes run the same code: exact temperatures and tau give object
(Fraction) arrays, on which numpy applies Python's exact arithmetic element
by element; float meshes give float64 arrays.

PentaMatrix and TriMatrix state their band layout once, in BandMatrix: each
lists its diagonal fields in BANDS, lowest offset first.  matvec, to_dense,
copy, the solvers' inputs, the dominance scan and the shift read the
diagonals through bands() and main, so no other module names them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .materials import MaterialDomainError, MaterialModel
from .mesh import RadialMesh


class StencilError(ValueError):
    """Row assembled with the wrong stencil for its node type."""


def _zeros(n: int, exact: bool) -> np.ndarray:
    if exact:
        return np.array([0] * n, dtype=object)
    return np.zeros(n, dtype=np.float64)


class BandMatrix:
    """An N x N band matrix stored as its diagonals, each a length-N array.

    A subclass names its diagonal fields in BANDS, lowest offset first, so
    the main diagonal is the middle one, and the tuple field of row indices
    that follows them in ROWS.  Diagonal k of the band holds the entry in
    row i, column i+k at index i; slots that fall outside the matrix are
    zero.
    """

    BANDS: tuple[str, ...] = ()
    ROWS = ""

    def bands(self) -> tuple[np.ndarray, ...]:
        """The diagonals, lowest offset first."""
        return tuple(getattr(self, name) for name in self.BANDS)

    @property
    def main(self) -> np.ndarray:
        return getattr(self, self.BANDS[len(self.BANDS) // 2])

    @property
    def n(self) -> int:
        return len(self.main)

    @property
    def is_exact(self) -> bool:
        return self.main.dtype == object

    @classmethod
    def zeros(cls, n: int, exact: bool = False, **rows):
        return cls(*(_zeros(n, exact) for _ in cls.BANDS), **rows)

    def _with_bands(self, bands):
        return type(self)(*bands, getattr(self, self.ROWS))

    def with_main(self, diagonal):
        """A copy with diagonal as its main diagonal."""
        mid = len(self.BANDS) // 2
        return self._with_bands([diagonal if j == mid else band.copy()
                                 for j, band in enumerate(self.bands())])

    def copy(self):
        return self._with_bands([band.copy() for band in self.bands()])

    def matvec(self, x) -> np.ndarray:
        """A x, adding the diagonals' terms in the order 0, +1, -1, +2, -2."""
        x = np.asarray(x)
        bands = self.bands()
        mid = len(bands) // 2
        out = bands[mid] * x
        for k in range(1, mid + 1):
            out[:-k] = out[:-k] + bands[mid + k][:-k] * x[k:]
            out[k:] = out[k:] + bands[mid - k][k:] * x[:-k]
        return out

    def to_dense(self) -> np.ndarray:
        n = self.n
        mid = len(self.BANDS) // 2
        dense = _zeros(n * n, self.is_exact).reshape(n, n)
        for k, band in enumerate(self.bands(), start=-mid):
            rows = np.arange(max(-k, 0), n - max(k, 0))
            dense[rows, rows + k] = band[rows]
        return dense


@dataclass(eq=False)
class PentaMatrix(BandMatrix):
    """Five diagonals of an N x N band matrix.

    d2m/d1m are the second/first sub-diagonals, d1p/d2p the super-diagonals;
    entry conventions: d1m[i] multiplies x[i-1], d2p[i] multiplies x[i+2],
    and so on.  Out-of-band slots are fixed at zero.  full_rows lists the
    rows allowed to hold nonzero outer diagonals; for assembled systems that
    is exactly {0, N-1} plus the contact rows.
    """

    BANDS = ("d2m", "d1m", "d0", "d1p", "d2p")
    ROWS = "full_rows"

    d2m: np.ndarray
    d1m: np.ndarray
    d0: np.ndarray
    d1p: np.ndarray
    d2p: np.ndarray
    full_rows: tuple[int, ...] = ()

    def __post_init__(self):
        self.full_rows = tuple(int(i) for i in self.full_rows)


@dataclass(eq=False)
class TriMatrix(BandMatrix):
    """Three diagonals of an N x N band matrix.

    contact_rows carries the interface-row indices through the band
    reduction so the tridiagonal dominance shift knows where to act.
    """

    BANDS = ("sub", "diag", "sup")
    ROWS = "contact_rows"

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    contact_rows: tuple[int, ...] = ()


@dataclass(eq=False)
class LinearSystem:
    """A band matrix paired with its right-hand side."""

    matrix: PentaMatrix | TriMatrix
    rhs: np.ndarray

    def __post_init__(self):
        self.rhs = np.asarray(self.rhs)
        if len(self.rhs) != self.matrix.n:
            raise ValueError(
                f"rhs length {len(self.rhs)} != matrix size {self.matrix.n}"
            )

    def residual(self, x) -> np.ndarray:
        return self.matrix.matvec(x) - self.rhs


# ---------------------------------------------------------------------------
# row assembly
# ---------------------------------------------------------------------------

def assemble_neumann_rows(mesh: RadialMesh):
    """One-sided second-order zero-derivative rows for both ends.

    Returns ((c00, c01, c02), (c_{N-1,N-3}, c_{N-1,N-2}, c_{N-1,N-1})); both
    right-hand sides are zero.  Rows are kept in cleared-denominator form, so
    with equal steps row 0 is (3, -4, 1) times h^2.  Coefficients of each row
    sum to zero (the derivative of a constant vanishes).
    """
    steps = mesh.steps
    h1, h2 = steps[0], steps[1]
    row_first = (h2 * (2 * h1 + h2), -((h1 + h2) * (h1 + h2)), h1 * h1)
    hn, hm = steps[-1], steps[-2]  # h_{N-1}, h_{N-2}
    row_last = (hn * hn, -((hn + hm) * (hn + hm)), hm * (2 * hn + hm))
    return row_first, row_last


def assemble_contact_row(mesh: RadialMesh, lam_left, lam_right, i_star: int):
    """Five-point flux-continuity row at contact node i_star.

    The left one-sided derivative (columns i*-2..i*) is scaled by the left
    layer's conductivity at the contact temperature, the right one-sided
    derivative (columns i*..i*+2) by the right layer's, and the two are
    summed so that a continuous flux gives zero.  Returns the 5 coefficients
    over columns i*-2..i*+2; the right-hand side is zero.
    """
    if i_star not in mesh.contact_indices:
        raise StencilError(f"node {i_star} is not a contact index")
    steps = mesh.steps
    h_im1 = steps[i_star - 2]  # h_{i*-1}
    h_i = steps[i_star - 1]    # h_{i*}
    h_ip1 = steps[i_star]      # h_{i*+1}
    h_ip2 = steps[i_star + 1]  # h_{i*+2}

    den_l = h_i * h_im1 * (h_i + h_im1)
    den_r = h_ip1 * h_ip2 * (h_ip1 + h_ip2)
    scale_l = lam_left / den_l
    scale_r = lam_right / den_r

    c_mm = scale_l * h_i * h_i
    c_m = -scale_l * (h_i + h_im1) * (h_i + h_im1)
    c_0 = (scale_l * h_im1 * (2 * h_i + h_im1)
           + scale_r * h_ip2 * (2 * h_ip1 + h_ip2))
    c_p = -scale_r * (h_ip1 + h_ip2) * (h_ip1 + h_ip2)
    c_pp = scale_r * h_ip1 * h_ip1
    return c_mm, c_m, c_0, c_p, c_pp


def contact_conductivities(mesh: RadialMesh,
                           materials: Mapping[str, MaterialModel],
                           u) -> list[tuple]:
    """(lambda_left, lambda_right) at each contact: the conductivities of the
    two layers that meet there at the shared temperature u[i*].  A
    MaterialDomainError names the first contact node at fault, its material
    and the offending value."""
    pairs = []
    for j, i_star in enumerate(mesh.contact_indices):
        pair = []
        for mid in mesh.layer_materials[j:j + 2]:
            try:
                pair.append(materials[mid].conductivity_at(u[i_star]))
            except MaterialDomainError as exc:
                raise MaterialDomainError(
                    f"node {i_star} (material {mid!r}): {exc}", node=i_star,
                    material=mid, value=exc.value) from None
        pairs.append(tuple(pair))
    return pairs


def _field(values, exact: bool) -> np.ndarray:
    """values as a float64 array, or as an object array that keeps exact
    scalars as given."""
    return np.asarray(values, dtype=object if exact else np.float64)


def _rows_by_material(mesh: RadialMesh) -> list[tuple[str, np.ndarray]]:
    """(material id, ascending non-contact interior nodes) per material.

    The rows strictly between the j-th and (j+1)-th entries of
    (0, contacts..., N-1) make up layer j and take the material of that
    layer, mesh.layer_materials[j].
    """
    bounds = (0, *mesh.contact_indices, mesh.n - 1)
    runs: dict[str, list] = {}
    for mid, lo, hi in zip(mesh.layer_materials, bounds, bounds[1:]):
        runs.setdefault(mid, []).append(np.arange(lo + 1, hi))
    return [(mid, np.concatenate(parts)) for mid, parts in runs.items()]


def _fault(mid: str, rows: np.ndarray, ok, arg, value, offset: int,
           what: str) -> MaterialDomainError | None:
    """The error for the first row whose flag in ok is False, or None.

    ok holds one flag per row (a scalar for a constant coefficient), value
    is the checked quantity, arg the temperature it was evaluated at, offset
    the checked node's distance from the row and what the message, formatted
    with arg and value.  Flags are cast to bool: comparisons on object arrays
    give object arrays, on which ~ is integer negation.
    """
    bad = np.flatnonzero(~np.broadcast_to(np.asarray(ok, dtype=bool), rows.shape))
    if not bad.size:
        return None
    pos = bad[0]
    node = int(rows[pos]) + offset
    arg, value = (x[pos] if np.ndim(x) else x for x in (arg, value))
    return MaterialDomainError(
        f"node {node} (material {mid!r}): " + what.format(arg=arg, value=value),
        node=node, material=mid, value=value)


def assemble_system(mesh: RadialMesh, materials: Mapping[str, MaterialModel],
                    u_guess, u_old, tau, extra_source=None) -> LinearSystem:
    """Assemble the full pentadiagonal system for one implicit level.

    Nonlinear coefficients are frozen at u_guess; u_old feeds the time term
    on the right-hand side.  extra_source, if given, is a length-N vector
    added to the interior right-hand sides (used for manufactured-solution
    studies; boundary and contact rows keep zero RHS).

    Raises MaterialDomainError naming the first node, its material and the
    offending value when a temperature leaves a material's validity range
    or rho, cv or the conductivity is not positive.

    full_rows of the result is exactly {0, N-1} union the contact indices.
    """
    n = mesh.n
    exact = mesh.is_exact
    u = _field(u_guess, exact)
    u_prev = _field(u_old, exact)
    if u.shape != (n,) or u_prev.shape != (n,):
        raise ValueError("temperature fields must have one value per node")
    if exact and (isinstance(tau, float) or any(isinstance(v, float) for v in u)
                  or any(isinstance(v, float) for v in u_prev)):
        raise TypeError("exact mesh requires exact (non-float) tau and fields")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")

    groups = _rows_by_material(mesh)
    rows = np.concatenate([idx for _, idx in groups])
    dtype = object if exact else np.float64
    rho_c, lam_lo, lam_hi, phi = (np.empty(len(rows), dtype=dtype) for _ in range(4))
    faults = []
    start = 0
    for mid, idx in groups:
        model = materials[mid]
        part = slice(start, start + len(idx))
        start = part.stop
        u_i, u_m, u_p = u[idx], u[idx - 1], u[idx + 1]
        checks = []
        if model.valid_range is not None:
            lo, hi = model.valid_range
            what = f"temperature {{value}} outside validity range [{lo}, {hi}]"
            checks += [(np.asarray(lo <= v, dtype=bool) & np.asarray(v <= hi, dtype=bool),
                        v, v, offset, what)
                       for offset, v in ((-1, u_m), (0, u_i), (1, u_p))]
        rho, cv = model.rho(u_i), model.cv(u_i)
        mean_m, mean_p = (u_i + u_m) / 2, (u_i + u_p) / 2
        lam_m, lam_p = model.conductivity(mean_m), model.conductivity(mean_p)
        checks += [(rho > 0, u_i, rho, 0, "rho({arg}) = {value} is not positive"),
                   (cv > 0, u_i, cv, 0, "cv({arg}) = {value} is not positive")]
        checks += [(lam > 0, mean, lam, 0,
                    "conductivity({arg}) = {value} is not positive")
                   for mean, lam in ((mean_m, lam_m), (mean_p, lam_p))]
        faults += [_fault(mid, idx, *check) for check in checks]
        rho_c[part] = rho * cv
        lam_lo[part], lam_hi[part] = lam_m, lam_p
        phi[part] = model.source(u_i)
    try:
        contact_lams = contact_conductivities(mesh, materials, u)
    except MaterialDomainError as exc:
        faults.append(exc)
    faults = [exc for exc in faults if exc is not None]
    if faults:  # the lowest node; at a tie the check listed first
        raise min(faults, key=lambda exc: exc.node)

    # interior rows
    r_prev, r_i, r_next = mesh.nodes[rows - 1], mesh.nodes[rows], mesh.nodes[rows + 1]
    h_lo, h_hi = mesh.steps[rows - 1], mesh.steps[rows]
    hbar = (h_lo + h_hi) / 2
    r_lo = (r_prev + r_i) / 2
    r_hi = (r_i + r_next) / 2
    c_lo = -(r_lo * lam_lo) / (r_i * hbar * h_lo)
    c_hi = -(r_hi * lam_hi) / (r_i * hbar * h_hi)
    diag = rho_c / tau - c_lo - c_hi
    b = rho_c * u_prev[rows] / tau + phi
    if extra_source is not None:
        b = b + _field(extra_source, exact)[rows]

    d2m, d1m, d0, d1p, d2p, rhs = (_zeros(n, exact) for _ in range(6))
    d1m[rows], d0[rows], d1p[rows], rhs[rows] = c_lo, diag, c_hi, b
    (d0[0], d1p[0], d2p[0]), (d2m[n - 1], d1m[n - 1], d0[n - 1]) = \
        assemble_neumann_rows(mesh)
    for i_star, (lam_l, lam_r) in zip(mesh.contact_indices, contact_lams):
        (d2m[i_star], d1m[i_star], d0[i_star], d1p[i_star],
         d2p[i_star]) = assemble_contact_row(mesh, lam_l, lam_r, i_star)

    full_rows = tuple(sorted({0, n - 1, *mesh.contact_indices}))
    return LinearSystem(PentaMatrix(d2m, d1m, d0, d1p, d2p, full_rows), rhs)
