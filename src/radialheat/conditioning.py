"""Diagonal dominance shifts and the band-preserving PD -> TD reduction.

The assembled pentadiagonal matrix is weakly dominant in every interior row
but strictly deficient in rows 0, N-1 and the contact rows.  Two remedies
are provided:

* build_pd_shift: a diagonal matrix P with entries 2*h_1^2 and 2*h_{N-1}^2
  at the ends and, at each contact row,

      p = 2*lam_left*h_{i*} / (h_{i*-1} (h_{i*}+h_{i*-1}))
        + 2*lam_right*h_{i*+1} / (h_{i*+2} (h_{i*+1}+h_{i*+2})),

  each entry being exactly that row's dominance deficit, so A + P is weakly
  dominant everywhere.  The solved system becomes a fixed point:
  (A+P) u = rhs + P u.

* pd_to_td + build_td_shift: pivot-free local eliminations remove the four
  outer entries (row 1 clears row 0's, row N-2 clears row N-1's, rows
  i*-1 / i*+1 clear a contact row's), preserving both the band and the
  solution set; the tridiagonal result is then shifted by the magnitudes of
  its own off-diagonal entries at the same rows.  Any other row that comes
  out of the reduction non-dominant receives a make-up shift as well; such
  rows are recorded in ShiftDiag.extended_rows (none arise for assembled
  systems in exact arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import LinearSystem, PentaMatrix, TriMatrix, _field, _zeros
from .mesh import RadialMesh

#: Relative slack of build_td_shift's dominance scan, absorbing float
#: rounding of the reduction.
TD_SHIFT_RTOL = 1e-13


class ReductionBreakdownError(RuntimeError):
    """A neighbor row's eliminating coefficient is zero, so the multiplier
    for the band-preserving elimination cannot be formed."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


@dataclass(eq=False)
class ShiftDiag:
    """Diagonal dominance shift and its right-hand-side feedback.

    entries is a length-N vector, nonzero at the designated rows ({0, N-1}
    and the contact rows) plus any extension rows.
    The paper's shifted solve is a fixed point: (A + P) u = rhs + P u, so
    feedback() supplies the P*u term.  The "corrected" time-stepping mode
    uses the same P differently: it solves A u = rhs exactly through the
    dominant A + P, correcting for the few nonzero rows of P with a small
    capacitance system (Sherman-Morrison-Woodbury), so no feedback enters.
    """

    entries: np.ndarray
    designated_rows: tuple[int, ...]
    extended_rows: tuple[int, ...] = ()

    def apply(self, matrix):
        """Return a copy of the matrix with the shift added to its diagonal.
        Off-diagonal entries are never touched."""
        return matrix.with_main(matrix.main + self.entries)

    def feedback(self, u) -> np.ndarray:
        """P*u, the right-hand-side compensation for the current iterate."""
        return self.entries * np.asarray(u)


def build_pd_shift(mesh: RadialMesh, contact_lams) -> ShiftDiag:
    """Dominance shift for the assembled pentadiagonal system.

    contact_lams pairs up with mesh.contact_indices and holds the
    (lambda_left, lambda_right) conductivities at each contact temperature,
    i.e. the same values the contact rows were assembled with.
    """
    n = mesh.n
    steps = mesh.steps
    entries = [0] * n
    entries[0] = 2 * steps[0] * steps[0]
    entries[n - 1] = 2 * steps[-1] * steps[-1]
    contact_lams = list(contact_lams)
    if len(contact_lams) != mesh.k:
        raise ValueError(
            f"need one conductivity pair per contact ({mesh.k}), "
            f"got {len(contact_lams)}"
        )
    for i_star, (lam_l, lam_r) in zip(mesh.contact_indices, contact_lams):
        h_im1 = steps[i_star - 2]
        h_i = steps[i_star - 1]
        h_ip1 = steps[i_star]
        h_ip2 = steps[i_star + 1]
        entries[i_star] = (
            2 * lam_l * h_i / (h_im1 * (h_i + h_im1))
            + 2 * lam_r * h_ip1 / (h_ip2 * (h_ip1 + h_ip2))
        )
    designated = tuple(sorted({0, n - 1} | set(mesh.contact_indices)))
    return ShiftDiag(_field(entries, mesh.is_exact), designated)


def pd_to_td(system: LinearSystem) -> LinearSystem:
    """Reduce a pentadiagonal system to a tridiagonal one, preserving the
    solution set exactly (in exact arithmetic).

    Each full row's outer entries are eliminated against the adjacent
    tridiagonal row that covers the offending column: row 1 serves row 0,
    row N-2 serves row N-1, and rows i*-1 / i*+1 serve a contact row.  Only
    the full rows themselves are modified.  Raises ReductionBreakdownError
    when an eliminating coefficient is zero.
    """
    matrix = system.matrix
    if not isinstance(matrix, PentaMatrix):
        raise TypeError("pd_to_td expects a pentadiagonal system")
    n = matrix.n
    tri = [matrix.d1m.copy(), matrix.d0.copy(), matrix.d1p.copy()]
    diag = tri[1]
    rhs = system.rhs.copy()

    def eliminate(i, j, outer):
        """Clear row i's entry outer in column 2j - i with row j = i +- 1."""
        side = j - i
        far, near = tri[1 + side], tri[1 - side]
        if far[j] == 0:
            raise ReductionBreakdownError(
                i, f"row {j} has a zero {'super' if side > 0 else 'sub'}-"
                   f"diagonal entry; cannot eliminate the ({i},{2 * j - i}) "
                   f"entry")
        m = outer / far[j]
        diag[i] = diag[i] - m * near[j]
        far[i] = far[i] - m * diag[j]
        rhs[i] = rhs[i] - m * rhs[j]

    for i in matrix.full_rows:
        for j, outer in ((i - 1, matrix.d2m[i]), (i + 1, matrix.d2p[i])):
            if 0 <= j < n and outer != 0:
                eliminate(i, j, outer)

    contact_rows = tuple(i for i in matrix.full_rows if 0 < i < n - 1)
    return LinearSystem(TriMatrix(*tri, contact_rows), rhs)


def weakly_dominant_rows(matrix, rtol: float = 0.0) -> list[bool]:
    """Row-by-row weak diagonal dominance scan: |diag| >= sum |off-diag|.

    rtol loosens the comparison by rtol * (row magnitude) to absorb float
    rounding; exact (object) matrices are scanned exactly.
    """
    n = matrix.n
    flags = []
    bands = matrix.bands()
    mid = len(bands) // 2
    for i in range(n):
        diag = abs(bands[mid][i])
        off = sum(abs(band[i]) for j, band in enumerate(bands) if j != mid)
        slack = rtol * max(diag, off) if rtol else 0
        flags.append(diag + slack >= off)
    return flags


def is_weakly_dominant(matrix, rtol: float = 0.0) -> bool:
    return all(weakly_dominant_rows(matrix, rtol))


def build_td_shift(td: TriMatrix) -> ShiftDiag:
    """Dominance shift for a reduced tridiagonal matrix.

    Designated entries: |sup| of row 0, |sub| of row N-1 (the sole
    off-diagonal of each), and |sub| + |sup| at every contact row.  Any
    other row found non-dominant (within TD_SHIFT_RTOL) gets the
    minimal make-up shift and is listed in extended_rows.  The scan runs on
    whole arrays; object (exact) matrices are scanned exactly.
    """
    n = td.n
    exact = td.is_exact
    designated = tuple(sorted({0, n - 1} | set(td.contact_rows)))
    entries = _zeros(n, exact)
    entries[0] = abs(td.sup[0])
    entries[n - 1] = abs(td.sub[n - 1])
    contacts = list(td.contact_rows)
    entries[contacts] = np.abs(td.sub[contacts]) + np.abs(td.sup[contacts])

    # rows 0 and N-1 are designated, so only |sub| + |sup| rows are scanned
    off = np.abs(td.sub) + np.abs(td.sup)
    deficit = off - td.diag
    if exact:
        short = np.asarray(deficit > 0, dtype=bool)
    else:
        short = deficit > TD_SHIFT_RTOL * np.maximum(np.abs(td.diag), off)
    short[list(designated)] = False
    extended = np.flatnonzero(short)
    entries[extended] = deficit[extended]
    return ShiftDiag(entries, designated, tuple(int(i) for i in extended))
