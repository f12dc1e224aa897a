"""Diagonal dominance shifts and the band-preserving PD -> TD reduction.

The assembled pentadiagonal matrix is weakly dominant in every interior row
but strictly deficient in rows 0, N-1 and the contact rows.  Two remedies
are provided:

* build_pd_shift: a diagonal matrix P whose entry at row 0, row N-1 and
  each contact row is that row's dominance deficit, read off the assembled
  matrix as sum |off-diagonal entries| - main, so A + P is weakly dominant
  everywhere.  The deficit equals the paper's closed form: 2*h_1^2 and
  2*h_{N-1}^2 at the ends and, at each contact row,

      p = 2*lam_left*h_{i*} / (h_{i*-1} (h_{i*}+h_{i*-1}))
        + 2*lam_right*h_{i*+1} / (h_{i*+2} (h_{i*+1}+h_{i*+2})),

  which tests/oracles.py keeps as the oracle.  The solved system becomes a
  fixed point: (A+P) u = rhs + P u.

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

from .assembly import LinearSystem, PentaMatrix, TriMatrix, _zeros

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


def build_pd_shift(matrix: PentaMatrix) -> ShiftDiag:
    """Dominance shift for an assembled pentadiagonal matrix.

    Each row in matrix.full_rows gets its dominance deficit,
    sum |off-diagonal entries| - main; for an assembled matrix that is the
    paper's closed form (see the module docstring) and positive.
    """
    rows = list(matrix.full_rows)
    entries = _zeros(matrix.n, matrix.is_exact)
    entries[rows] = _off_diagonal_mass(matrix, rows) - matrix.main[rows]
    return ShiftDiag(entries, matrix.full_rows)


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


def _off_diagonal_mass(matrix, rows=slice(None)) -> np.ndarray:
    """sum |off-diagonal entries| of each of the given rows, adding the bands
    lowest offset first."""
    bands = matrix.bands()
    mid = len(bands) // 2
    return sum(np.abs(band[rows]) for j, band in enumerate(bands) if j != mid)


def build_td_shift(td: TriMatrix) -> ShiftDiag:
    """Dominance shift for a reduced tridiagonal matrix.

    Designated entries: |sup| of row 0, |sub| of row N-1 (the sole
    off-diagonal of each), and |sub| + |sup| at every contact row.  Any
    other row found non-dominant (within TD_SHIFT_RTOL) gets the
    minimal make-up shift and is listed in extended_rows.  The scan runs on
    whole arrays; object (exact) matrices are scanned exactly.
    """
    n = td.n
    designated = sorted({0, n - 1} | set(td.contact_rows))
    entries = _zeros(n, td.is_exact)
    off = _off_diagonal_mass(td)
    entries[designated] = off[designated]

    deficit = off - td.diag
    if td.is_exact:
        short = np.asarray(deficit > 0, dtype=bool)
    else:
        short = deficit > TD_SHIFT_RTOL * np.maximum(np.abs(td.diag), off)
    short[designated] = False
    extended = np.flatnonzero(short)
    entries[extended] = deficit[extended]
    return ShiftDiag(entries, tuple(designated),
                     tuple(int(i) for i in extended))
