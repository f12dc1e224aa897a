"""Implicit time integration with fixed-point (Picard) iteration.

Each step solves the assembled system with coefficients frozen at the
current iterate.  Four shift modes decide how that system is solved:

* "none" hands the raw system (reduced to tridiagonal form for the
  tridiagonal solvers) straight to the pivot-free solver.
* "pd" and "td" are the paper's dominance shifts: the solved system is the
  fixed-point form (A + P) u = rhs + P u, so even a linear problem iterates,
  and it contracts slowly when a shift entry dwarfs the row's own diagonal.
  The shift is read off every iterate's assembled matrix, whose contact
  rows depend on the iterate's contact temperatures.  The iteration is
  Anderson-accelerated: the error operator (A + P)^-1 P has rank at most
  the number of shifted rows, K + 2 on a mesh with K contacts, so mixing
  that many past updates converges like GMRES on a linear step (Walker &
  Ni, SIAM J. Numer. Anal. 49, 2011), where the plain iteration can stall
  for hundreds of passes at large tau.
* "corrected" builds the same shift as the solver family's fixed-point mode
  (the "pd" shift for pentadiagonal solvers, the "td" shift for tridiagonal
  ones) but solves the unshifted system A u = rhs.  A = M - P with
  M = A + P the dominant, pivot-free matrix and P diagonal and nonzero on a
  few rows only, so the Sherman-Morrison-Woodbury (capacitance matrix)
  formula needs one solve with M per nonzero row of P plus one for the
  right-hand side, and one LAPACK solve of the |R| x |R| capacitance matrix,
  R those rows.  M is factored once and each of those solves reuses its
  factors.  Picard then iterates only on the nonlinear coefficients.

The exact solvers (SPDM, STDM) need no dominance: they take "none" and
"corrected", both one exact solve of the unshifted system.  An exact mesh
takes only them and only constant-coefficient materials, so no Picard loop
runs over the rationals.

The converged limit is independent of the shift mode.  Iteration stops when
the sup-norm update is at most picard_tol times the sup norm of the new
iterate; an update of exactly zero is always accepted.  The unmixed modes
("none" and "corrected") also stop on the contraction estimate of Hairer &
Wanner (Solving ODEs II, sec. IV.8): with theta = ||d_k|| / ||d_{k-1}|| the
ratio of the last two updates, the error of the new iterate is about
theta / (1 - theta) ||d_k||, and the step stops once theta < 1 and that is
at most picard_tol times the iterate's norm.  The update test alone bounds
the error of the previous iterate, so it costs one pass more and can stall
on a rounding floor.  The Anderson-mixed "pd" and "td" modes keep the update
test alone: the ratio of their mixed updates is not the Picard map's
contraction.  The accepted iterate is always a Picard image, never a mixed
one.

Constant-coefficient problems (every material of the mesh's layers with
constant rho, cv, conductivity and temperature-independent source) make the
system linear in the unknowns; with shift_mode "none" or "corrected" a
single solve is then exact and no iteration is performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import band_solvers
from .assembly import LinearSystem, assemble_system
from .band_solvers import SOLVERS, Solver, sup_norm
from .conditioning import ShiftDiag, build_pd_shift, build_td_shift, pd_to_td
from .exact_solvers import SingularMatrixError
from .materials import MaterialModel
from .mesh import RadialMesh

SHIFT_MODES = ("none", "pd", "td", "corrected")


class NonConvergenceError(RuntimeError):
    """Picard iteration hit its cap.

    Carries what the stop test saw at the last pass: last_diff, the sup-norm
    update; relative, that update over the sup norm of the new iterate; tol,
    the picard_tol that relative had to reach; and rate, the contraction
    estimate ||d_k|| / ||d_{k-1}|| of the last two updates, None after a
    single pass.
    """

    def __init__(self, last_diff, relative, tol, max_picard: int, rate=None):
        super().__init__(
            f"last relative update {float(relative):.2g} > picard_tol "
            f"{float(tol):g} after {max_picard} passes")
        self.last_diff = last_diff
        self.relative = relative
        self.tol = tol
        self.rate = rate


@dataclass(frozen=True)
class StepConfig:
    """Per-step solver configuration.

    shift_mode: "pd" dominantizes the pentadiagonal system, "td" reduces to
    tridiagonal first and dominantizes that, both iterating the shifted fixed
    point; "none" solves the raw system; "corrected" (the default) builds the
    solver family's shift and removes it again exactly by the low-rank
    correction described in the module docstring.  The float pentadiagonal
    solvers pair with "pd", NTDM with "td"; the exact solvers take only
    "none" and "corrected", both one exact solve.

    picard_tol is relative: a step has converged once the sup-norm update is
    at most picard_tol times the sup norm of the new iterate, or, in the
    "none" and "corrected" modes, once theta / (1 - theta) times it is, theta
    the ratio of the last two updates (Hairer & Wanner's contraction
    estimate; see the module docstring).
    """

    tau: object
    picard_tol: float = 1e-12
    max_picard: int = 100
    solver_id: str = "NTDM"
    shift_mode: str = "corrected"

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.picard_tol > 0:
            raise ValueError("picard_tol must be positive")
        if self.max_picard < 1:
            raise ValueError("max_picard must be >= 1")
        if self.solver_id not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver_id!r}")
        if self.shift_mode not in SHIFT_MODES:
            raise ValueError(f"unknown shift mode {self.shift_mode!r}")
        # the fixed-point shift modes are named after the band shape they
        # fit, and dominantize for the numerical solvers only
        solver = SOLVERS[self.solver_id]
        modes = [m for m in SHIFT_MODES if m not in ("pd", "td")
                 or m == solver.kernel.shape and not solver.exact]
        if self.shift_mode not in modes:
            raise ValueError(
                f"{self.solver_id} takes shift_mode "
                f"{', '.join(map(repr, modes))}, not {self.shift_mode!r}")


@dataclass(eq=False)
class TemperatureField:
    """Nodal temperatures at one time level."""

    values: np.ndarray
    time: object = 0

    def __post_init__(self):
        self.values = np.asarray(self.values)


def _corrected_solve(system: LinearSystem, shift: ShiftDiag, solver: Solver):
    """Solve the unshifted system A u = rhs through the dominant M = A + P.

    With R the rows where P is nonzero, y = M^-1 rhs and Z the |R| x N array
    whose rows are z_j = M^-1 e_j for j in R, the capacitance matrix is
    C = diag(1/P_R) - Z[:, R]^T and u = y + (C^-1 y[R]) Z
    (Sherman-Morrison-Woodbury).  M is factored once; y and every z_j are
    back-solves with its factors, and C^-1 y[R] is one LAPACK solve of the
    |R| x |R| capacitance matrix.
    """
    back_solve = band_solvers.factorize(shift.apply(system.matrix),
                                        solver.kernel)
    y = np.array(back_solve(system.rhs))
    rows = np.flatnonzero(shift.entries)
    if not rows.size:
        return y
    z = np.array([back_solve(np.eye(1, len(y), j)[0]) for j in rows])
    capacitance = np.diag(1 / shift.entries[rows]) - z[:, rows].T
    try:
        weights = np.linalg.solve(capacitance, y[rows])
    except np.linalg.LinAlgError:
        raise SingularMatrixError("singular capacitance matrix: the "
                                  "unshifted system is singular") from None
    return y + weights @ z


# Past updates Anderson mixing keeps beyond the K + 2 shifted rows, for the
# directions that the coefficients' drift between passes adds.  On cylinders
# with K = 1, 3, 11 and 30 contacts at tau = 1e3 h^2, margins of 5 to 8 took
# the fewest passes (12, 18, 28 and 50-52); margin 0 took up to 6 more.
_ANDERSON_MARGIN = 6


class _Anderson:
    """Type-II Anderson mixing of Picard images (Anderson, J. ACM 12, 1965;
    Walker & Ni, SIAM J. Numer. Anal. 49, 2011).

    mix(f, g) takes the Picard image g of the current iterate u and the
    update f = g - u, and returns the next iterate g - dG gamma.  The rows of
    dF and dG are the differences between consecutive updates and images of
    the last `rows` calls, and gamma minimises ||f - dF^T gamma||_2.  It is
    solved from the rows x rows normal equations, which at N = 1e3 and 16
    rows take about a sixth of the time of np.linalg.lstsq.  A singular or
    non-finite solve clears the history and returns g, the plain Picard
    step.
    """

    def __init__(self, rows: int, n: int):
        self.df = np.empty((rows, n))
        self.dg = np.empty((rows, n))
        self.used = 0  # rows [0, used) hold differences
        self.slot = 0  # the row the next difference overwrites
        self.last = None  # (f, g) of the previous call

    def mix(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        if self.last is not None:
            np.subtract(f, self.last[0], out=self.df[self.slot])
            np.subtract(g, self.last[1], out=self.dg[self.slot])
            self.slot = (self.slot + 1) % len(self.df)
            self.used = min(self.used + 1, len(self.df))
        self.last = f, g
        if not self.used:
            return g
        df = self.df[:self.used]
        try:
            gamma = np.linalg.solve(df @ df.T, df @ f)
        except np.linalg.LinAlgError:
            gamma = None
        if gamma is None or not np.all(np.isfinite(gamma)):
            self.used = self.slot = 0
            return g
        return g - gamma @ self.dg[:self.used]


def _picard_pass(mesh: RadialMesh, materials: Mapping[str, MaterialModel],
                 u_iter, u_prev, cfg: StepConfig, extra_source) -> np.ndarray:
    """One Picard pass: assemble with coefficients frozen at u_iter and solve
    in cfg's shift mode.  The pass's systems die with this frame, so a
    NonConvergenceError traceback kept by a caller does not hold them."""
    solver = SOLVERS[cfg.solver_id]
    system = assemble_system(mesh, materials, u_iter, u_prev, cfg.tau,
                             extra_source=extra_source)
    td = solver.kernel.shape == "td"
    if td:
        system = pd_to_td(system)
    if cfg.shift_mode == "none" or solver.exact:
        return solver.solution(system)
    shift = (build_td_shift if td else build_pd_shift)(system.matrix)
    if cfg.shift_mode == "corrected":
        return _corrected_solve(system, shift, solver)
    shifted = LinearSystem(shift.apply(system.matrix),
                           system.rhs + shift.feedback(u_iter))
    return solver.solution(shifted)


def advance(mesh: RadialMesh, materials: Mapping[str, MaterialModel],
            u_old: TemperatureField, cfg: StepConfig,
            extra_source=None) -> tuple[TemperatureField, int]:
    """Advance one time step; returns the new field and the iteration count.

    Iterates u^(k+1) = solve(A(u^k), rhs(u^k)) from u^(0) = u_old, where the
    "pd" and "td" modes solve the shifted fixed point (A + P) u = rhs + P u^k
    instead, until the sup-norm update d_k = u^(k+1) - u^(k) is at most
    cfg.picard_tol times the sup norm of u^(k+1).  From the second pass on,
    "none" and "corrected" also stop once theta = ||d_k|| / ||d_{k-1}||
    gives theta ||d_k|| <= (1 - theta) cfg.picard_tol ||u^(k+1)||, the
    contraction estimate of Hairer & Wanner (Solving ODEs II, sec. IV.8),
    which holds only for theta < 1.  "pd" and "td" step to the Anderson mix
    of the last K + 2 + _ANDERSON_MARGIN updates, K the mesh's contact
    count, and at most cfg.max_picard, and stop on the update test alone;
    every mode accepts a Picard image.  Raises NonConvergenceError after
    cfg.max_picard passes without meeting a stop test.  On an exact mesh it
    raises ValueError, before assembling, unless the solver is exact and
    every layer's material has constant coefficients.

    extra_source is a length-N vector added to the interior right-hand sides
    (evaluate any space/time source at the new time level before calling).
    """
    # the first layer material that depends on u; None: the step is linear
    nonlinear = next((mid for mid in mesh.layer_materials
                      if not materials[mid].constant_coefficients), None)
    if mesh.is_exact:
        if not SOLVERS[cfg.solver_id].exact:
            exact = ", ".join(s for s, spec in SOLVERS.items() if spec.exact)
            raise ValueError(f"an exact mesh takes the solvers {exact}, "
                             f"not {cfg.solver_id}")
        if nonlinear is not None:
            raise ValueError(f"an exact step needs constant coefficients; "
                             f"material {nonlinear!r} depends on temperature")
    u_prev = u_old.values
    u_iter = u_prev
    mixer = None
    if cfg.shift_mode in ("pd", "td"):
        # no step keeps more differences than it runs passes
        depth = mesh.k + 2 + _ANDERSON_MARGIN
        mixer = _Anderson(min(depth, cfg.max_picard), mesh.n)

    last_diff = None
    for k in range(1, cfg.max_picard + 1):
        u_next = _picard_pass(mesh, materials, u_iter, u_prev, cfg, extra_source)
        if nonlinear is None and cfg.shift_mode in ("none", "corrected"):
            # system and RHS do not depend on the iterate: one solve is exact
            return TemperatureField(u_next, u_old.time + cfg.tau), k
        update = u_next - u_iter
        diff, norm = sup_norm(update), sup_norm(u_next)
        tol = cfg.picard_tol * norm
        rate = diff / last_diff if last_diff else None
        # relative stop; <= also accepts an exactly zero update at u = 0,
        # and a NaN update is never accepted.  The estimate's (1 - rate)
        # refuses any rate >= 1.  Only a Picard image u_next is ever
        # accepted, so mixing can cost passes but not accuracy.
        if diff <= tol or (mixer is None and rate is not None
                           and rate * diff <= (1 - rate) * tol):
            return TemperatureField(u_next, u_old.time + cfg.tau), k
        last_diff = diff
        u_iter = u_next if mixer is None else mixer.mix(update, u_next)

    mixer = None  # a kept traceback holds this frame, not the mixing history
    relative = diff / norm if norm else float("inf")
    raise NonConvergenceError(diff, relative, cfg.picard_tol, cfg.max_picard,
                              rate)


def run(mesh: RadialMesh, materials: Mapping[str, MaterialModel],
        u0: TemperatureField, cfg: StepConfig, steps: int,
        source=None) -> list[TemperatureField]:
    """Advance `steps` time steps; returns u0 and every field after it.

    source, if given, is a callable source(r, t) evaluated per node at each
    step's new time level.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    trajectory = [u0]
    field_now = u0
    radii = mesh.nodes.tolist()
    for _ in range(steps):
        extra = None
        if source is not None:
            t_new = field_now.time + cfg.tau
            extra = [source(r, t_new) for r in radii]
        field_now, _ = advance(mesh, materials, field_now, cfg,
                               extra_source=extra)
        trajectory.append(field_now)
    return trajectory
