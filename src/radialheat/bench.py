"""Benchmark, operation-count verification and convergence studies.

The benchmark protocol builds, for each problem size N, one twelve-layer
(K = 11 by default) conduction system per solver family:

* pentadiagonal path: assembled matrix A plus its dominance shift P, solved
  by NPDM / MNPDM / SPDM;
* tridiagonal path: A reduced band-preservingly to a tridiagonal matrix,
  then shifted, solved by NTDM / STDM.

A constructed solution is used throughout: a smooth low-degree profile
y_bar over the mesh is chosen (seeded, rational-friendly), the right-hand
side is set to b = A_DD * y_bar, and each solver's error is the sup norm of
its recovered solution against y_bar.  No PDE ground truth is needed and
exact solvers must reproduce y_bar exactly (error 0).

Wall-clock entries are medians over `repetitions` calls of each solver's
entry point after one discarded warm-up (see bench).  Operation counts are
the float solvers' closed forms (band_solvers.op_count, the one statement
of the laws 19N - 29, 13N + 7K - 8 and 9N - 8).  verify_op_counts holds
them to a count of the kernels' arithmetic: it factors and solves each
system over CountingFloat, a float that tallies every +, -, * and /.
"""

from __future__ import annotations

import json
import math
import platform
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from . import native
from .assembly import (LinearSystem, PentaMatrix, TriMatrix, _field,
                       assemble_system)
from .band_solvers import (SOLVERS, BreakdownError, kernel_inputs,
                           raise_breakdown, sup_norm)
from .conditioning import build_pd_shift, build_td_shift, pd_to_td
from .materials import MaterialModel, Polynomial
from .mesh import MIN_CELLS_PER_LAYER, LayerSpec, RadialMesh, build_mesh
from .time_stepper import StepConfig, TemperatureField, run

#: Default problem sizes, mirroring the published experiment tiers.
DEFAULT_N_TIERS = (10**3, 10**4, 10**5)

#: Sizes above this need allow_huge=True (five diagonals at 1e8 nodes are
#: several GB of memory).
HUGE_N = 10**7

#: Time steps of convergence_study at the coarsest mesh; refinement factor f
#: takes f^2 times as many.
STUDY_STEPS = 4

#: Alternating-conductivity material pair used by the default benchmark.
#: Integer coefficients serve the float and the exact assembly paths alike.
DEFAULT_MATERIALS = {
    "a": MaterialModel(Polynomial((1,)), Polynomial((1,)), Polynomial((1,))),
    "b": MaterialModel(Polynomial((1,)), Polynomial((1,)), Polynomial((3,))),
}


class ScenarioError(ValueError):
    """Invalid benchmark scenario."""


@dataclass(frozen=True)
class BenchScenario:
    """One benchmark campaign: sizes, contact count, solvers, repetitions.

    Exact solvers are only scheduled for n <= exact_cap; larger sizes
    produce a skipped row instead.  On a 2-core host one SPDM/STDM solve of
    the exact bench case takes about 0.04/0.03 s at n = 1e3, 0.4-0.6/0.3-0.4 s
    at n = 1e4 and up to 1.8/1.4 s at n = 2e4, the default cap, where the
    answer can need a second prime.  Sizes above HUGE_N additionally
    require allow_huge.
    """

    n_values: tuple[int, ...] = DEFAULT_N_TIERS
    k: int = 11
    solvers: tuple[str, ...] = tuple(SOLVERS)
    repetitions: int = 5
    seed: int = 0
    exact_cap: int = 2 * 10**4
    allow_huge: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "solvers", tuple(self.solvers))
        if not self.n_values or not self.solvers:
            raise ScenarioError("need at least one size and one solver")
        for s in self.solvers:
            if s not in SOLVERS:
                raise ScenarioError(f"unknown solver {s!r}")
        if self.repetitions < 1:
            raise ScenarioError("repetitions must be >= 1")
        if self.k < 0:
            raise ScenarioError("k must be >= 0")
        for n in self.n_values:
            default_layers(n, self.k)  # raises if the layers are too thin
            if n > HUGE_N and not self.allow_huge:
                raise ScenarioError(
                    f"n={n} exceeds {HUGE_N}; pass allow_huge (several GB of "
                    f"memory) to schedule it")


@dataclass
class BenchRow:
    """One (N, solver) cell of the result table."""

    n: int
    solver: str
    wall_s: float
    op_count: int | None
    err_inf: object
    path: str
    note: str = ""


# ---------------------------------------------------------------------------
# benchmark system construction
# ---------------------------------------------------------------------------

def default_layers(n: int, k: int, exact: bool = False) -> list[LayerSpec]:
    """K+1 equal-width layers on [1, 2] with alternating materials, cells
    distributed so the mesh has exactly n nodes."""
    segments = k + 1
    total_cells = n - 1
    base, rem = divmod(total_cells, segments)
    if base < MIN_CELLS_PER_LAYER:
        raise ScenarioError(f"n={n} gives fewer than {MIN_CELLS_PER_LAYER} "
                            f"cells per layer at k={k}")
    layers = []
    for j in range(segments):
        r0 = 1 + Fraction(j, segments)
        r1 = 1 + Fraction(j + 1, segments)
        if not exact:
            r0, r1 = float(r0), float(r1)
        layers.append(LayerSpec(
            r_start=r0, r_end=r1,
            material_id="a" if j % 2 == 0 else "b",
            cells=base + (1 if j < rem else 0),
        ))
    return layers


def constructed_profile(mesh: RadialMesh, seed: int) -> np.ndarray:
    """Seeded smooth quadratic profile y_bar over the mesh, values near 1."""
    rng = np.random.default_rng(seed)
    c1 = Fraction(int(rng.integers(1, 8)), 16)
    c2 = Fraction(int(rng.integers(1, 8)), 16)
    if not mesh.is_exact:
        # a Fraction times a float64 array would give an object array
        c1, c2 = float(c1), float(c2)
    s = mesh.nodes - mesh.r_min
    return 1 + c1 * s + c2 * s * s


def _bench_tau(mesh: RadialMesh):
    """Stiff implicit step: tau = h_min^2 / 100 keeps the shifted systems
    extremely well conditioned, reproducing near-machine accuracy."""
    h_min = min(mesh.steps.tolist())
    return h_min * h_min / 100


@dataclass(eq=False)
class BenchCase:
    """Shifted systems for one (n, k): a pentadiagonal and a tridiagonal
    route sharing the constructed solution y_bar."""

    pd_system: LinearSystem
    td_system: LinearSystem
    y_bar: np.ndarray
    mesh: RadialMesh


def build_bench_case(n: int, k: int, seed: int, exact: bool = False) -> BenchCase:
    mesh = build_mesh(default_layers(n, k, exact))
    y_bar = constructed_profile(mesh, seed)
    tau = _bench_tau(mesh)
    y_list = y_bar.tolist()
    system = assemble_system(mesh, DEFAULT_MATERIALS, y_list, y_list, tau)

    pd_shift = build_pd_shift(system.matrix)
    shifted_pd = pd_shift.apply(system.matrix)
    pd_system = LinearSystem(shifted_pd, shifted_pd.matvec(y_bar))

    reduced = pd_to_td(system)
    td_shift = build_td_shift(reduced.matrix)
    shifted_td = td_shift.apply(reduced.matrix)
    td_system = LinearSystem(shifted_td, shifted_td.matvec(y_bar))
    return BenchCase(pd_system, td_system, y_bar, mesh)


# ---------------------------------------------------------------------------
# random banded systems (shared with the test suite)
# ---------------------------------------------------------------------------

def spread_contacts(n: int, k: int) -> tuple[int, ...]:
    """k contact row indices in [2, n-3], pairwise distance >= 2."""
    if k == 0:
        return ()
    last = n - 3
    if k > (last - 2) // 2 + 1:
        raise ValueError(f"cannot place {k} contacts in [2, {last}]")
    step = max(2, (last - 2) // k)
    contacts = tuple(2 + j * step for j in range(k))
    if contacts[-1] > last:
        raise ValueError(f"cannot place {k} contacts in [2, {last}]")
    return contacts


def make_random_system(n: int, k: int, rng, exact: bool = False,
                       kind: str = "pd") -> LinearSystem:
    """Seeded random weakly (in fact strictly) diagonally dominant system.

    kind="pd": pentadiagonal with full rows {0, n-1} plus k contact rows;
    kind="td": plain dominant tridiagonal.  Off-diagonal magnitudes stay in
    [0.2, 1] so band-elimination multipliers remain tame; exact=True draws
    small nonzero integers instead.
    """

    def draw(size):
        if exact:
            mags = rng.integers(1, 9, size)
            signs = rng.choice((-1, 1), size)
            return [Fraction(int(m * s)) for m, s in zip(mags, signs)]
        mags = rng.uniform(0.2, 1.0, size)
        signs = rng.choice((-1.0, 1.0), size)
        return list(mags * signs)

    def margin(size):
        if exact:
            return [Fraction(int(v)) for v in rng.integers(1, 5, size)]
        return list(rng.uniform(0.1, 1.0, size))

    cls = TriMatrix if kind == "td" else PentaMatrix
    contacts = spread_contacts(n, k) if cls is PentaMatrix else ()
    bands = [[0] * n for _ in cls.BANDS]
    mid = len(bands) // 2
    bands[mid - 1][1:] = draw(n - 1)
    bands[mid + 1][:-1] = draw(n - 1)
    rows = ()
    if cls is PentaMatrix:
        rows = (0, *contacts, n - 1)
        d2m, d2p = bands[0], bands[-1]
        outer = draw(2 + 2 * len(contacts))
        d2p[0], d2m[n - 1] = outer[:2]
        for j, i_star in enumerate(contacts):
            d2m[i_star], d2p[i_star] = outer[2 + 2 * j:4 + 2 * j]
    off = bands[:mid] + bands[mid + 1:]
    bands[mid] = [sum(abs(band[i]) for band in off) + m
                  for i, m in enumerate(margin(n))]
    rhs = draw(n)
    return LinearSystem(cls(*(_field(band, exact) for band in bands), rows),
                        _field(rhs, exact))


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def bench(scenario: BenchScenario) -> list[BenchRow]:
    """Run the benchmark campaign; one row per (N, solver).

    wall_s is the median, over `repetitions` calls after one discarded
    warm-up, of the wall clock around one call of the solver's entry point,
    for every solver alike: it covers reading the bands into the kernel's
    lists, factor and solve, and then the residual (float solvers) or the
    eps -> 0 limit (exact ones).  Solver breakdowns are recorded in the
    row's note, not raised.  Rows are deterministic for a fixed seed except
    for the wall-clock column.
    """
    rows = []
    need_exact = any(SOLVERS[s].exact for s in scenario.solvers)
    for n in scenario.n_values:
        float_case = build_bench_case(n, scenario.k, scenario.seed, exact=False)
        exact_case = None
        if need_exact and n <= scenario.exact_cap:
            exact_case = build_bench_case(n, scenario.k, scenario.seed, exact=True)
        for solver in scenario.solvers:
            spec = SOLVERS[solver]
            path = f"{spec.kernel.shape}-shift"
            case = exact_case if spec.exact else float_case
            if case is None:
                rows.append(BenchRow(n, solver, float("nan"), None,
                                     float("nan"), path,
                                     f"skipped: n > exact cap {scenario.exact_cap}"))
                continue
            system = case.pd_system if spec.kernel.shape == "pd" else case.td_system
            fn = spec.entry_point()
            times = []
            try:
                for _ in range(scenario.repetitions + 1):
                    t0 = perf_counter()
                    out = fn(system)
                    times.append(perf_counter() - t0)
            except BreakdownError as exc:
                rows.append(BenchRow(n, solver, float("nan"), None,
                                     float("nan"), path,
                                     f"breakdown at row {exc.row}"))
                continue
            x, ops = ((np.asarray(out), None) if spec.exact
                      else (out.solution, out.op_count))
            rows.append(BenchRow(n, solver, median(times[1:]), ops,
                                 sup_norm(x - case.y_bar), path))
    return rows


# ---------------------------------------------------------------------------
# operation-count verification
# ---------------------------------------------------------------------------

@dataclass
class OpCountCheck:
    solver: str
    quantity: str
    expected: object
    measured: object
    passed: bool


@dataclass
class OpCountReport:
    checks: list[OpCountCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [f"{'ok  ' if c.passed else 'FAIL'} {c.solver:6s} "
                f"{c.quantity}: expected {c.expected}, measured {c.measured}"
                for c in self.checks]


class CountingFloat(float):
    """A float that adds one to its tally, a one-item list shared by the
    values of one count, for every +, -, * and / it takes part in.
    Comparisons and abs() are not counted."""

    __slots__ = ("tally",)

    def __new__(cls, value, tally):
        self = super().__new__(cls, value)
        self.tally = tally
        return self


def _counted(op):
    def method(self, other):
        self.tally[0] += 1
        return CountingFloat(op(self, other), self.tally)
    return method


for _op in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv"):
    setattr(CountingFloat, f"__{_op}__", _counted(getattr(float, f"__{_op}__")))


def count_ops(solver: str, system: LinearSystem) -> int:
    """Operations that the solver's kernel performs in one factor and one
    solve of system, counted over CountingFloat."""
    kernel = SOLVERS[solver].kernel
    tally = [0]

    def counting(arr, name=None):
        return [CountingFloat(v, tally) for v in arr.tolist()]

    factors = kernel.factor(kernel_inputs(system.matrix, kernel, counting),
                            [0] * system.matrix.n, raise_breakdown)
    kernel.solve(factors, counting(system.rhs))
    return tally[0]


def verify_op_counts(n_values=(1000, 2000, 4000), k_values=(0, 5, 12),
                     seed: int = 0) -> OpCountReport:
    """Check the reported operation counts against counted ones.

    Every float solver solves one random system at each (N, K), K taking
    only 0 for the tridiagonal NTDM, by its entry point, and the kernel
    also factors and solves it over CountingFloat; the reported op_count,
    band_solvers.op_count's closed form, must equal the tally.
    """
    rng = np.random.default_rng(seed)
    checks = []
    for solver, spec in SOLVERS.items():
        if spec.exact:
            continue
        pentadiagonal = spec.kernel.shape == "pd"
        for n in n_values:
            for k in (k_values if pentadiagonal else (0,)):
                system = make_random_system(n, k, rng, kind=spec.kernel.shape)
                ops = count_ops(solver, system)
                reported = spec.entry_point()(system).op_count
                checks.append(OpCountCheck(
                    solver, f"reported op_count at N={n}, K={k}", ops,
                    reported, reported == ops))
    return OpCountReport(checks)


# ---------------------------------------------------------------------------
# manufactured-solution convergence study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form reference solution u(r, t) and the matching volumetric
    source obtained by substituting u into the governing balance."""

    u: object          # callable (r, t) -> temperature
    source: object     # callable (r, t) -> source density
    description: str = ""


def manufactured_single_layer(lam=2.0, rho_c=1.0, r_min=1.0, r_max=2.0,
                              rate=3.0, u0=1.0):
    """Single-layer case: u = u0 + rate*t*(r-A)^2*(B-r)^2.

    The radial derivative vanishes at both walls, so the homogeneous
    Neumann rows are satisfied exactly; u is linear in time, so backward
    differencing is exact and the measured error is purely spatial.
    Returns (layers, materials, ManufacturedSolution); scale the layer cell
    counts for refinement.
    """
    A, B = r_min, r_max

    def g(r):
        return (r - A) ** 2 * (B - r) ** 2

    def gp(r):
        return 2 * (r - A) * (B - r) ** 2 - 2 * (r - A) ** 2 * (B - r)

    def gpp(r):
        return 2 * (B - r) ** 2 - 8 * (r - A) * (B - r) + 2 * (r - A) ** 2

    def u(r, t):
        return u0 + rate * t * g(r)

    def source(r, t):
        return rho_c * rate * g(r) - lam * rate * t * (gpp(r) + gp(r) / r)

    layers = [LayerSpec(A, B, "m", 8)]
    materials = {"m": MaterialModel(Polynomial((rho_c,)), Polynomial((1,)),
                                    Polynomial((lam,)))}
    return layers, materials, ManufacturedSolution(
        u, source, "single layer, constant conductivity, quartic profile")


def manufactured_two_layer(lam1=1.0, lam2=4.0, rho_c1=1.0, rho_c2=2.0,
                           r_min=1.0, r_mid=1.5, r_max=2.0, slope=2.0, u0=1.0):
    """Two-layer case with a nonzero interface flux.

    Per-layer cubic profiles u = u0 + t*q_m(r) with q1'(A) = 0, q2'(B) = 0,
    continuous temperature at the interface and lam1*q1' = lam2*q2' there,
    so the ideal-contact rows are consistent.  Returns (layers, materials,
    ManufacturedSolution).
    """
    A, M, B = r_min, r_mid, r_max
    s1 = slope
    s2 = lam1 * s1 / lam2

    def q1(r):
        return s1 * (r - A) ** 3 / (3 * (M - A) ** 2)

    def q2(r):
        return (q1(M) + s2 * (B - M) / 3
                - s2 * (B - r) ** 3 / (3 * (B - M) ** 2))

    def u(r, t):
        return u0 + t * (q1(r) if r <= M else q2(r))

    def source(r, t):
        if r <= M:
            lap = s1 * (r - A) * (3 * r - A) / (r * (M - A) ** 2)
            return rho_c1 * q1(r) - lam1 * t * lap
        lap = s2 * (B - r) * (B - 3 * r) / (r * (B - M) ** 2)
        return rho_c2 * q2(r) - lam2 * t * lap

    layers = [LayerSpec(A, M, "left", 8), LayerSpec(M, B, "right", 8)]
    materials = {
        "left": MaterialModel(Polynomial((rho_c1,)), Polynomial((1,)),
                              Polynomial((lam1,))),
        "right": MaterialModel(Polynomial((rho_c2,)), Polynomial((1,)),
                               Polynomial((lam2,))),
    }
    return layers, materials, ManufacturedSolution(
        u, source, "two layers, conductivity jump, nonzero interface flux")


@dataclass
class ConvergenceReport:
    """Errors and order estimates from one refinement sequence."""

    description: str
    h_values: list[float]
    errors: list[float]
    pair_orders: list[float]
    observed_order: float | None
    monotone: bool

    @property
    def inconclusive(self) -> bool:
        return not self.monotone or self.observed_order is None

    def lines(self) -> list[str]:
        out = [f"convergence study: {self.description}"]
        for i, (h, e) in enumerate(zip(self.h_values, self.errors)):
            order = f"  p={self.pair_orders[i - 1]:.3f}" if i else ""
            out.append(f"  h={h:.6e}  err={e:.6e}{order}")
        if self.observed_order is None:
            out.append("  observed order: inconclusive (non-monotone errors)")
        else:
            tag = " (non-monotone; estimate unreliable)" if not self.monotone else ""
            out.append(f"  observed order: {self.observed_order:.3f}{tag}")
        return out


def convergence_study(layers, materials, solution: ManufacturedSolution,
                      cells_factors=(1, 2, 4, 8),
                      t_final: float = 0.5) -> ConvergenceReport:
    """Refine each layer's cells by cells_factors, step to t_final by NTDM
    without a shift, with tau ~ h^2, and report the observed spatial order
    against the manufactured solution.  A non-monotone error sequence
    yields an inconclusive report, not an error.
    """
    h_values = []
    errors = []
    for factor in cells_factors:
        mesh = build_mesh([
            LayerSpec(l.r_start, l.r_end, l.material_id, l.cells * factor)
            for l in layers
        ])
        steps = STUDY_STEPS * factor * factor
        tau = t_final / steps
        cfg = StepConfig(tau=tau, solver_id="NTDM", shift_mode="none")
        radii = [float(r) for r in mesh.nodes.tolist()]
        u0 = TemperatureField(
            np.asarray([solution.u(r, 0.0) for r in radii], dtype=np.float64), 0.0)
        trajectory = run(mesh, materials, u0, cfg, steps, source=solution.source)
        final = trajectory[-1]
        reference = np.asarray([solution.u(r, final.time) for r in radii],
                               dtype=np.float64)
        errors.append(float(np.max(np.abs(final.values - reference))))
        h_values.append(float(max(mesh.steps.tolist())))

    pair_orders = []
    for (h1, e1), (h2, e2) in zip(zip(h_values, errors), zip(h_values[1:], errors[1:])):
        if e1 > 0 and e2 > 0 and h1 != h2:
            pair_orders.append(math.log(e1 / e2) / math.log(h1 / h2))
        else:
            pair_orders.append(float("nan"))
    monotone = all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))
    observed = None
    if all(e > 0 for e in errors) and len(set(h_values)) > 1:
        observed = float(np.polyfit(np.log(h_values), np.log(errors), 1)[0])
    return ConvergenceReport(solution.description, h_values, errors,
                             pair_orders, observed, monotone)


# ---------------------------------------------------------------------------
# result emission
# ---------------------------------------------------------------------------

def _fmt_err(err) -> str:
    if err is None:
        return ""
    if isinstance(err, float):
        return repr(float(err))
    return str(err)  # exact scalars print exactly ("0")


def emit(results: list[BenchRow], path=None,
         metadata: dict | None = None) -> None:
    """Write results as CSV (columns N,solver,wall_s,op_count,err_inf) and
    print an aligned table; optional metadata goes to <path>.meta.json.

    Reruns with the same seed produce identical files except for the
    wall-clock column.
    """
    if not results:
        raise ValueError("emit needs a nonempty result list")

    header = ("N", "solver", "path", "wall_s", "op_count", "err_inf", "note")
    table = [header]
    for row in results:
        table.append((str(row.n), row.solver, row.path, f"{row.wall_s:.6f}",
                      "" if row.op_count is None else str(row.op_count),
                      _fmt_err(row.err_inf), row.note))
    widths = [max(len(r[j]) for r in table) for j in range(len(header))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())

    if path is not None:
        path = Path(path)
        lines = ["N,solver,wall_s,op_count,err_inf"]
        for row in results:
            lines.append(",".join((
                str(row.n), row.solver, f"{row.wall_s:.6f}",
                "" if row.op_count is None else str(row.op_count),
                _fmt_err(row.err_inf),
            )))
        path.write_text("\n".join(lines) + "\n")
        if metadata is not None:
            meta = dict(metadata)
            meta.setdefault("host", platform.platform())
            meta.update(native.thomas_twin().describe())
            Path(str(path) + ".meta.json").write_text(
                json.dumps(meta, indent=2, sort_keys=True, default=str) + "\n")
