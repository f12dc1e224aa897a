"""The benchmark's workloads, driven from outside through radialheat's
public functions.

A workload has a set-up (mesh, assembly, shift or reduction, exact
conversion), timed on its own, and a round of operations that the closed loop
repeats.  Operations and set-ups call layer functions through their module
(``band_solvers.solve_pd_lu``, ``time_stepper.advance``), where a traced run
rebinds them.

Why each workload exists, and which layers it stresses, is written down in
README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import radialheat.mesh
from radialheat import band_solvers, exact_solvers, time_stepper
from radialheat.assembly import assemble_system
from radialheat.bench import build_bench_case, constructed_profile, default_layers
from radialheat.materials import MaterialModel, Polynomial
from radialheat.time_stepper import StepConfig, TemperatureField

#: Nonlinear cylinder of the time-stepping workloads.  default_layers
#: alternates "a" and "b" layers; rho = cv = 1 in both.
MATERIALS = {
    "a": MaterialModel(Polynomial((1,)), Polynomial((1,)), Polynomial((1, 0.5))),
    "b": MaterialModel(Polynomial((1,)), Polynomial((1,)), Polynomial((3,)),
                       Polynomial((1,))),
}

#: Contact rows of every workload: 12 layers.
K = 11

#: Gate on max |x - y_bar| of a float solve (observed about 1e-15 at N = 1e5).
ERR_BOUND = 1e-10

#: Gate on ||A(u)u - b(u)||inf / ||b||inf at an accepted step (observed about
#: 1.4e-10 for `transient`, whose picard_tol is 1e-10, and 1e-15 for the
#: converged `shifted` steps).
RESIDUAL_BOUND = 1e-8

#: Closed-form operation counts at N nodes and K contact rows.
OP_LAWS = {
    "NPDM": lambda n, k: 19 * n - 29,
    "MNPDM": lambda n, k: 13 * n + 7 * k - 8,
    "NTDM": lambda n, k: 9 * n - 8,
}


def op_count_ok(solver: str, n: int, k: int, count: int) -> bool:
    return count == OP_LAWS[solver](n, k)


@dataclass
class Outcome:
    """What one operation produced.  status is "ok", "nonconverged" (the
    program raised NonConvergenceError) or "wrong" (a gate failed)."""

    status: str
    err_inf: float | None = None
    residual_rel: float | None = None
    detail: dict = field(default_factory=dict)


@dataclass
class Op:
    label: str
    nodes: int
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    meta: dict = field(default_factory=dict)


def step_outcome(mesh, result, u_prev: TemperatureField, tau) -> Outcome:
    """Gate one accepted time step on the relative residual of the unshifted
    system reassembled at the new field."""
    field_new, passes = result
    u = field_new.values
    system = assemble_system(mesh, MATERIALS, u, u_prev.values, tau)
    res = float(np.max(np.abs(system.matrix.matvec(u) - system.rhs))
                / np.max(np.abs(system.rhs)))
    return Outcome("ok" if res <= RESIDUAL_BOUND else "wrong",
                   residual_rel=res, detail={"passes": passes})


class Solve:
    """Float bench systems solved round-robin by NPDM, MNPDM and NTDM."""

    name = "solve"

    def __init__(self, n: int = 100_000):
        self.n = n

    def setup(self, seed: int):
        return build_bench_case(self.n, K, seed)

    def params(self, case) -> dict:
        return {"N": case.mesh.n, "K": case.mesh.k,
                "tau": float(min(case.mesh.steps)) ** 2 / 100}

    def ops(self, case) -> list[Op]:
        n, k = case.mesh.n, case.mesh.k

        def solve_op(solver, attr, system):
            def run():
                return getattr(band_solvers, attr)(system)

            def check(report):
                err = float(np.max(np.abs(report.solution - case.y_bar)))
                law = OP_LAWS[solver](n, k)
                ok = err <= ERR_BOUND and report.op_count == law
                return Outcome("ok" if ok else "wrong", err_inf=err,
                               detail={"op_count": report.op_count, "law": law})
            return Op(solver, n, run, check)

        return [solve_op("NPDM", "solve_pd_lu", case.pd_system),
                solve_op("MNPDM", "solve_pd_modified", case.pd_system),
                solve_op("NTDM", "solve_td_thomas", case.td_system)]


class Exact:
    """Exact bench systems solved alternately by SPDM and STDM."""

    name = "exact"

    def __init__(self, n: int = 1000):
        self.n = n

    def setup(self, seed: int):
        return build_bench_case(self.n, K, seed, exact=True)

    def params(self, case) -> dict:
        return {"N": case.mesh.n, "K": case.mesh.k,
                "tau": str(min(case.mesh.steps.tolist()) ** 2 / 100)}

    def ops(self, case) -> list[Op]:
        y_bar = case.y_bar.tolist()

        def solve_op(solver, attr, system):
            def run():
                return getattr(exact_solvers, attr)(system)

            def check(x):
                err = max(abs(a - b) for a, b in zip(x, y_bar))
                ok = len(x) == len(y_bar) and err == 0
                return Outcome("ok" if ok else "wrong", err_inf=float(err))
            return Op(solver, case.mesh.n, run, check)

        return [solve_op("SPDM", "exact_solve_pd", case.pd_system),
                solve_op("STDM", "exact_solve_td", case.td_system)]


#: Rise of the seeded initial field of the time-stepping workloads.
RISE = 0.15625


def _cylinder(n: int, seed: int):
    """Mesh and seeded initial field 1 + RISE * q, where q is the bench
    profile's rise scaled to end at 1: the seed sets the field's shape, not
    its height.  The profile's own rise, which the seed sets between 1/8 and
    7/8, decides the Picard pass count; at a quarter of it a `transient` step
    takes 3 or 4 passes depending on the seed.  At this height every seed
    takes 4."""
    mesh = radialheat.mesh.build_mesh(default_layers(n, K))
    rise = constructed_profile(mesh, seed) - 1
    return mesh, TemperatureField(1 + RISE * rise / rise.max())


class Transient:
    """NTDM steps without a shift on the nonlinear cylinder.  A round is
    STEPS consecutive steps from the seeded field: each op advances the state
    the previous op produced, and the first op of a round starts again from
    the seeded field, so every round does the same work."""

    name = "transient"
    CFG = StepConfig(tau=1e-3, picard_tol=1e-10, solver_id="NTDM",
                     shift_mode="none")
    STEPS = 5

    def __init__(self, n: int = 10_000):
        self.n = n

    def setup(self, seed: int):
        return _cylinder(self.n, seed)

    def params(self, prepared) -> dict:
        mesh, _ = prepared
        return {"N": mesh.n, "K": mesh.k, "tau": self.CFG.tau,
                "picard_tol": self.CFG.picard_tol, "steps_per_round": self.STEPS}

    def ops(self, prepared) -> list[Op]:
        mesh, u0 = prepared
        state = {"u": u0}

        def step_op(step):
            def run():
                if step == 1:
                    state["u"] = u0
                return time_stepper.advance(mesh, MATERIALS, state["u"], self.CFG)

            def check(result):
                outcome = step_outcome(mesh, result, state["u"], self.CFG.tau)
                state["u"] = result[0]
                return outcome
            return Op(f"advance step {step}", mesh.n, run, check)

        return [step_op(step) for step in range(1, self.STEPS + 1)]


class Shifted:
    """The paper's fixed-point shift modes over a tau sweep, every op
    stepping once from the same seeded state with StepConfig's default
    picard_tol and max_picard."""

    name = "shifted"
    TAU_FACTORS = (1e-2, 1.0, 1e2, 1e3)
    MODES = (("pd", "MNPDM"), ("td", "NTDM"))

    def __init__(self, n: int = 1000):
        self.n = n

    def setup(self, seed: int):
        return _cylinder(self.n, seed)

    def _h2(self, mesh) -> float:
        return float(min(mesh.steps)) ** 2

    def params(self, prepared) -> dict:
        mesh, _ = prepared
        h2 = self._h2(mesh)
        return {"N": mesh.n, "K": mesh.k, "tau": [f * h2 for f in self.TAU_FACTORS],
                "tau_over_h2": list(self.TAU_FACTORS)}

    def ops(self, prepared) -> list[Op]:
        mesh, u0 = prepared
        h2 = self._h2(mesh)

        def step_op(mode, solver, factor):
            cfg = StepConfig(tau=factor * h2, solver_id=solver, shift_mode=mode)

            def run():
                return time_stepper.advance(mesh, MATERIALS, u0, cfg)

            def check(result):
                return step_outcome(mesh, result, u0, cfg.tau)
            return Op(f"{mode}/{solver} tau={factor:g}h^2", mesh.n, run, check,
                      meta={"mode": mode, "solver": solver, "tau_over_h2": factor,
                            "max_picard": cfg.max_picard})

        return [step_op(mode, solver, f)
                for mode, solver in self.MODES for f in self.TAU_FACTORS]


WORKLOADS = {w.name: w for w in (Solve, Transient, Shifted, Exact)}
