"""Command-line harness: bench, verify-counts, converge, simulate.

Exit code 0 on success; nonzero when a verification fails (op counts,
convergence orders) or an error aborts the run.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import native
from .band_solvers import SOLVERS, BreakdownError
from .bench import (BenchScenario, ScenarioError, bench, convergence_study,
                    emit, manufactured_single_layer, manufactured_two_layer,
                    verify_op_counts)
from .conditioning import ReductionBreakdownError
from .config import load_config
from .exact_solvers import SingularMatrixError
from .materials import MaterialDomainError
from .mesh import build_mesh
from .time_stepper import (SHIFT_MODES, NonConvergenceError, StepConfig,
                           TemperatureField, advance)

#: Run-time failures of a time step that `simulate` reports in one line.
_STEP_ERRORS = (NonConvergenceError, BreakdownError, ReductionBreakdownError,
                MaterialDomainError, SingularMatrixError)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _solver_list(text: str) -> tuple[str, ...]:
    solvers = tuple(tok.strip().upper() for tok in text.replace(",", " ").split())
    for s in solvers:
        if s not in SOLVERS:
            raise argparse.ArgumentTypeError(
                f"unknown solver {s!r} (choose from {', '.join(SOLVERS)})")
    return solvers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radialheat",
        description="Banded-solver benchmarks and simulations for radial "
                    "heat conduction in multilayer cylinders.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="time and verify the five solvers")
    p.add_argument("--n", type=_int_list, default=BenchScenario.n_values,
                   help="comma-separated problem sizes")
    p.add_argument("--k", type=int, default=BenchScenario.k,
                   help="number of contact rows")
    p.add_argument("--solvers", type=_solver_list, default=BenchScenario.solvers)
    p.add_argument("--reps", type=int, default=BenchScenario.repetitions)
    p.add_argument("--seed", type=int, default=BenchScenario.seed)
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--exact-cap", type=int, default=BenchScenario.exact_cap,
                   help="largest N the exact solvers are scheduled for "
                        "(one SPDM solve takes about 0.04 s at N = 1e3 and "
                        "0.4-0.6 s at N = 1e4)")
    p.add_argument("--allow-huge", action="store_true",
                   help="permit N beyond 1e7 (several GB of memory)")

    p = sub.add_parser("verify-counts",
                       help="check the reported operation counts against "
                            "counted ones")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("converge",
                       help="manufactured-solution order verification on a "
                            "one-layer and a two-layer cylinder")
    p.add_argument("--levels", type=int, default=4,
                   help="number of mesh refinements (factors 1,2,4,...)")
    p.add_argument("--t-final", type=float, default=0.5)

    p = sub.add_parser("simulate", help="time-step a configured problem")
    p.add_argument("--config", required=True,
                   help="layer/material configuration file")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--u0", type=float, default=1.0,
                   help="uniform initial temperature")
    p.add_argument("--solver", default=StepConfig.solver_id,
                   choices=[s for s, spec in SOLVERS.items() if not spec.exact])
    p.add_argument("--shift", default=StepConfig.shift_mode, choices=SHIFT_MODES,
                   help="corrected: solve the unshifted system exactly "
                        "through the dominance shift; pd, td: the paper's "
                        "shifted fixed point, Anderson-accelerated; none: "
                        "the raw system")
    p.add_argument("--picard-tol", type=float, default=StepConfig.picard_tol,
                   help="stop once the sup-norm update is at most this "
                        "times the sup norm of the iterate")
    p.add_argument("--max-picard", type=int, default=StepConfig.max_picard,
                   help="iteration cap; the pd and td shifts solve a fixed "
                        "point and need more iterations than the other "
                        "modes")
    p.add_argument("--out", default=None,
                   help="write the final profile as CSV (r,u)")
    return parser


def _cmd_bench(args) -> int:
    try:
        scenario = BenchScenario(
            n_values=args.n, k=args.k, solvers=args.solvers,
            repetitions=args.reps, seed=args.seed, exact_cap=args.exact_cap,
            allow_huge=args.allow_huge)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = bench(scenario)
    emit(rows, args.out, metadata={
        "seed": args.seed, "k": args.k, "n_values": list(args.n),
        "solvers": list(args.solvers), "repetitions": args.reps,
    } if args.out else None)
    return 0


def _cmd_verify_counts(args) -> int:
    report = verify_op_counts(seed=args.seed)
    for line in report.lines():
        print(line)
    print("float NTDM kernel:", *native.thomas_twin().describe().values())
    print("operation-count verification:",
          "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_converge(args) -> int:
    factors = tuple(2**i for i in range(args.levels))
    ok = True
    for builder in (manufactured_single_layer, manufactured_two_layer):
        layers, materials, solution = builder()
        report = convergence_study(layers, materials, solution,
                                   cells_factors=factors,
                                   t_final=args.t_final)
        for line in report.lines():
            print(line)
        passed = (report.observed_order is not None
                  and report.observed_order >= 1.9)
        print("  second-order check:", "PASS" if passed else "FAIL")
        ok = ok and passed
    return 0 if ok else 1


def _cmd_simulate(args) -> int:
    try:
        layers, materials = load_config(args.config)
        mesh = build_mesh(layers)
    except (OSError, ValueError) as exc:  # ConfigError and the mesh errors
        print(f"error: loading {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.steps < 1:
            raise ValueError(f"--steps must be >= 1, got {args.steps}")
        cfg = StepConfig(tau=args.tau, picard_tol=args.picard_tol,
                         max_picard=args.max_picard, solver_id=args.solver,
                         shift_mode=args.shift)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    final = TemperatureField(np.full(mesh.n, args.u0, dtype=np.float64), 0.0)
    for step in range(1, args.steps + 1):
        try:
            final, _ = advance(mesh, materials, final, cfg)
        except _STEP_ERRORS as exc:
            print(f"error: step {step} (t={final.time + args.tau:g}): "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    radii = mesh.nodes.tolist()
    values = final.values.tolist()
    print(f"simulated {args.steps} steps of tau={args.tau} "
          f"({args.solver}, shift={args.shift}); t={final.time:g}")
    print(f"  u range: [{min(values):.6g}, {max(values):.6g}]")
    if args.out:
        lines = ["r,u"] + [f"{r!r},{v!r}" for r, v in zip(radii, values)]
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"  wrote {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "bench": _cmd_bench,
        "verify-counts": _cmd_verify_counts,
        "converge": _cmd_converge,
        "simulate": _cmd_simulate,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
