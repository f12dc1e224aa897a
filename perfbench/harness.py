"""Closed-loop runner, metrics and reporting for the benchmark.

One process, one thread, one caller: each operation starts when the previous
one has returned and been checked.  Set-up is repeated and timed on its own;
the timed loop repeats whole rounds of a workload's operations until the
operations have been busy for ``--seconds``.  An untraced run reports the
end-to-end metrics.  A traced run sets up once more under the span tracer and
then runs every operation twice, untraced and traced in turn; it reports the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

from radialheat.assembly import PentaMatrix
from radialheat.time_stepper import NonConvergenceError

from .tracer import EntryPoint, Tracer
from .workloads import WORKLOADS, Op, Outcome, op_count_ok

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

#: Set-up is repeated at least this often, and until this much time is spent.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 100

#: Fewest samples a reported tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: Length of the reference sweep timed between ops and set-ups.
REFERENCE_N = 24_000
_REFERENCE_X = np.linspace(1.0, 2.0, REFERENCE_N)

#: setup_s is in seconds at the speed at which the reference sweep takes this
#: long, which is about its time on an unloaded core.
REFERENCE_S = 0.010

END_TO_END = {
    "setup_s": "s", "round_ref": "ref", "ok_frac": "frac", "peak_rss_mb": "MB",
}

BAND_SOLVERS = ("NPDM", "MNPDM", "NTDM")
EXACT_SOLVERS = ("SPDM", "STDM")
SHARE_GROUPS = ("assembly", "conditioning", "band_solvers", "exact_solvers",
                "time_stepper")


def _solver_observe(args, kwargs, report):
    m = args[0].matrix
    k = len(m.full_rows) - 2 if isinstance(m, PentaMatrix) else len(m.contact_rows)
    return {"n": m.n, "k": k, "op_count": report.op_count,
            "residual_inf": float(report.residual_inf)}


def _exact_observe(args, kwargs, x):
    return {"n": len(x), "max_den_bits": max(
        Fraction(v).denominator.bit_length() for v in x)}


ENTRY_POINTS = (
    EntryPoint("radialheat.mesh", "build_mesh", "mesh.build_mesh"),
    EntryPoint("radialheat.assembly", "assemble_system", "assembly.assemble_system",
               lambda a, kw, r: {"n": a[0].n}),
    EntryPoint("radialheat.assembly", "contact_conductivities",
               "assembly.contact_conductivities"),
    EntryPoint("radialheat.conditioning", "pd_to_td", "conditioning.pd_to_td"),
    EntryPoint("radialheat.conditioning", "build_pd_shift",
               "conditioning.build_pd_shift",
               lambda a, kw, r: {"extended_rows": len(r.extended_rows)}),
    EntryPoint("radialheat.conditioning", "build_td_shift",
               "conditioning.build_td_shift",
               lambda a, kw, r: {"extended_rows": len(r.extended_rows)}),
    EntryPoint("radialheat.band_solvers", "solve_pd_lu", "band_solvers.NPDM",
               _solver_observe),
    EntryPoint("radialheat.band_solvers", "solve_pd_modified", "band_solvers.MNPDM",
               _solver_observe),
    EntryPoint("radialheat.band_solvers", "solve_td_thomas", "band_solvers.NTDM",
               _solver_observe),
    EntryPoint("radialheat.exact_solvers", "exact_solve_pd", "exact_solvers.SPDM",
               _exact_observe),
    EntryPoint("radialheat.exact_solvers", "exact_solve_td", "exact_solvers.STDM",
               _exact_observe),
    EntryPoint("radialheat.time_stepper", "advance", "time_stepper.advance",
               lambda a, kw, r: {"passes": r[1]}),
)


_UNIT_BY_SUFFIX = (("_s", "s"), ("ns_per_node", "ns"), ("_frac", "frac"),
                   ("op_share", "frac"), ("max_den_bits", "bits"),
                   ("err_inf", "abs"), ("residual_inf", "abs"),
                   ("residual_rel", "rel"))


def per_layer_unit(name: str) -> str:
    return next((unit for suffix, unit in _UNIT_BY_SUFFIX
                 if name.endswith(suffix)), "count")


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

@dataclass
class Record:
    op: Op
    seconds: float
    outcome: Outcome
    ref_seconds: float


def reference_s() -> float:
    """Time fixed work in the style of the program's loops (a tridiagonal
    forward sweep over float64 arrays, element by element) that calls
    nothing in radialheat.  Its time tracks only how fast the machine runs
    the interpreter at that moment."""
    t0 = perf_counter()
    x = _REFERENCE_X
    c = np.empty(REFERENCE_N)
    c[0] = x[0]
    for i in range(1, REFERENCE_N):
        c[i] = x[i] - 0.25 * x[i - 1] / c[i - 1]
    return perf_counter() - t0


def timed_setups(workload, seed: int, min_s: float):
    """Repeat the set-up, with a reference sweep after each and one before
    the first; return the last product and, for every set-up, its duration
    and the mean duration of the sweeps just before and after it."""
    setups = []
    prepared = None
    ref = reference_s()
    while len(setups) < SETUP_MIN_REPS or (
            sum(t for t, _ in setups) < min_s and len(setups) < SETUP_MAX_REPS):
        prepared = None
        t0 = perf_counter()
        prepared = workload.setup(seed)
        dt = perf_counter() - t0
        ref_after = reference_s()
        setups.append((dt, (ref + ref_after) / 2))
        ref = ref_after
    return prepared, setups


def run_op(op: Op, ref_before: float,
           tracer: Tracer | None = None) -> tuple[Record, float]:
    """Time one op (under an "op" span when traced) and the reference sweep
    after it, then check the op.  The record keeps the mean of the sweeps
    just before and just after the op; the sweep after is returned, to be
    the sweep before the next op."""
    t0 = perf_counter()
    with tracer.span("op") if tracer else nullcontext():
        try:
            result = op.run()
        except NonConvergenceError as exc:
            result = exc
    dt = perf_counter() - t0
    ref_after = reference_s()
    if isinstance(result, NonConvergenceError):
        outcome = Outcome("nonconverged",
                          detail={"last_diff": float(result.last_diff)})
    else:
        outcome = op.check(result)
    return Record(op, dt, outcome, (ref_before + ref_after) / 2), ref_after


def _busy(records: list[Record]) -> float:
    return sum(r.seconds for r in records)


def closed_loop(round_ops: list[Op], seconds: float) -> list[Record]:
    """Repeat whole rounds until the ops were busy for `seconds`; at least
    one round always runs."""
    records = []
    ref = reference_s()
    while not records or _busy(records) < seconds:
        for op in round_ops:
            record, ref = run_op(op, ref)
            records.append(record)
    return records


def paired_loop(plain_ops: list[Op], traced_ops: list[Op], seconds: float,
                tracer: Tracer) -> tuple[list[Record], list[Record]]:
    """Run each op untraced and then its twin traced, in whole rounds, until
    both together were busy for `seconds`.  Alternating op by op puts both
    sides under the same machine load, so their ratio is the tracing cost."""
    plain, traced = [], []
    ref = reference_s()
    while not traced or _busy(plain) + _busy(traced) < seconds:
        for plain_op, traced_op in zip(plain_ops, traced_ops):
            record, ref = run_op(plain_op, ref)
            plain.append(record)
            with tracer.installed(ENTRY_POINTS):
                record, ref = run_op(traced_op, ref, tracer)
            traced.append(record)
    return plain, traced


def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it
    (nearest rank); the median when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    pct = (100 * (n - TAIL_BEYOND)) // n if n > TAIL_BEYOND else 50
    rank = max(1, -(-pct * n // 100))
    return pct, xs[rank - 1]


def _max_or_zero(values) -> float:
    values = [v for v in values if v is not None]
    return max(values) if values else 0.0


def end_to_end(records: list[Record],
               setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """round_ref is the time of one round of ops in units of the reference
    sweep: for each op of the round, the median over its repeats of its time
    divided by the mean time of the sweeps just before and after it, summed.
    setup_s is the median over set-ups of set-up time per mean sweep time,
    in units of REFERENCE_S.  The plain timings (set-up median, node_rate,
    op median and tail) go in the detail."""
    durations = [r.seconds for r in records]
    ok = [r for r in records if r.outcome.status == "ok"]
    by_label: dict[str, list[Record]] = {}
    for r in records:
        by_label.setdefault(r.op.label, []).append(r)
    pct, tail_s = tail(durations)
    metrics = {
        "setup_s": REFERENCE_S * statistics.median(t / ref for t, ref in setups),
        "round_ref": sum(statistics.median(r.seconds / r.ref_seconds for r in rs)
                         for rs in by_label.values()),
        "ok_frac": len(ok) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "node_rate": sum(r.op.nodes for r in ok) / sum(durations),
        "op_p50_s": statistics.median(durations), "op_tail_s": tail_s,
        "op_tail_percentile": pct, "op_samples": len(records),
        "reference_p50_s": statistics.median(r.ref_seconds for r in records),
        "setup_reps": len(setups),
        "setup_p50_s": statistics.median(t for t, _ in setups),
        "fail_frac": 1 - len(ok) / len(records),
        "nonconverged": sum(r.outcome.status == "nonconverged" for r in records),
        "wrong": sum(r.outcome.status == "wrong" for r in records),
        "err_inf": _max_or_zero(r.outcome.err_inf for r in records),
        "residual_rel": _max_or_zero(r.outcome.residual_rel for r in records),
    }
    return metrics, detail


def tau_table(records: list[Record], round_len: int) -> list[dict]:
    """One row per (mode, tau/h^2) from the first round of `shifted`."""
    rows = []
    for r in records[:round_len]:
        converged = r.outcome.status != "nonconverged"
        rows.append({
            "mode": r.op.meta["mode"], "solver": r.op.meta["solver"],
            "tau_over_h2": r.op.meta["tau_over_h2"],
            "passes": (r.outcome.detail["passes"] if converged
                       else r.op.meta["max_picard"]),
            "converged": converged,
            "last_diff": r.outcome.detail.get("last_diff"),
            "residual_rel": r.outcome.residual_rel,
            "seconds": r.seconds,
        })
    return rows


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def lapack_solve_banded_s(system) -> float:
    """Median time of 7 scipy (2,2) banded solves; 0.0 without scipy."""
    try:
        from scipy.linalg import solve_banded
    except ImportError:
        return 0.0
    m = system.matrix
    n = m.n
    ab = np.zeros((5, n))
    ab[0, 2:] = m.d2p[:-2]
    ab[1, 1:] = m.d1p[:-1]
    ab[2] = m.d0
    ab[3, :-1] = m.d1m[1:]
    ab[4, :-2] = m.d2m[2:]
    rhs = np.asarray(system.rhs, dtype=np.float64)
    times = []
    for _ in range(7):
        t0 = perf_counter()
        solve_banded((2, 2), ab, rhs)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(tracer: Tracer, n_ops: int, n_rounds: int) -> tuple[dict, int]:
    """Per-layer metrics from the spans of one traced set-up and n_ops timed
    ops in n_rounds rounds; also returns the number of solver calls off their
    op-count law."""
    spans = tracer.spans
    self_t = tracer.self_times()
    in_op = [spans[tracer.root_of(i)].name == "op" for i in range(len(spans))]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def mean_self(name):
        idx = by_name.get(name, [])
        return sum(self_t[i] for i in idx) / len(idx) if idx else 0.0

    def ns_per_node(name):
        idx = by_name.get(name, [])
        return (1e9 * sum(self_t[i] / spans[i].info["n"] for i in idx) / len(idx)
                if idx else 0.0)

    def info_max(name, key):
        return _max_or_zero(spans[i].info.get(key) for i in by_name.get(name, []))

    out = {
        "mesh.build_mesh_s": mean_self("mesh.build_mesh"),
        "assembly.assemble_system_s": mean_self("assembly.assemble_system"),
        "assembly.assemble_system_calls": sum(
            in_op[i] for i in by_name.get("assembly.assemble_system", [])) / n_ops,
        "assembly.ns_per_node": ns_per_node("assembly.assemble_system"),
        "assembly.contact_conductivities_s": mean_self("assembly.contact_conductivities"),
        "conditioning.pd_to_td_s": mean_self("conditioning.pd_to_td"),
        "conditioning.build_pd_shift_s": mean_self("conditioning.build_pd_shift"),
        "conditioning.build_td_shift_s": mean_self("conditioning.build_td_shift"),
        "conditioning.extended_rows": max(
            info_max("conditioning.build_pd_shift", "extended_rows"),
            info_max("conditioning.build_td_shift", "extended_rows")),
    }
    mismatches = 0
    for s in BAND_SOLVERS:
        name = f"band_solvers.{s}"
        out[f"{name}.solve_s"] = mean_self(name)
        out[f"{name}.ns_per_node"] = ns_per_node(name)
        out[f"{name}.ops"] = info_max(name, "op_count")
        out[f"{name}.residual_inf"] = info_max(name, "residual_inf")
        mismatches += sum(
            not op_count_ok(s, spans[i].info["n"], spans[i].info["k"],
                            spans[i].info["op_count"])
            for i in by_name.get(name, []) if "op_count" in spans[i].info)
    for s in EXACT_SOLVERS:
        name = f"exact_solvers.{s}"
        out[f"{name}.solve_s"] = mean_self(name)
        out[f"{name}.max_den_bits"] = info_max(name, "max_den_bits")

    advances = by_name.get("time_stepper.advance", [])
    under_advance = set(advances)
    passes = sum(spans[i].parent in under_advance
                 for i in by_name.get("assembly.assemble_system", []))
    out["time_stepper.advance_s"] = (
        sum(spans[i].duration for i in advances) / len(advances) if advances else 0.0)
    out["time_stepper.self_s"] = mean_self("time_stepper.advance")
    out["time_stepper.picard_passes"] = passes / n_rounds
    out["time_stepper.passes_per_step"] = passes / len(advances) if advances else 0.0
    out["time_stepper.nonconverged"] = sum(
        spans[i].info.get("error") == "NonConvergenceError" for i in advances)

    op_wall = sum(s.duration for s in spans if s.name == "op")
    for group in SHARE_GROUPS:
        out[f"{group}.op_share"] = sum(
            self_t[i] for i, s in enumerate(spans)
            if in_op[i] and s.name.startswith(group + ".")) / (op_wall or 1.0)
    return out, mismatches


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    return list(layer_metrics(Tracer(), 1, 1)[0]) + [
        "lapack.solve_banded_s", "trace.overhead_frac",
        "gate.fail_frac", "gate.err_inf", "gate.residual_rel"]


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the result record.

    Untraced: repeated set-ups, then the closed loop.  Traced: the same
    set-ups, one traced set-up, then the paired loop; the end-to-end figures
    of a traced run come from its untraced half.
    """
    prepared, setups = timed_setups(workload, seed, min(SETUP_MIN_S, seconds))
    round_ops = workload.ops(prepared)
    gc.collect()
    if trace:
        tracer = Tracer()
        with tracer.installed(ENTRY_POINTS), tracer.span("setup"):
            traced_prepared = workload.setup(seed)
        records, traced = paired_loop(round_ops, workload.ops(traced_prepared),
                                      seconds, tracer)
    else:
        records = closed_loop(round_ops, seconds)
    metrics, detail = end_to_end(records, setups)
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "params": workload.params(prepared),
        "setup_times": [t for t, _ in setups],
        "setup_ref_seconds": [ref for _, ref in setups],
        "rounds": len(records) // len(round_ops),
        "detail": detail, "end_to_end": metrics,
        "ops": [{"label": r.op.label, "seconds": r.seconds,
                 "ref_seconds": r.ref_seconds,
                 "status": r.outcome.status, **r.outcome.detail}
                for r in records],
    }
    if workload.name == "shifted":
        result["tau_table"] = tau_table(records, len(round_ops))
    wrong = detail["wrong"]
    failed = wrong + detail["nonconverged"]
    attempted = len(records)
    if trace:
        layers, mismatches = layer_metrics(tracer, len(traced),
                                           len(traced) // len(round_ops))
        _, traced_detail = end_to_end(traced, setups)
        layers["lapack.solve_banded_s"] = (
            lapack_solve_banded_s(prepared.pd_system)
            if workload.name == "solve" else 0.0)
        layers["trace.overhead_frac"] = _busy(traced) / _busy(records) - 1
        layers["gate.fail_frac"] = traced_detail["fail_frac"]
        layers["gate.err_inf"] = traced_detail["err_inf"]
        layers["gate.residual_rel"] = traced_detail["residual_rel"]
        result["per_layer"] = layers
        result["op_law_mismatches"] = mismatches
        result["spans"] = tracer.export()
        wrong += traced_detail["wrong"] + mismatches
        failed += traced_detail["wrong"] + traced_detail["nonconverged"] + mismatches
        attempted += len(traced)
    result["attempted"] = attempted
    result["failed"] = failed
    result["correct"] = wrong == 0
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy_version, "git_commit": git_commit(ROOT),
        "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "seed": seed,
    }


def git_commit(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def summary_lines(result: dict) -> list[str]:
    w = result["workload"]
    d = result["detail"]
    lines = [f"[{w}] seed={result['seed']} params={result['params']} "
             f"rounds={result['rounds']} ops={d['op_samples']}"]
    for name, value in result["end_to_end"].items():
        lines.append(f"[{w}] {name} = {value:.6g} {END_TO_END[name]}")
    lines.append(f"[{w}] setup_s is the median of {d['setup_reps']} set-ups at "
                 f"{REFERENCE_S:g} s per sweep; plain median {d['setup_p50_s']:.6g} s; "
                 f"reference sweep median {d['reference_p50_s']:.6g} s")
    lines.append(f"[{w}] node_rate = {d['node_rate']:.6g} nodes/s; op_p50_s = "
                 f"{d['op_p50_s']:.6g} s; op_tail_s = {d['op_tail_s']:.6g} s "
                 f"(p{d['op_tail_percentile']} of {d['op_samples']} ops)")
    lines.append(f"[{w}] fail_frac = {d['fail_frac']:.6g} "
                 f"(nonconverged {d['nonconverged']}, wrong {d['wrong']}); "
                 f"err_inf = {d['err_inf']:.3g}; residual_rel = {d['residual_rel']:.3g}")
    for row in result.get("tau_table", []):
        lines.append(f"[{w}] tau-sweep {row['mode']}/{row['solver']} "
                     f"tau={row['tau_over_h2']:g}h^2 passes={row['passes']} "
                     f"converged={row['converged']} last_diff={row['last_diff']} "
                     f"residual_rel={row['residual_rel']}")
    for name, value in result.get("per_layer", {}).items():
        lines.append(f"[{w}] {name} = {value:.6g} {per_layer_unit(name)}")
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="radialheat benchmark: closed loop, one process, one thread")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args.seed)
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name](), args.seed, args.seconds,
                              bool(args.trace))
        result["env"] = env
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1, default=str) + "\n")
        for line in summary_lines(result):
            print(line)
        print(f"[{name}] result file: {path.relative_to(ROOT)}")
        results.append(result)

    key = "per_layer" if args.trace else "end_to_end"
    units = per_layer_unit if args.trace else END_TO_END.__getitem__
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "/"
        for name, value in result[key].items():
            metrics[prefix + name] = {"value": value, "unit": units(name)}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1
