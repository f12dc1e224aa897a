"""Benchmark harness, op-count verification, convergence study, emit, CLI."""

import json
import math
from fractions import Fraction
from pathlib import Path
from statistics import median

import numpy as np
import pytest

from radialheat import (SOLVERS, BenchScenario, StepConfig, TemperatureField,
                        advance, band_solvers, bench, build_bench_case,
                        build_mesh, convergence_study, emit, load_config,
                        manufactured_single_layer, manufactured_two_layer,
                        native, run, time_stepper, verify_op_counts)
from radialheat.bench import (ScenarioError, constructed_profile, default_layers,
                              spread_contacts)
from radialheat.cli import main as cli_main
from radialheat.config import ConfigError


def test_default_layers_hit_requested_node_count():
    for n, k in ((1000, 11), (500, 3), (49, 0)):
        layers = default_layers(n, k)
        assert sum(l.cells for l in layers) == n - 1
        assert len(layers) == k + 1
        assert all(l.cells >= 4 for l in layers)


def test_scenario_validation():
    with pytest.raises(ScenarioError, match="n=20 gives fewer than 4 cells "
                                            "per layer at k=11"):
        BenchScenario(n_values=(20,), k=11)  # too small for 12 layers
    with pytest.raises(ScenarioError):
        BenchScenario(n_values=(10**8,))  # huge without the flag
    BenchScenario(n_values=(10**8,), allow_huge=True)
    with pytest.raises(ScenarioError):
        BenchScenario(n_values=(100,), solvers=("XXX",))
    with pytest.raises(ScenarioError, match="at least one size"):
        BenchScenario(n_values=())
    with pytest.raises(ScenarioError, match="one solver"):
        BenchScenario(n_values=(100,), solvers=())


def test_spread_contacts_spacing():
    for n, k in ((10, 3), (100, 5), (1000, 11)):
        contacts = spread_contacts(n, k)
        assert len(contacts) == k
        assert all(2 <= i <= n - 3 for i in contacts)
        assert all(b - a >= 2 for a, b in zip(contacts, contacts[1:]))


def test_bench_small_run_all_solvers():
    scenario = BenchScenario(n_values=(400,), k=3, repetitions=2, seed=1,
                             exact_cap=1000)
    rows = bench(scenario)
    by_solver = {r.solver: r for r in rows}
    assert set(by_solver) == {"NPDM", "MNPDM", "NTDM", "SPDM", "STDM"}
    for solver in ("NPDM", "MNPDM", "NTDM"):
        assert by_solver[solver].err_inf < 5e-15
        assert by_solver[solver].op_count is not None
    for solver in ("SPDM", "STDM"):
        assert by_solver[solver].err_inf == 0
        assert by_solver[solver].op_count is None
    assert by_solver["NPDM"].path == "pd-shift"
    assert by_solver["NTDM"].path == "td-shift"


def test_bench_exact_cap_skips():
    scenario = BenchScenario(n_values=(400,), k=3, repetitions=1,
                             solvers=("SPDM",), exact_cap=100)
    rows = bench(scenario)
    assert "skipped" in rows[0].note


def test_exact_bench_at_ten_thousand_nodes():
    # the modular solves bring N = 1e4 within a default campaign's reach
    rows = bench(BenchScenario(n_values=(10**4,), solvers=("SPDM", "STDM"),
                               repetitions=1))
    assert [r.solver for r in rows] == ["SPDM", "STDM"]
    assert all(r.err_inf == 0 for r in rows)


def test_exact_case_recovers_profile_exactly():
    case = build_bench_case(200, 3, seed=5, exact=True)
    from radialheat import exact_solve_pd, exact_solve_td
    assert exact_solve_pd(case.pd_system) == case.y_bar.tolist()
    assert exact_solve_td(case.td_system) == case.y_bar.tolist()


@pytest.mark.parametrize("exact", [False, True])
def test_constructed_profile_matches_scalar_formula(exact):
    mesh = build_mesh(default_layers(300, 3, exact))
    rng = np.random.default_rng(7)
    c1 = Fraction(int(rng.integers(1, 8)), 16)
    c2 = Fraction(int(rng.integers(1, 8)), 16)
    if not exact:
        c1, c2 = float(c1), float(c2)
    r_min = mesh.r_min
    expected = [1 + c1 * (r - r_min) + c2 * (r - r_min) * (r - r_min)
                for r in mesh.nodes.tolist()]
    y_bar = constructed_profile(mesh, 7)
    if exact:
        assert y_bar.dtype == object
        assert y_bar.tolist() == expected
        assert all(type(v) is Fraction for v in y_bar.tolist())
    else:
        assert y_bar.tobytes() == np.asarray(expected, dtype=np.float64).tobytes()


def test_verify_op_counts_passes_with_exact_slopes():
    # the tallies sit on the laws at every (N, K), constants included
    n_values, k_values = (200, 400, 800), (0, 2, 5)
    report = verify_op_counts(n_values=n_values, k_values=k_values)
    assert report.passed
    laws = {"NPDM": lambda n, k: 19 * n - 29,
            "MNPDM": lambda n, k: 13 * n + 7 * k - 8,
            "NTDM": lambda n, k: 9 * n - 8}
    expected = sorted((solver, f"reported op_count at N={n}, K={k}", law(n, k))
                      for solver, law in laws.items() for n in n_values
                      for k in (k_values if solver != "NTDM" else (0,)))
    assert sorted((c.solver, c.quantity, c.expected)
                  for c in report.checks) == expected


@pytest.mark.parametrize("kernel", ["LU", "MODIFIED", "THOMAS"])
def test_verify_op_counts_fails_on_a_wrong_closed_form(monkeypatch, kernel):
    # the reported counts are held to counted ones, never to themselves
    closed_form = band_solvers.op_count

    def off_by_one(k, matrix):
        return closed_form(k, matrix) + (k.name == kernel)

    monkeypatch.setattr(band_solvers, "op_count", off_by_one)
    report = verify_op_counts(n_values=(50, 100), k_values=(0, 3))
    assert not report.passed
    failed = {c.solver for c in report.checks if not c.passed}
    assert failed == {s for s, spec in SOLVERS.items()
                      if spec.kernel.name == kernel and not spec.exact}
    assert all(c.quantity.startswith("reported op_count")
               for c in report.checks if not c.passed)


def test_emit_writes_csv_and_metadata(tmp_path, capsys):
    scenario = BenchScenario(n_values=(200,), k=2, repetitions=1,
                             solvers=("NTDM",))
    rows = bench(scenario)
    out = tmp_path / "bench.csv"
    emit(rows, out, metadata={"seed": 0})
    printed = capsys.readouterr().out
    assert "NTDM" in printed
    text = out.read_text().splitlines()
    assert text[0] == "N,solver,wall_s,op_count,err_inf"
    assert text[1].startswith("200,NTDM,")
    meta = json.loads((tmp_path / "bench.csv.meta.json").read_text())
    assert meta["seed"] == 0 and "host" in meta
    # a row never measures the Python fallback without saying so
    kernel = native.thomas_twin().describe()
    assert {key: meta[key] for key in kernel} == kernel


def test_emit_rejects_empty():
    with pytest.raises(ValueError):
        emit([], None)


def test_rerun_same_seed_identical_but_wall_clock(tmp_path):
    scenario = BenchScenario(n_values=(300,), k=2, repetitions=1, seed=7,
                             exact_cap=1000)
    paths = []
    for tag in ("one", "two"):
        rows = bench(scenario)
        path = tmp_path / f"{tag}.csv"
        emit(rows, path)
        paths.append(path)
    lines1 = paths[0].read_text().splitlines()
    lines2 = paths[1].read_text().splitlines()
    assert len(lines1) == len(lines2)
    for a, b in zip(lines1[1:], lines2[1:]):
        fa, fb = a.split(","), b.split(",")
        assert fa[0] == fb[0] and fa[1] == fb[1]  # N, solver
        assert fa[3] == fb[3] and fa[4] == fb[4]  # op_count, err_inf


def test_wall_clock_scales_roughly_linearly():
    # numerical solver time grows like N^1: the exponent measured between
    # N = 1e4 and 8e4 lies within [log2 1.6, log2 2.6], the band of a
    # doubling ratio between 1.6 and 2.6.  The long lever arm and the median
    # of alternating (small, large) pairs keep a loaded host from deciding
    # the outcome; a quadratic kernel still gives a ratio near 64.
    small, large = 10_000, 80_000
    ratios = {"NTDM": [], "MNPDM": []}
    for _ in range(3):
        times = {}
        for n in (small, large):
            scenario = BenchScenario(n_values=(n,), k=11, repetitions=5,
                                     solvers=tuple(ratios))
            times[n] = {r.solver: r.wall_s for r in bench(scenario)}
        for solver, pair_ratios in ratios.items():
            pair_ratios.append(times[large][solver] / times[small][solver])
    for solver, pair_ratios in ratios.items():
        exponent = math.log(median(pair_ratios)) / math.log(large / small)
        assert math.log2(1.6) <= exponent <= math.log2(2.6), (
            f"{solver} scaling exponent {exponent:.2f} from ratios "
            f"{pair_ratios}")


def test_convergence_single_layer_second_order():
    layers, materials, ms = manufactured_single_layer()
    report = convergence_study(layers, materials, ms, cells_factors=(1, 2, 4))
    assert report.observed_order is not None
    assert report.observed_order >= 1.9
    assert report.monotone


def test_convergence_two_layer_second_order():
    layers, materials, ms = manufactured_two_layer()
    report = convergence_study(layers, materials, ms, cells_factors=(1, 2, 4))
    assert report.observed_order >= 1.9


def test_convergence_report_lines_and_inconclusive_flag():
    layers, materials, ms = manufactured_single_layer()
    report = convergence_study(layers, materials, ms, cells_factors=(1, 2))
    assert any("observed order" in line for line in report.lines())
    report.errors[1] = report.errors[0] * 2  # force non-monotone
    report.monotone = False
    assert report.inconclusive


# ---------------------------------------------------------------------------
# config file interface
# ---------------------------------------------------------------------------

CONFIG_TEXT = """
[layer.inner]
r_start = 1
r_end = 3/2
cells = 6
material = steel

[layer.outer]
r_start = 3/2
r_end = 2.5
cells = 8
material = oxide

[material.steel]
rho = 7800
cv = 450
conductivity = 15 1/100
valid_range = -1000 3000

[material.oxide]
rho = 3900
cv = 880
conductivity = 30
source = 5
"""


def test_config_roundtrip(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text(CONFIG_TEXT)
    layers, materials = load_config(path)
    assert [l.material_id for l in layers] == ["steel", "oxide"]
    assert layers[0].r_end == 1.5 and layers[1].cells == 8
    assert materials["steel"].conductivity(100.0) == 16.0
    assert materials["steel"].valid_range == (-1000.0, 3000.0)
    assert materials["oxide"].source(0.0) == 5.0

    layers_x, materials_x = load_config(path, exact=True)
    assert layers_x[0].r_end == Fraction(3, 2)
    assert materials_x["steel"].conductivity(Fraction(100)) == Fraction(16)


def test_config_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[layer.x]\nr_start = 1\nr_end = 2\ncells = 4\n"
                    "material = nope\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[material.m]\nrho = 1\ncv = 1\nconductivity = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = cli_main(["bench", "--n", "300", "--k", "2", "--reps", "1",
                     "--solvers", "NTDM,MNPDM", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "NTDM" in capsys.readouterr().out


def test_cli_bench_rejects_huge_without_flag(capsys):
    code = cli_main(["bench", "--n", "100000000", "--reps", "1",
                     "--solvers", "NTDM"])
    assert code != 0


@pytest.mark.parametrize("flag", ["--n", "--solvers"])
def test_cli_bench_rejects_an_empty_list(capsys, flag):
    code = cli_main(["bench", flag, "", "--reps", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: need at least one size and one solver\n"


def test_cli_verify_counts(capsys):
    code = cli_main(["verify-counts"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    kernel = native.thomas_twin().describe()
    assert f"float NTDM kernel: {' '.join(kernel.values())}\n" in out


def test_cli_converge(capsys):
    assert cli_main(["converge", "--levels", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("second-order check: PASS") == 2
    assert "randomized" not in out
    with pytest.raises(SystemExit) as info:
        cli_main(["converge", "--seed", "0"])
    assert info.value.code == 2


def test_cli_simulate(tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(CONFIG_TEXT)
    out = tmp_path / "profile.csv"
    code = cli_main(["simulate", "--config", str(cfg), "--tau", "0.1",
                     "--steps", "3", "--u0", "2.0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,u"
    assert len(lines) == 1 + 6 + 8 + 1  # header + nodes


def test_cli_simulate_reports_nonconvergence(tmp_path, capsys):
    # the paper's td fixed point needs far more than two passes here, so the
    # forwarded --max-picard cap ends the run with a one-line error
    cfg = tmp_path / "case.cfg"
    cfg.write_text(CONFIG_TEXT)
    code = cli_main(["simulate", "--config", str(cfg), "--tau", "0.1",
                     "--steps", "3", "--u0", "2.0", "--shift", "td",
                     "--max-picard", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "step 1" in err and "NonConvergenceError" in err
    assert "> picard_tol 1e-12 after 2 passes" in err


def test_cli_simulate_td_shift_converges(tmp_path):
    # the plain td fixed point stalls above picard_tol on this case within
    # the default 100 passes; Anderson mixing converges every step
    cfg = tmp_path / "case.cfg"
    cfg.write_text(CONFIG_TEXT)
    assert cli_main(["simulate", "--config", str(cfg), "--tau", "0.1",
                     "--steps", "3", "--u0", "2.0", "--shift", "td"]) == 0


def test_cli_simulate_pentadiagonal_solvers_take_the_default_shift(tmp_path):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(CONFIG_TEXT)
    for solver in ("NPDM", "MNPDM"):
        code = cli_main(["simulate", "--config", str(cfg), "--tau", "0.1",
                         "--steps", "2", "--u0", "2.0", "--solver", solver])
        assert code == 0


@pytest.mark.parametrize("solver,shift", [("NTDM", "none"),
                                          ("NTDM", "corrected"),
                                          ("NPDM", "corrected"),
                                          ("MNPDM", "corrected")])
def test_relative_picard_stop_at_high_temperature(tmp_path, monkeypatch,
                                                  solver, shift):
    # at u0 = 300 the NTDM route's update stalls at a rounding floor of
    # about 4.7e-10 (1.6e-12 relative): an absolute 1e-12 stop never fires,
    # and the update test alone fails the third step after 100 passes; the
    # contraction estimate stops every step at pass 2
    path = tmp_path / "case.cfg"
    path.write_text(CONFIG_TEXT)
    layers, materials = load_config(path)
    mesh = build_mesh(layers)
    u0 = TemperatureField(np.full(mesh.n, 300.0), 0.0)
    reference = run(mesh, materials, u0, StepConfig(
        tau=0.1, solver_id="NPDM", shift_mode="none"), 3)
    passes = []

    def counted(*args, **kwargs):
        field, k = advance(*args, **kwargs)
        passes.append(k)
        return field, k

    monkeypatch.setattr(time_stepper, "advance", counted)
    trajectory = run(mesh, materials, u0, StepConfig(
        tau=0.1, solver_id=solver, shift_mode=shift), 3)
    assert passes == [2, 2, 2]
    for field, expected in zip(trajectory, reference):
        assert np.max(np.abs(field.values - expected.values)) <= 1e-11 * 300.0
