"""The THOMAS kernel's compiled twin: byte-equal to the Python kernel, built
lazily, and replaced by the Python kernel when it cannot be built."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radialheat
from radialheat import (SOLVERS, BreakdownError, LinearSystem, MaterialModel,
                        Polynomial, StepConfig, TemperatureField, TriMatrix,
                        advance, assemble_system, band_solvers,
                        build_bench_case, build_mesh, build_td_shift, native,
                        pd_to_td, solve_td_thomas, time_stepper)
from radialheat.band_solvers import THOMAS, raise_breakdown
from radialheat.bench import (DEFAULT_MATERIALS, constructed_profile,
                              default_layers, make_random_system)

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler to build the twin")


@pytest.fixture
def compiled():
    twin = native.thomas_twin()
    assert twin.lib is not None, twin.error
    return twin


def python_outcome(system):
    """The Python kernel's solution bytes, or its breakdown row."""
    try:
        inputs = [band.tolist() for band in system.matrix.bands()]
        thresholds = band_solvers._thresholds(system.matrix).tolist()
        factors = THOMAS.factor(inputs, thresholds, raise_breakdown)
    except BreakdownError as exc:
        return "breakdown", exc.row
    x = THOMAS.solve(factors, system.rhs.tolist())
    return np.asarray(x, dtype=np.float64).tobytes()


def compiled_outcome(system):
    """solve_td_thomas's solution bytes, or its breakdown row."""
    try:
        return solve_td_thomas(system).solution.tobytes()
    except BreakdownError as exc:
        return "breakdown", exc.row


def python_only(monkeypatch):
    """Make every later factorization run the Python kernel."""
    unbuilt = native.Twin(None, b"", "not built")
    monkeypatch.setattr(native, "thomas_twin", lambda: unbuilt)


def tri_system(sub, diag, sup, rhs):
    return LinearSystem(TriMatrix(*(np.array(v, dtype=np.float64)
                                    for v in (sub, diag, sup))),
                        np.array(rhs, dtype=np.float64))


@needs_cc
@pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
@pytest.mark.parametrize("seed", [0, 1])
def test_bench_cases_are_byte_equal(compiled, n, seed):
    system = build_bench_case(n, 11, seed).td_system
    assert compiled_outcome(system) == python_outcome(system)


@needs_cc
def test_random_systems_are_byte_equal(compiled):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        system = make_random_system(int(rng.integers(2, 300)), 0, rng,
                                    kind="td")
        assert compiled_outcome(system) == python_outcome(system), seed


@needs_cc
def test_two_unknowns_are_byte_equal(compiled):
    system = tri_system([0.0, 0.3], [1.7, -2.9], [0.6, 0.0], [1.0, 1 / 3])
    assert compiled_outcome(system) == python_outcome(system)


@needs_cc
@pytest.mark.parametrize("row", [0, 3, 5])
def test_zero_and_tiny_pivots_break_down_in_the_same_row(compiled, row):
    # the pivot's row holds one off-diagonal 1e9, and no pivot before it
    # feeds into it
    n = 6
    diag = [1e9] * n
    sub = [0.0] * n
    sup = [0.0] * n
    (sup if row < n - 1 else sub)[row] = 1e9
    for pivot in (0.0, -0.0, 1e-22):  # 1e-22 < PIVOT_RTOL * 1e9
        diag[row] = pivot
        system = tri_system(sub, diag, sup, [1.0] * n)
        assert compiled_outcome(system) == ("breakdown", row)
        assert python_outcome(system) == ("breakdown", row)


@needs_cc
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("band", [0, 1, 2])
def test_nan_and_infinite_entries_are_byte_equal(compiled, value, band):
    rng = np.random.default_rng(9)
    system = make_random_system(12, 0, rng, kind="td")
    for row in (0, 5, 11):
        bands = system.matrix.copy()
        bands.bands()[band][row] = value
        changed = LinearSystem(bands, system.rhs.copy())
        assert compiled_outcome(changed) == python_outcome(changed), row
    rhs = system.rhs.copy()
    rhs[4] = value
    changed = LinearSystem(system.matrix, rhs)
    assert compiled_outcome(changed) == python_outcome(changed)


def corrected_case(n=1000):
    mesh = build_mesh(default_layers(n, 11))
    u = constructed_profile(mesh, 0)
    reduced = pd_to_td(assemble_system(mesh, DEFAULT_MATERIALS, u, u, 1e-3))
    return reduced, build_td_shift(reduced.matrix)


@needs_cc
def test_corrected_back_solves_are_byte_equal(compiled, monkeypatch):
    system, shift = corrected_case()
    x = time_stepper._corrected_solve(system, shift, SOLVERS["NTDM"])
    python_only(monkeypatch)
    reference = time_stepper._corrected_solve(system, shift, SOLVERS["NTDM"])
    assert x.tobytes() == reference.tobytes()


@needs_cc
def test_time_steps_and_pass_counts_are_byte_equal(compiled, monkeypatch):
    materials = {
        "a": MaterialModel(Polynomial((1,)), Polynomial((1,)),
                           Polynomial((1, 0.5))),
        "b": MaterialModel(Polynomial((1,)), Polynomial((1,)),
                           Polynomial((3,)), Polynomial((1,))),
    }
    mesh = build_mesh(default_layers(1000, 11))
    u0 = TemperatureField(1 + 0.2 * (constructed_profile(mesh, 1) - 1))
    configs = [StepConfig(tau=1e-3, shift_mode=mode)
               for mode in ("none", "corrected", "td")]

    def trajectories():
        out = []
        for cfg in configs:
            u = u0
            for _ in range(3):
                u, passes = advance(mesh, materials, u, cfg)
                out.append((u.values.tobytes(), passes))
        return out

    steps = trajectories()
    python_only(monkeypatch)
    assert steps == trajectories()


def fresh_twin():
    """thomas_twin() built again under the current patches."""
    native.thomas_twin.cache_clear()
    try:
        return native.thomas_twin()
    finally:
        native.thomas_twin.cache_clear()


def test_failed_build_falls_back_to_the_python_kernel(monkeypatch, tmp_path):
    system = build_bench_case(1000, 11, 0).td_system
    expected = python_outcome(system)
    broken = tmp_path / "thomas.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(native, "SOURCE", broken)
    twin = fresh_twin()
    assert twin.lib is None
    assert twin.describe() == {"ntdm_kernel": "python",
                               "build_error": twin.error}
    assert twin.error
    monkeypatch.setattr(native, "thomas_twin", lambda: twin)
    assert solve_td_thomas(system).solution.tobytes() == expected


@needs_cc
def test_a_library_that_will_not_load_falls_back(monkeypatch):
    # as on a host whose temporary directory is mounted noexec
    def refuse(lib_path):
        raise OSError(f"{lib_path}: failed to map segment from shared object")

    system = build_bench_case(1000, 11, 0).td_system
    expected = python_outcome(system)
    monkeypatch.setattr(native, "_load", refuse)
    twin = fresh_twin()
    assert twin.lib is None
    assert twin.error.startswith("OSError: ")
    assert "failed to map segment" in twin.error
    monkeypatch.setattr(native, "thomas_twin", lambda: twin)
    assert solve_td_thomas(system).solution.tobytes() == expected


@needs_cc
def test_import_builds_nothing_and_the_first_ntdm_solve_builds_once(tmp_path):
    script = """
import radialheat
from radialheat import native
print(native.thomas_twin.cache_info().currsize)
case = radialheat.build_bench_case(200, 3, 0)
radialheat.solve_pd_lu(case.pd_system)
print(native.thomas_twin.cache_info().currsize)
radialheat.solve_td_thomas(case.td_system)
radialheat.solve_td_thomas(case.td_system)
print(native.thomas_twin.cache_info().misses, native.thomas_twin().lib is None)
"""
    src = str(Path(radialheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, TMPDIR=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    # one build for two solves, kept in memory
    assert out == ["0", "0", "1", "False"]
    # the temporary build directory is gone
    assert not any(tmp_path.iterdir())
