"""Implicit stepping, Picard iteration and shift-mode invariance."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import column_woodbury_solve, dense_solve, rel_inf_err
from radialheat import (SOLVERS, LayerSpec, LinearSystem, MaterialModel,
                        NonConvergenceError, Polynomial, ShiftDiag,
                        SingularMatrixError, StepConfig, TemperatureField,
                        TriMatrix, advance, assemble_system, build_mesh,
                        build_pd_shift, build_td_shift, pd_to_td, run)
from radialheat import (assembly, band_solvers, cli, exact_solvers,
                        time_stepper)
from radialheat.bench import constructed_profile, default_layers

LINEAR_MATERIALS = {
    "a": MaterialModel(Polynomial((1.0,)), Polynomial((1.0,)), Polynomial((2.0,))),
    "b": MaterialModel(Polynomial((1.0,)), Polynomial((1.0,)), Polynomial((0.5,))),
}

# conductivity grows with temperature: a genuinely nonlinear problem
NONLINEAR_MATERIALS = {
    "a": MaterialModel(Polynomial((1.0,)), Polynomial((1.0,)),
                       Polynomial((1.0, 0.5))),
    "b": MaterialModel(Polynomial((2.0,)), Polynomial((1.0,)),
                       Polynomial((0.5, 0.25))),
}


# the nonlinear cylinder of the benchmark's time-stepping workloads
CYLINDER_MATERIALS = {
    "a": MaterialModel(Polynomial((1,)), Polynomial((1,)), Polynomial((1, 0.5))),
    "b": MaterialModel(Polynomial((1,)), Polynomial((1,)), Polynomial((3,)),
                       Polynomial((1,))),
}

FIXED_POINT_MODES = (("pd", "MNPDM"), ("td", "NTDM"))
TAU_OVER_H2 = (1e-2, 1.0, 1e2, 1e3)


def shifted_cylinder(n=200, k=3):
    """N = n, K = k default_layers cylinder, a seeded field 1 + 0.15625 q
    with q rising from 0 to 1, and the smallest squared step."""
    mesh = build_mesh(default_layers(n, k))
    rise = constructed_profile(mesh, 1) - 1
    u0 = TemperatureField(1 + 0.15625 * rise / rise.max(), 0.0)
    return mesh, u0, float(min(mesh.steps)) ** 2


def family_shift(system, solver):
    """The system the corrected mode solves for solver, reduced for a
    tridiagonal one, and the shift of the solver family's fixed-point mode."""
    if SOLVERS[solver].kernel.shape == "td":
        system = pd_to_td(system)
        return system, build_td_shift(system.matrix)
    return system, build_pd_shift(system.matrix)


def two_layer_mesh():
    return build_mesh([LayerSpec(1.0, 2.0, "a", 6), LayerSpec(2.0, 3.0, "b", 6)])


def bumpy_field(mesh, amp=0.5):
    values = np.array([1.0 + amp * np.sin(3.0 * (r - 1.0)) ** 2
                       for r in mesh.nodes.tolist()])
    return TemperatureField(values, 0.0)


def test_constant_field_converges_in_one_iteration():
    mesh = two_layer_mesh()
    u0 = TemperatureField(np.full(mesh.n, 2.0), 0.0)
    for shift in ("none", "pd", "corrected"):
        cfg = StepConfig(tau=0.1, solver_id="MNPDM", shift_mode=shift)
        field, iterations = advance(mesh, LINEAR_MATERIALS, u0, cfg)
        assert iterations == 1
        assert np.max(np.abs(field.values - 2.0)) < 1e-14


def test_linear_problem_single_solve_without_shift():
    mesh = two_layer_mesh()
    u0 = bumpy_field(mesh)
    cfg = StepConfig(tau=0.05, solver_id="NPDM", shift_mode="none")
    field, iterations = advance(mesh, LINEAR_MATERIALS, u0, cfg)
    assert iterations == 1
    assert np.max(np.abs(field.values - u0.values)) > 1e-6  # actually evolved


def test_shifted_linear_problem_iterates_and_matches_unshifted():
    mesh = two_layer_mesh()
    u0 = bumpy_field(mesh)
    base = advance(mesh, LINEAR_MATERIALS, u0,
                   StepConfig(tau=0.05, solver_id="NPDM", shift_mode="none"))[0]
    for solver, shift in (("NPDM", "pd"), ("MNPDM", "pd"), ("NTDM", "td")):
        cfg = StepConfig(tau=0.05, picard_tol=1e-12, solver_id=solver,
                         shift_mode=shift)
        field, iterations = advance(mesh, LINEAR_MATERIALS, u0, cfg)
        assert iterations > 1  # the shift feedback forces a fixed point
        assert np.max(np.abs(field.values - base.values)) < 1e-11


def test_nonlinear_problem_picard_converges_all_modes_agree():
    mesh = two_layer_mesh()
    u0 = bumpy_field(mesh, amp=0.3)
    results = {}
    for solver, shift in (("NPDM", "none"), ("NPDM", "pd"), ("NTDM", "td"),
                          ("NPDM", "corrected"), ("MNPDM", "corrected"),
                          ("NTDM", "corrected")):
        cfg = StepConfig(tau=0.1, picard_tol=1e-13, solver_id=solver,
                         shift_mode=shift)
        field, iterations = advance(mesh, NONLINEAR_MATERIALS, u0, cfg)
        results[(solver, shift)] = field.values
        assert iterations >= 2
    base = results[("NPDM", "none")]
    for values in results.values():
        assert np.max(np.abs(values - base)) < 1e-11


def test_corrected_linear_problem_single_pass_matches_unshifted():
    mesh = two_layer_mesh()
    u0 = bumpy_field(mesh)
    for solver in ("NPDM", "MNPDM", "NTDM"):
        base = advance(mesh, LINEAR_MATERIALS, u0,
                       StepConfig(tau=0.05, solver_id=solver,
                                  shift_mode="none"))[0]
        field, iterations = advance(
            mesh, LINEAR_MATERIALS, u0,
            StepConfig(tau=0.05, solver_id=solver, shift_mode="corrected"))
        assert iterations == 1  # the correction removes the shift exactly
        assert np.max(np.abs(field.values - base.values)) < 1e-11


def test_zero_update_at_zero_field_is_accepted():
    # the relative stop compares against picard_tol * ||u||, which is 0 here
    mesh = two_layer_mesh()
    u0 = TemperatureField(np.zeros(mesh.n), 0.0)
    for solver, shift in (("MNPDM", "pd"), ("NTDM", "td")):
        cfg = StepConfig(tau=0.1, solver_id=solver, shift_mode=shift)
        field, iterations = advance(mesh, LINEAR_MATERIALS, u0, cfg)
        assert iterations == 1
        assert not np.any(field.values)


def _held(value):
    """value, its items if it is a list or tuple, and its attributes."""
    yield value
    if isinstance(value, (list, tuple)):
        yield from value
    yield from getattr(value, "__dict__", {}).values()


def test_max_picard_exceeded_raises():
    mesh = two_layer_mesh()
    u0 = bumpy_field(mesh)
    # Anderson mixing converges here in 6 passes: at 5 it holds a history
    for max_picard in (2, 5):
        cfg = StepConfig(tau=0.05, picard_tol=1e-12, max_picard=max_picard,
                         solver_id="NTDM", shift_mode="td")
        with pytest.raises(NonConvergenceError) as err:
            advance(mesh, LINEAR_MATERIALS, u0, cfg)
        assert err.value.last_diff > 0
        assert err.value.relative > err.value.tol == 1e-12
        assert err.value.rate > 0
        assert str(err.value) == (
            f"last relative update {err.value.relative:.2g} > picard_tol "
            f"1e-12 after {max_picard} passes")
        # no frame of the traceback holds a pass's system or the mixing
        # history, so a caller that keeps the error does not keep the failed
        # step's matrices alive
        tb = err.value.__traceback__
        while tb is not None:
            held = [x for v in tb.tb_frame.f_locals.values() for x in _held(v)]
            assert not any(isinstance(x, LinearSystem) for x in held)
            assert not any(isinstance(x, np.ndarray) and x.size > mesh.n
                           for x in held)
            tb = tb.tb_next


def test_run_rejects_zero_steps():
    mesh = two_layer_mesh()
    u0 = TemperatureField(np.full(mesh.n, 1.0), 0.0)
    cfg = StepConfig(tau=0.1)
    with pytest.raises(ValueError):
        run(mesh, LINEAR_MATERIALS, u0, cfg, 0)


def test_insulated_constant_state_invariant_over_100_steps():
    mesh = two_layer_mesh()
    u0 = TemperatureField(np.full(mesh.n, 3.0), 0.0)
    cfg = StepConfig(tau=0.2, solver_id="NTDM", shift_mode="td")
    trajectory = run(mesh, LINEAR_MATERIALS, u0, cfg, 100)[::25]
    assert len(trajectory) == 5
    for field in trajectory:
        assert np.max(np.abs(field.values - 3.0)) < 1e-12


def test_exact_linear_advance_single_iteration():
    mesh = build_mesh([LayerSpec(Fraction(1), Fraction(2), "a", 4),
                       LayerSpec(Fraction(2), Fraction(3), "b", 4)])
    mats = {
        "a": MaterialModel(Polynomial((1,)), Polynomial((1,)), Polynomial((2,))),
        "b": MaterialModel(Polynomial((1,)), Polynomial((1,)), Polynomial((1,))),
    }
    values = np.array([Fraction(1) + Fraction(i, 10) for i in range(mesh.n)],
                      dtype=object)
    u0 = TemperatureField(values, Fraction(0))
    cfg = StepConfig(tau=Fraction(1, 10), solver_id="STDM", shift_mode="none")
    field, iterations = advance(mesh, mats, u0, cfg)
    assert iterations == 1
    assert all(isinstance(v, Fraction) for v in field.values.tolist())
    cfg_pd = StepConfig(tau=Fraction(1, 10), solver_id="SPDM", shift_mode="none")
    field_pd, _ = advance(mesh, mats, u0, cfg_pd)
    assert field_pd.values.tolist() == field.values.tolist()
    for solver in ("SPDM", "STDM"):
        cfg_c = StepConfig(tau=Fraction(1, 10), solver_id=solver,
                           shift_mode="corrected")
        field_c, iterations_c = advance(mesh, mats, u0, cfg_c)
        assert iterations_c == 1  # the correction is exact over Q
        assert field_c.values.tolist() == field.values.tolist()


def test_config_validation():
    with pytest.raises(ValueError, match="tau must be positive"):
        StepConfig(tau=0.0)
    with pytest.raises(ValueError, match="NTDM takes shift_mode 'none', 'td', "
                                         "'corrected', not 'pd'"):
        StepConfig(tau=0.1, solver_id="NTDM", shift_mode="pd")
    with pytest.raises(ValueError, match="NPDM takes shift_mode 'none', 'pd', "
                                         "'corrected', not 'td'"):
        StepConfig(tau=0.1, solver_id="NPDM", shift_mode="td")
    # the exact solvers take no dominance shift
    for solver, mode in (("SPDM", "pd"), ("STDM", "td")):
        with pytest.raises(ValueError) as err:
            StepConfig(tau=Fraction(1, 10), solver_id=solver, shift_mode=mode)
        assert str(err.value) == (f"{solver} takes shift_mode 'none', "
                                  f"'corrected', not {mode!r}")
    with pytest.raises(ValueError, match="max_picard must be >= 1"):
        StepConfig(tau=0.1, max_picard=0)
    assert StepConfig(tau=0.1).shift_mode == "corrected"
    for solver in ("NPDM", "MNPDM", "NTDM", "SPDM", "STDM"):
        StepConfig(tau=0.1, solver_id=solver, shift_mode="corrected")


@pytest.mark.parametrize("solver", ["NPDM", "MNPDM", "NTDM"])
def test_corrected_pass_factors_once_and_matches_column_solves(monkeypatch,
                                                               solver):
    mesh = two_layer_mesh()
    u = bumpy_field(mesh, amp=0.3).values
    system, shift = family_shift(
        assemble_system(mesh, NONLINEAR_MATERIALS, u, u, 0.1), solver)
    calls = []
    factorize = band_solvers.factorize

    def counted(matrix, kernel):
        calls.append(kernel.name)
        return factorize(matrix, kernel)

    monkeypatch.setattr(band_solvers, "factorize", counted)
    x = time_stepper._corrected_solve(system, shift, SOLVERS[solver])
    assert len(calls) == 1
    assert np.count_nonzero(shift.entries) >= 3
    assert np.array_equal(x, column_woodbury_solve(system, shift, solver))


@pytest.mark.parametrize("solver", ["NPDM", "MNPDM", "NTDM"])
def test_corrected_solve_matches_the_dense_oracle(solver):
    # the benchmark's N = 1e3 cylinder, whose row scales span 1e12: only the
    # row-equilibrated LAPACK oracle resolves its solution to 1e-12
    mesh, u0, _ = shifted_cylinder(1000, 11)
    system = assemble_system(mesh, CYLINDER_MATERIALS, u0.values, u0.values,
                             1e-3)
    reduced, shift = family_shift(system, solver)
    x = time_stepper._corrected_solve(reduced, shift, SOLVERS[solver])
    assert rel_inf_err(x, dense_solve(system)) <= 1e-12


def test_singular_capacitance_raises_singular_matrix_error():
    # A = diag(0, 2, ..., 2) is singular though M = A + P = 2 I is not:
    # the capacitance matrix 1/2 - 1/2 is exactly zero
    n = 6
    zero = np.zeros(n)
    matrix = TriMatrix(zero, np.array([0.0] + [2.0] * (n - 1)), zero.copy())
    shift = ShiftDiag(np.array([2.0] + [0.0] * (n - 1)), (0,))
    with pytest.raises(SingularMatrixError) as err:
        time_stepper._corrected_solve(LinearSystem(matrix, np.ones(n)), shift,
                                      SOLVERS["NTDM"])
    assert str(err.value) == ("singular capacitance matrix: the unshifted "
                              "system is singular")
    # simulate reports the step errors it knows; LAPACK's must not escape
    assert not isinstance(err.value, np.linalg.LinAlgError)
    assert isinstance(err.value, cli._STEP_ERRORS)


def test_anderson_converges_every_shifted_step():
    # the plain iteration fails 5 of these 8 steps within 100 passes
    mesh, u0, h2 = shifted_cylinder()
    for factor in TAU_OVER_H2:
        reference = advance(mesh, CYLINDER_MATERIALS, u0,
                            StepConfig(tau=factor * h2, solver_id="NPDM"))[0].values
        for mode, solver in FIXED_POINT_MODES:
            field, passes = advance(mesh, CYLINDER_MATERIALS, u0, StepConfig(
                tau=factor * h2, solver_id=solver, shift_mode=mode))
            assert passes <= 21
            assert (np.max(np.abs(field.values - reference))
                    <= 1e-10 * np.max(np.abs(reference)))


def test_anderson_history_grows_with_the_contact_count():
    # a fixed history of 16 updates takes 78 and 72 passes here
    mesh, u0, h2 = shifted_cylinder(1000, 30)
    for mode, solver in FIXED_POINT_MODES:
        _, passes = advance(mesh, CYLINDER_MATERIALS, u0, StepConfig(
            tau=1e3 * h2, solver_id=solver, shift_mode=mode))
        assert passes <= 55


def _plain_picard(mesh, materials, u0, cfg):
    """The paper's fixed-point iteration on its own: (field, passes), or
    (None, None) when it does not converge within cfg.max_picard passes."""
    u = u0.values
    for k in range(1, cfg.max_picard + 1):
        u_next = time_stepper._picard_pass(mesh, materials, u, u0.values, cfg, None)
        converged = band_solvers.sup_norm(u_next - u) <= (
            cfg.picard_tol * band_solvers.sup_norm(u_next))
        u = u_next
        if converged:
            return u, k
    return None, None


def test_plain_fixed_point_iteration_pattern():
    # the paper's unaccelerated iteration on the cylinder of
    # test_anderson_converges_every_shifted_step fails 5 of its 8 steps
    mesh, u0, h2 = shifted_cylinder()
    pattern = [_plain_picard(mesh, CYLINDER_MATERIALS, u0, StepConfig(
        tau=factor * h2, solver_id=solver, shift_mode=mode))[1]
        for mode, solver in FIXED_POINT_MODES for factor in TAU_OVER_H2]
    assert pattern == [24, 49, None, None, None, 42, None, None]


def test_unmixed_steps_stop_on_the_contraction_estimate():
    # the benchmark's transient step at N = 1e3: the updates fall about 1e-3
    # per pass, so the update test alone takes a 4th pass to confirm the 3rd
    mesh, u0, _ = shifted_cylinder(1000, 11)
    reference, _ = _plain_picard(mesh, CYLINDER_MATERIALS, u0, StepConfig(
        tau=1e-3, picard_tol=1e-13, solver_id="NPDM", shift_mode="none"))
    scale = np.max(np.abs(reference))
    for mode, solver in (("none", "NTDM"), ("corrected", "NPDM"),
                         ("corrected", "MNPDM"), ("corrected", "NTDM")):
        field, passes = advance(mesh, CYLINDER_MATERIALS, u0, StepConfig(
            tau=1e-3, picard_tol=1e-10, solver_id=solver, shift_mode=mode))
        assert passes <= 3
        assert np.max(np.abs(field.values - reference)) <= 1e-11 * scale


@pytest.mark.parametrize("mode", ["none", "corrected"])
def test_contraction_estimate_needs_two_passes(mode):
    mesh = two_layer_mesh()
    u0 = bumpy_field(mesh, amp=0.3)
    cfg = StepConfig(tau=0.1, picard_tol=1e-6, max_picard=1, solver_id="NTDM",
                     shift_mode=mode)
    with pytest.raises(NonConvergenceError) as err:
        advance(mesh, NONLINEAR_MATERIALS, u0, cfg)
    assert err.value.rate is None
    # the same step converges once a second pass gives the estimate
    _, passes = advance(mesh, NONLINEAR_MATERIALS, u0, StepConfig(
        tau=0.1, picard_tol=1e-6, solver_id="NTDM", shift_mode=mode))
    assert passes >= 2


@pytest.mark.parametrize("mode, solver", [("pd", "MNPDM"), ("corrected", "NPDM")])
def test_pentadiagonal_shift_pass_evaluates_contacts_once(monkeypatch, mode,
                                                          solver):
    # the shift is read off the assembled matrix, so the assembly's
    # evaluation of the contact conductivities is the only one in a pass
    mesh, u0, h2 = shifted_cylinder()
    calls = []
    evaluate = assembly.contact_conductivities

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    for module in (assembly, time_stepper):
        monkeypatch.setattr(module, "contact_conductivities", counted,
                            raising=False)
    cfg = StepConfig(tau=h2, solver_id=solver, shift_mode=mode)
    time_stepper._picard_pass(mesh, CYLINDER_MATERIALS, u0.values, u0.values,
                              cfg, None)
    assert len(calls) == 1


def exact_two_layer_mesh():
    return build_mesh([LayerSpec(Fraction(1), Fraction(2), "a", 4),
                       LayerSpec(Fraction(2), Fraction(3), "b", 4)])


EXACT_LINEAR_MATERIALS = {
    "a": MaterialModel(Polynomial((1,)), Polynomial((1,)), Polynomial((2,))),
    "b": MaterialModel(Polynomial((1,)), Polynomial((1,)), Polynomial((1,))),
}


def exact_field(mesh):
    values = np.array([Fraction(1) + Fraction(i, 10) for i in range(mesh.n)],
                      dtype=object)
    return TemperatureField(values, Fraction(0))


@pytest.fixture
def assemblies(monkeypatch):
    """The arguments of each assemble_system call the time stepper makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return assemble_system(*args, **kwargs)

    monkeypatch.setattr(time_stepper, "assemble_system", counted)
    return calls


def test_exact_mesh_rejects_a_float_solver_before_assembly(assemblies):
    mesh = exact_two_layer_mesh()
    cfg = StepConfig(tau=Fraction(1, 10), solver_id="NTDM", shift_mode="none")
    with pytest.raises(ValueError) as err:
        advance(mesh, EXACT_LINEAR_MATERIALS, exact_field(mesh), cfg)
    assert str(err.value) == "an exact mesh takes the solvers SPDM, STDM, not NTDM"
    assert assemblies == []


def test_exact_mesh_rejects_a_nonlinear_material_before_assembly(assemblies):
    # "c" depends on temperature too but no layer uses it; "b" is named
    mesh = exact_two_layer_mesh()
    mats = {
        "c": MaterialModel(Polynomial((1,)), Polynomial((1,)),
                           Polynomial((1, Fraction(1, 2)))),
        "a": EXACT_LINEAR_MATERIALS["a"],
        "b": MaterialModel(Polynomial((1,)), Polynomial((1,)),
                           Polynomial((Fraction(1, 2), Fraction(1, 4)))),
    }
    for solver in ("SPDM", "STDM"):
        cfg = StepConfig(tau=Fraction(1, 10), solver_id=solver)
        with pytest.raises(ValueError) as err:
            advance(mesh, mats, exact_field(mesh), cfg)
        assert str(err.value) == ("an exact step needs constant coefficients; "
                                  "material 'b' depends on temperature")
    assert assemblies == []


@pytest.mark.parametrize("solver", ["SPDM", "STDM"])
def test_exact_corrected_step_is_one_exact_solve(monkeypatch, solver):
    mesh = exact_two_layer_mesh()
    u0 = exact_field(mesh)
    # an unused temperature-dependent material does not make the step iterate
    mats = dict(EXACT_LINEAR_MATERIALS, c=MaterialModel(
        Polynomial((1,)), Polynomial((1,)), Polynomial((1, Fraction(1, 2)))))
    expected, _ = advance(mesh, mats, u0, StepConfig(
        tau=Fraction(1, 10), solver_id=solver, shift_mode="none"))
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    entry = SOLVERS[solver].entry
    monkeypatch.setattr(exact_solvers, entry,
                        counted(entry, getattr(exact_solvers, entry)))
    monkeypatch.setattr(band_solvers, "factorize",
                        counted("factorize", band_solvers.factorize))
    monkeypatch.setattr(time_stepper, "_corrected_solve",
                        counted("_corrected_solve",
                                time_stepper._corrected_solve))
    field, passes = advance(mesh, mats, u0, StepConfig(
        tau=Fraction(1, 10), solver_id=solver, shift_mode="corrected"))
    assert calls == [entry]
    assert passes == 1
    assert field.values.tolist() == expected.values.tolist()
    assert all(type(v) is Fraction for v in field.values.tolist())
