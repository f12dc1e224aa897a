"""System assembly: row formulas, sparsity pattern, consistency checks.

The one-sided boundary/contact stencils are checked against an independent
symbolic derivation: differentiate the quadratic Lagrange interpolant with
sympy and compare coefficient by coefficient for general steps.
"""

from fractions import Fraction

import numpy as np
import pytest
import sympy

from oracles import (CoefficientSample, assemble_interior_row, assemble_rows,
                     band_pattern_errors, matvec_rows)
from radialheat import (LayerSpec, MaterialDomainError, MaterialModel, Polynomial,
                        RadialMesh, StencilError, assemble_contact_row,
                        assemble_neumann_rows, assemble_system, build_mesh,
                        contact_conductivities)
from radialheat.bench import default_layers, make_random_system


def uniform_mesh(r0=98.0, h=1.0, n=5):
    return RadialMesh.from_nodes([r0 + h * j for j in range(n)], (), ("m",))


def two_layer_unit_mesh():
    # all steps 1, contact at node 4
    return build_mesh([LayerSpec(1.0, 5.0, "a", 4), LayerSpec(5.0, 9.0, "b", 4)])


CONST_MATERIALS = {
    mid: MaterialModel(Polynomial((1.0,)), Polynomial((1.0,)), Polynomial((2.0,)))
    for mid in ("a", "b", "m")
}


# ---------------------------------------------------------------------------
# interior rows
# ---------------------------------------------------------------------------

def test_interior_row_direct_substitution():
    mesh = uniform_mesh()
    unit = {"m": MaterialModel(Polynomial((1.0,)), Polynomial((1.0,)),
                               Polynomial((1.0,)))}
    system = assemble_system(mesh, unit, [1.0] * mesh.n, [42.0] * mesh.n, 1.0)
    m = system.matrix
    c_lo, diag, c_hi, rhs = m.d1m[2], m.d0[2], m.d1p[2], system.rhs[2]
    assert c_lo == pytest.approx(-0.995, abs=1e-15)
    assert c_hi == pytest.approx(-1.005, abs=1e-15)
    assert diag == pytest.approx(3.0, abs=1e-15)
    assert rhs == 42.0
    # the midpoint radii over r_i sum to exactly 2
    assert (-c_lo - c_hi) == pytest.approx(2.0, abs=1e-15)


def test_interior_row_zero_conductivity_degenerates_to_scaled_identity():
    mesh = uniform_mesh()
    s = CoefficientSample(rho_c=2.0, lambda_minus=0.0, lambda_plus=0.0, phi=0.0)
    c_lo, diag, c_hi, rhs = assemble_interior_row(mesh, s, 2, 0.5, 10.0)
    assert (c_lo, diag, c_hi) == (0.0, 4.0, 0.0)
    assert rhs == 40.0


def test_interior_row_preserves_constants():
    # row applied to a constant field equals its rhs: steady state preserved
    mesh = uniform_mesh(r0=1.0, h=0.3)
    s = CoefficientSample(1.7, 2.3, 0.9, 0.0)
    c = 5.5
    c_lo, diag, c_hi, rhs = assemble_interior_row(mesh, s, 2, 0.25, c)
    assert c_lo * c + diag * c + c_hi * c == pytest.approx(rhs, rel=1e-14)


# ---------------------------------------------------------------------------
# Neumann rows
# ---------------------------------------------------------------------------

def test_neumann_rows_uniform_classical_stencil():
    mesh = uniform_mesh()
    row0, row_last = assemble_neumann_rows(mesh)
    assert row0 == (3.0, -4.0, 1.0)
    assert row_last == (1.0, -4.0, 3.0)


def test_neumann_row_mixed_steps():
    # h1=1, h2=2: cleared-denominator coefficients (8, -9, 1)
    mesh = RadialMesh.from_nodes([1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0], (),
                                 ("m",))
    row0, _ = assemble_neumann_rows(mesh)
    assert row0 == (8.0, -9.0, 1.0)


def test_neumann_rows_annihilate_constants():
    rng = np.random.default_rng(5)
    for _ in range(25):
        nodes = np.concatenate([[1.0], 1.0 + np.cumsum(rng.uniform(0.05, 1.0, 6))])
        mesh = RadialMesh.from_nodes(nodes.tolist(), (), ("m",))
        row0, row_last = assemble_neumann_rows(mesh)
        assert sum(row0) == pytest.approx(0.0, abs=1e-12 * max(map(abs, row0)))
        assert sum(row_last) == pytest.approx(0.0, abs=1e-12 * max(map(abs, row_last)))


def test_neumann_row_matches_symbolic_derivative_stencil():
    # independent oracle: d/dr of the quadratic interpolant at r0, scaled by
    # -h1*h2*(h1+h2), must reproduce the assembled cleared-denominator row
    h1, h2, u0, u1, u2 = sympy.symbols("h1 h2 u0 u1 u2", positive=True)
    r0 = sympy.Symbol("r0")
    pts = [(r0, u0), (r0 + h1, u1), (r0 + h1 + h2, u2)]
    r = sympy.Symbol("r")
    poly = sum(u * sympy.prod([(r - xj) / (xi - xj) for xj, _ in pts if xj != xi])
               for xi, u in pts)
    dpoly = sympy.diff(poly, r).subs(r, r0)
    oracle = sympy.expand(-h1 * h2 * (h1 + h2) * dpoly)

    mesh = RadialMesh.from_nodes([1.0, 1.5, 2.75, 4.0, 5.0, 6.0, 7.0], (),
                                 ("m",))
    row0, _ = assemble_neumann_rows(mesh)
    subs = {h1: 0.5, h2: 1.25}
    for coeff, u_sym in zip(row0, (u0, u1, u2)):
        assert coeff == pytest.approx(float(oracle.coeff(u_sym).subs(subs)),
                                      rel=1e-13)


# ---------------------------------------------------------------------------
# contact rows
# ---------------------------------------------------------------------------

def test_contact_row_uniform_pattern():
    mesh = two_layer_unit_mesh()
    row = assemble_contact_row(mesh, 1.0, 1.0, 4)
    assert row == (0.5, -2.0, 3.0, -2.0, 0.5)


def test_contact_row_matches_symbolic_flux_balance():
    # independent oracle: lam_l * (left interpolant)'(r*) - lam_r *
    # (right interpolant)'(r*), coefficients extracted symbolically
    hm1, hi, hp1, hp2 = sympy.symbols("hm1 hi hp1 hp2", positive=True)
    ll, lr = sympy.symbols("ll lr", positive=True)
    us = sympy.symbols("um2 um1 uc up1 up2")
    rs = sympy.Symbol("rs")
    r = sympy.Symbol("r")

    left_pts = [(rs - hi - hm1, us[0]), (rs - hi, us[1]), (rs, us[2])]
    right_pts = [(rs, us[2]), (rs + hp1, us[3]), (rs + hp1 + hp2, us[4])]

    def deriv_at(pts):
        poly = sum(u * sympy.prod([(r - xj) / (xi - xj)
                                   for xj, _ in pts if xj != xi])
                   for xi, u in pts)
        return sympy.diff(poly, r).subs(r, rs)

    oracle = sympy.expand(ll * deriv_at(left_pts) - lr * deriv_at(right_pts))

    mesh = build_mesh([LayerSpec(1.0, 2.2, "a", 4), LayerSpec(2.2, 4.6, "b", 4)])
    i_star = 4
    lam_l, lam_r = 1.75, 0.4
    row = assemble_contact_row(mesh, lam_l, lam_r, i_star)
    steps = mesh.steps.tolist()
    subs = {hm1: steps[i_star - 2], hi: steps[i_star - 1],
            hp1: steps[i_star], hp2: steps[i_star + 1], ll: lam_l, lr: lam_r}
    for coeff, u_sym in zip(row, us):
        assert coeff == pytest.approx(float(oracle.coeff(u_sym).subs(subs)),
                                      rel=1e-12)


def test_contact_row_annihilates_constants():
    rng = np.random.default_rng(8)
    for _ in range(25):
        widths = rng.uniform(0.1, 2.0, 2)
        mesh = build_mesh([
            LayerSpec(1.0, 1.0 + widths[0], "a", 4),
            LayerSpec(1.0 + widths[0], 1.0 + widths[0] + widths[1], "b", 5),
        ])
        lam_l, lam_r = rng.uniform(0.1, 5.0, 2)
        row = assemble_contact_row(mesh, lam_l, lam_r, 4)
        assert sum(row) == pytest.approx(0.0, abs=1e-12 * max(map(abs, row)))


def test_contact_row_zero_left_conductivity_reduces_to_right_stencil():
    mesh = two_layer_unit_mesh()
    row = assemble_contact_row(mesh, 0.0, 1.0, 4)
    assert row[0] == 0.0 and row[1] == 0.0
    assert row[2:] == (1.5, -2.0, 0.5)


def test_contact_row_rejects_non_contact_node():
    mesh = two_layer_unit_mesh()
    with pytest.raises(StencilError):
        assemble_contact_row(mesh, 1.0, 1.0, 3)


# ---------------------------------------------------------------------------
# whole-system assembly
# ---------------------------------------------------------------------------

def test_full_rows_pattern_two_layers():
    mesh = build_mesh([LayerSpec(1.0, 2.0, "a", 4), LayerSpec(2.0, 4.0, "b", 4)])
    u = [1.0] * mesh.n
    system = assemble_system(mesh, CONST_MATERIALS, u, u, 0.5)
    assert system.matrix.full_rows == (0, 4, 8)
    assert band_pattern_errors(system.matrix) == []


def test_single_layer_outer_diagonals_only_at_ends():
    mesh = build_mesh([LayerSpec(1.0, 2.0, "m", 8)])
    u = [1.0] * mesh.n
    system = assemble_system(mesh, CONST_MATERIALS, u, u, 0.5)
    m = system.matrix
    assert m.full_rows == (0, 8)
    assert all(v == 0 for i, v in enumerate(m.d2p.tolist()) if i != 0)
    assert all(v == 0 for i, v in enumerate(m.d2m.tolist()) if i != m.n - 1)


def test_constant_field_is_exact_solution():
    # exact arithmetic: residual of the constant field is identically zero
    mesh = build_mesh([LayerSpec(Fraction(1), Fraction(2), "a", 5),
                       LayerSpec(Fraction(2), Fraction(7, 2), "b", 6)])
    mats = {
        "a": MaterialModel(Polynomial((1,)), Polynomial((1,)), Polynomial((2,))),
        "b": MaterialModel(Polynomial((1,)), Polynomial((1,)), Polynomial((3,))),
    }
    c = Fraction(29, 4)
    u = [c] * mesh.n
    system = assemble_system(mesh, mats, u, u, Fraction(1, 8))
    res = system.residual(np.array(u, dtype=object))
    assert all(v == 0 for v in res.tolist())
    # float arithmetic: same residual is zero to rounding
    mesh_f = build_mesh([LayerSpec(1.0, 2.0, "a", 5), LayerSpec(2.0, 3.5, "b", 6)])
    uf = [7.25] * mesh_f.n
    system_f = assemble_system(mesh_f, CONST_MATERIALS, uf, uf, 0.125)
    scale = float(np.max(np.abs(system_f.rhs)))
    assert np.max(np.abs(system_f.residual(np.full(mesh_f.n, 7.25)))) < 1e-13 * scale


def test_exact_assembly_over_fractions():
    mesh = build_mesh([LayerSpec(Fraction(1), Fraction(2), "a", 4),
                       LayerSpec(Fraction(2), Fraction(3), "b", 4)])
    mats = {
        "a": MaterialModel(Polynomial((1,)), Polynomial((1,)), Polynomial((2,))),
        "b": MaterialModel(Polynomial((1,)), Polynomial((1,)), Polynomial((3,))),
    }
    c = Fraction(3, 2)
    u = [c] * mesh.n
    system = assemble_system(mesh, mats, u, u, Fraction(1, 8))
    assert system.matrix.is_exact
    res = system.residual(np.array(u, dtype=object))
    assert all(v == 0 for v in res.tolist())
    with pytest.raises(TypeError):
        assemble_system(mesh, mats, u, u, 0.125)  # float tau on exact mesh


def test_interior_consistency_against_radial_operator():
    # on a linear-in-r field the discrete radial operator reproduces
    # lam*alpha/r up to rounding (the flux difference telescopes exactly)
    lam, alpha = 2.0, 0.7
    mesh = build_mesh([LayerSpec(1.0, 2.0, "m", 16)])
    u = [alpha * r + 1.0 for r in mesh.nodes.tolist()]
    system = assemble_system(mesh, CONST_MATERIALS, u, u, 1.0)
    res = system.residual(np.asarray(u))
    for i in range(1, mesh.n - 1):
        operator_value = -res[i]  # residual = time-part(0) - L_h(u)
        assert operator_value == pytest.approx(lam * alpha / mesh.nodes[i],
                                               rel=1e-12)
    # on a cubic field the consistency error is genuinely second order:
    # u = r^3 gives (1/r) d/dr(r lam u') = 9 lam r
    errors = []
    for cells in (8, 16, 32):
        mesh = build_mesh([LayerSpec(1.0, 2.0, "m", cells)])
        u = [r**3 for r in mesh.nodes.tolist()]
        system = assemble_system(mesh, CONST_MATERIALS, u, u, 1.0)
        res = system.residual(np.asarray(u))
        worst = max(abs(-res[i] - 9.0 * lam * mesh.nodes[i])
                    for i in range(1, mesh.n - 1))
        errors.append(worst)
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.15)


def test_boundary_and_contact_rows_have_zero_rhs_and_finite_rows():
    mesh = build_mesh([LayerSpec(1.0, 2.0, "a", 6), LayerSpec(2.0, 3.0, "b", 6)])
    u = list(np.linspace(1.0, 2.0, mesh.n))
    system = assemble_system(mesh, CONST_MATERIALS, u, u, 0.1)
    for i in (0, 6, mesh.n - 1):
        assert system.rhs[i] == 0.0
    for band in (system.matrix.d2m, system.matrix.d1m, system.matrix.d0,
                 system.matrix.d1p, system.matrix.d2p):
        assert np.all(np.isfinite(band))


def test_extra_source_enters_interior_rhs_only():
    mesh = build_mesh([LayerSpec(1.0, 2.0, "a", 4), LayerSpec(2.0, 3.0, "b", 4)])
    u = [1.0] * mesh.n
    bump = [10.0] * mesh.n
    base = assemble_system(mesh, CONST_MATERIALS, u, u, 0.5)
    with_src = assemble_system(mesh, CONST_MATERIALS, u, u, 0.5, extra_source=bump)
    diff = with_src.rhs - base.rhs
    for i in range(mesh.n):
        expected = 0.0 if i in (0, 4, mesh.n - 1) else 10.0
        assert diff[i] == expected


# ---------------------------------------------------------------------------
# whole-array assembly against the row-by-row oracle
# ---------------------------------------------------------------------------

def assert_same_as_rows(system, mesh, materials, u, u_old, tau, extra=None):
    ref = assemble_rows(mesh, materials, u, u_old, tau, extra)
    m = system.matrix
    for band, ref_band in zip((m.d2m, m.d1m, m.d0, m.d1p, m.d2p, system.rhs), ref):
        if mesh.is_exact:
            assert band.dtype == object
            assert band.tolist() == list(ref_band)
            assert list(map(type, band.tolist())) == list(map(type, ref_band))
        else:
            assert band.dtype == np.float64
            assert np.array_equal(band, np.asarray(ref_band, dtype=np.float64))
    assert m.full_rows == tuple(sorted({0, mesh.n - 1, *mesh.contact_indices}))


def test_nonlinear_cylinder_matches_row_oracle_bit_for_bit():
    mesh = build_mesh(default_layers(600, 11))
    mats = {
        "a": MaterialModel(Polynomial((2.0, 0.3, -0.01)), Polynomial((1.5, 0.02)),
                           Polynomial((1.0, 0.5, 0.25)), Polynomial((0.1, 0.2, 0.3)),
                           valid_range=(-5.0, 50.0)),
        "b": MaterialModel(Polynomial((3.0,)), Polynomial((0.7, 0.01)),
                           Polynomial((3.0, -0.01)), Polynomial((1.0,))),
    }
    rng = np.random.default_rng(7)
    u = 1.0 + rng.random(mesh.n)
    u_old = 1.0 + rng.random(mesh.n)
    extra = list(rng.random(mesh.n))
    system = assemble_system(mesh, mats, u, u_old, 1e-3, extra_source=extra)
    assert_same_as_rows(system, mesh, mats, u, u_old, 1e-3, extra)


def test_exact_nonlinear_assembly_matches_row_oracle():
    mesh = build_mesh([LayerSpec(Fraction(1), Fraction(2), "a", 5),
                       LayerSpec(Fraction(2), Fraction(7, 2), "b", 6),
                       LayerSpec(Fraction(7, 2), Fraction(4), "a", 4)])
    mats = {
        "a": MaterialModel(Polynomial((Fraction(2), Fraction(1, 3))),
                           Polynomial((Fraction(1), Fraction(0), Fraction(1, 7))),
                           Polynomial((Fraction(1), Fraction(1, 2))),
                           Polynomial((Fraction(0), Fraction(1, 5))),
                           valid_range=(Fraction(0), Fraction(10))),
        "b": MaterialModel(Polynomial((Fraction(5, 4),)), Polynomial((Fraction(3),)),
                           Polynomial((Fraction(3), Fraction(-1, 9))),
                           Polynomial((Fraction(1, 2),))),
    }
    u = [1 + Fraction(j, 7) for j in range(mesh.n)]
    u_old = [2 - Fraction(j, 11) for j in range(mesh.n)]
    extra = [Fraction(j % 3, 5) for j in range(mesh.n)]
    system = assemble_system(mesh, mats, u, u_old, Fraction(1, 8), extra_source=extra)
    assert isinstance(system.matrix.d0[1], Fraction)
    assert_same_as_rows(system, mesh, mats, u, u_old, Fraction(1, 8), extra)


def test_graded_mesh_matches_row_oracle_bit_for_bit():
    nodes = [1.0 + 0.05 * j + 0.003 * j * j for j in range(21)]
    mesh = RadialMesh.from_nodes(nodes, (9,), ("a", "b"))
    mats = {
        "a": MaterialModel(Polynomial((1.0, 0.1)), Polynomial((2.0,)),
                           Polynomial((1.0, 0.5))),
        "b": MaterialModel(Polynomial((0.5,)), Polynomial((1.0, -0.05)),
                           Polynomial((4.0,)), Polynomial((0.0, 1.0))),
    }
    u = [1.0 + 0.1 * np.sin(r) for r in nodes]
    system = assemble_system(mesh, mats, u, u, 0.02)
    assert_same_as_rows(system, mesh, mats, u, u, 0.02)


def test_exact_graded_mesh_matches_row_oracle():
    # ints and Fractions, with steps that vary inside each layer
    nodes = [1, Fraction(9, 8), Fraction(4, 3), Fraction(3, 2), Fraction(7, 4),
             2, Fraction(13, 6), Fraction(5, 2), Fraction(8, 3), 3, Fraction(31, 10),
             Fraction(17, 5), 4]
    mesh = RadialMesh.from_nodes(nodes, (5,), ("a", "b"))
    steps = mesh.steps.tolist()
    assert mesh.is_exact and len(set(steps[:5])) > 1 and len(set(steps[5:])) > 1
    mats = {
        "a": MaterialModel(Polynomial((Fraction(1), Fraction(1, 4))), Polynomial((2,)),
                           Polynomial((1, Fraction(1, 2))), Polynomial((0, 1))),
        "b": MaterialModel(Polynomial((Fraction(3, 2),)), Polynomial((1,)),
                           Polynomial((3, Fraction(-1, 7)))),
    }
    u = [1 + Fraction(j, 9) for j in range(mesh.n)]
    u_old = [Fraction(3, 2) - Fraction(j, 13) for j in range(mesh.n)]
    system = assemble_system(mesh, mats, u, u_old, Fraction(1, 20))
    assert_same_as_rows(system, mesh, mats, u, u_old, Fraction(1, 20))
    # every assembled entry is a Fraction; only unassembled slots hold int 0
    m = system.matrix
    assert all(type(v) is Fraction for v in m.d0.tolist())
    interior = [i for i in range(1, mesh.n - 1) if i not in mesh.contact_indices]
    assert all(type(band[i]) is Fraction
               for band in (m.d1m, m.d1p, system.rhs) for i in interior)


def test_matvec_matches_row_oracle_bit_for_bit():
    rng = np.random.default_rng(8)
    for kind, width in (("pd", 2), ("td", 1)):
        matrix = make_random_system(30, 3, rng, kind=kind).matrix
        x = rng.normal(size=30)
        assert matrix.matvec(x).tolist() == matvec_rows(matrix, x.tolist(), width)


# ---------------------------------------------------------------------------
# errors name the node at fault
# ---------------------------------------------------------------------------

def test_out_of_range_temperature_names_node_and_material():
    mesh = build_mesh(default_layers(120, 3))
    mats = {mid: MaterialModel(Polynomial((1.0,)), Polynomial((1.0,)),
                               Polynomial((1.0,)), valid_range=(0.0, 10.0))
            for mid in ("a", "b")}
    u = np.full(mesh.n, 1.0)
    j = mesh.contact_indices[1] + 5  # interior node of the third layer
    u[j], u[j + 20] = 50.0, -3.0
    with pytest.raises(MaterialDomainError, match=f"node {j} ") as info:
        assemble_system(mesh, mats, u, u, 0.1)
    assert (info.value.node, info.value.material, info.value.value) == (j, "a", 50.0)


def test_nonpositive_conductivity_names_node_and_material():
    mesh = build_mesh(default_layers(120, 3))
    mats = {"a": MaterialModel(Polynomial((1.0,)), Polynomial((1.0,)), Polynomial((1.0,))),
            # lambda(u) = 2 - u turns negative above u = 2
            "b": MaterialModel(Polynomial((1.0,)), Polynomial((1.0,)),
                               Polynomial((2.0, -1.0)))}
    u = np.full(mesh.n, 1.0)
    j = mesh.contact_indices[0] + 7  # interior node of the second layer
    u[j] = u[j + 1] = 2.5  # only the half point j + 1/2 sees a mean above 2
    with pytest.raises(MaterialDomainError, match="conductivity") as info:
        assemble_system(mesh, mats, u, u, 0.1)
    assert (info.value.node, info.value.material, info.value.value) == (j, "b", -0.5)


def test_contact_conductivity_fault_names_node_and_material():
    mesh = build_mesh(default_layers(120, 3))
    mats = {"a": MaterialModel(Polynomial((1.0,)), Polynomial((1.0,)), Polynomial((1.0,))),
            "b": MaterialModel(Polynomial((1.0,)), Polynomial((1.0,)),
                               Polynomial((2.0, -1.0)))}
    i_star = mesh.contact_indices[0]  # layer "a" on its left, "b" on its right
    hot_contact = np.full(mesh.n, 1.0)
    hot_contact[i_star] = 2.5
    # the contact and the half point above it, of row i* + 1, both see 2.5
    hot_pair = hot_contact.copy()
    hot_pair[i_star + 1] = 2.5
    calls = [lambda: contact_conductivities(mesh, mats, hot_contact)]
    calls += [lambda u=u: assemble_system(mesh, mats, u, u, 0.1)
              for u in (hot_contact, hot_pair)]
    for call in calls:
        with pytest.raises(MaterialDomainError,
                           match=f"node {i_star} \\(material 'b'\\): conductivity") as info:
            call()
        assert (info.value.node, info.value.material, info.value.value) == (i_star, "b", -0.5)


def test_assembly_evaluates_coefficients_once_per_material_not_per_node(monkeypatch):
    mesh = build_mesh(default_layers(10_000, 11))
    mats = {"a": MaterialModel(Polynomial((1.0, 0.1)), Polynomial((1.0,)),
                               Polynomial((1.0, 0.5))),
            "b": MaterialModel(Polynomial((1.0,)), Polynomial((2.0, 0.01)),
                               Polynomial((3.0,)), Polynomial((1.0, 0.2)))}
    calls = []
    original = Polynomial.__call__

    def counted(self, u):
        calls.append(1)
        return original(self, u)

    monkeypatch.setattr(Polynomial, "__call__", counted)
    u = np.linspace(1.0, 2.0, mesh.n)
    assemble_system(mesh, mats, u, u, 1e-3)
    # rho, cv, source and two conductivities per material, two per contact
    assert 0 < len(calls) <= 5 * len(mats) + 2 * mesh.k
