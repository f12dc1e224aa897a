"""Exact solvers, the deferred-eps mechanism and rational-function scalars."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from sympy import isprime

from oracles import (bareiss_solve, exact_dense_rows, fraction_det,
                     fraction_kernel_solve, pivoted_fraction_solve)
import radialheat
from radialheat import (BreakdownError, ExactInputError, LinearSystem, PentaMatrix, SingularMatrixError,
                        TriMatrix, build_bench_case, exact_solve_pd,
                        exact_solve_td, exact_solvers, pd_to_td, solve_pd_lu,
                        solve_td_thomas)
from radialheat.band_solvers import LU, THOMAS
from radialheat.bench import make_random_system
from radialheat.exact_solvers import _defer, _finalize


def frac_array(values):
    return np.array([Fraction(v) for v in values], dtype=object)


def tri(sub, diag, sup, rhs):
    return LinearSystem(TriMatrix(frac_array(sub), frac_array(diag),
                                  frac_array(sup)), frac_array(rhs))


# ---------------------------------------------------------------------------
# deferred scalars: rational functions of eps and their limit at eps = 0
# ---------------------------------------------------------------------------

def test_deferred_scalar_canonical_form():
    eps = _defer(0)
    v = (eps * eps - 1) / (eps - 1)  # cancels to eps + 1
    assert v == eps + 1
    assert v.denom == 1
    assert _finalize(v) == 1
    assert type(_finalize(v)) is Fraction


def test_deferred_scalar_limit_cancels_singular_intermediates():
    eps = _defer(0)
    v = 1 / eps
    w = (v * 3 + 5) / (v + 1)  # (3 + 5 eps)/(1 + eps) -> 3
    assert _finalize(w) == 3


def test_deferred_scalar_pole_raises():
    eps = _defer(0)
    with pytest.raises(SingularMatrixError):
        _finalize(1 / eps)
    with pytest.raises(SingularMatrixError):
        _finalize((eps + 1) / (eps * eps - eps))  # pole after cancellation


def test_deferred_scalar_mixed_arithmetic_with_fractions():
    eps = _defer(0)
    v = Fraction(1, 2) + eps
    assert _finalize(v - eps) == Fraction(1, 2)
    assert _finalize(Fraction(3) * eps / eps) == 3
    assert _finalize(Fraction(2) / (eps + 1)) == 2
    assert _finalize(Fraction(5, 3)) == Fraction(5, 3)
    x = _finalize((Fraction(-7, 6) * eps + Fraction(4, 9)) / (eps + 3))
    assert x == Fraction(4, 27)
    assert type(x.numerator) is int and type(x.denominator) is int


# ---------------------------------------------------------------------------
# exact pentadiagonal solve
# ---------------------------------------------------------------------------

def test_exact_pd_identity():
    n = 6
    z = frac_array([0] * n)
    m = PentaMatrix(z.copy(), z.copy(), frac_array([1] * n), z.copy(), z.copy(), ())
    b = frac_array(range(1, n + 1))
    assert exact_solve_pd(LinearSystem(m, b)) == list(b)


def test_exact_pd_matches_fraction_free_oracle():
    rng = np.random.default_rng(13)
    for _ in range(8):
        system = make_random_system(8, 1, rng, exact=True)
        x = exact_solve_pd(system)
        ref = bareiss_solve(exact_dense_rows(system.matrix), system.rhs.tolist())
        assert x == ref


def test_exact_pd_residual_exactly_zero():
    rng = np.random.default_rng(14)
    system = make_random_system(20, 3, rng, exact=True)
    x = exact_solve_pd(system)
    res = system.matrix.matvec(np.array(x, dtype=object)) - system.rhs
    assert all(v == 0 for v in res.tolist())


@pytest.mark.parametrize("solve, kind", [(exact_solve_pd, "pd"),
                                         (exact_solve_td, "td")],
                         ids=["SPDM", "STDM"])
def test_exact_pd_rejects_float_input(solve, kind):
    # floats are turned away before any kernel runs, so none reaches the
    # eps field, which would take it as a rational
    rng = np.random.default_rng(15)
    system = make_random_system(8, 0, rng, kind=kind)  # float system
    with pytest.raises(ExactInputError):
        solve(system)


# ---------------------------------------------------------------------------
# exact tridiagonal solve and the deferred zero
# ---------------------------------------------------------------------------

def test_zero_first_pivot_solved_by_deferred_eps():
    # [[0,1],[1,0]] x = (1,2): plain Thomas breaks, deferred eps recovers (2,1)
    system = tri([0, 1], [0, 0], [1, 0], [1, 2])
    with pytest.raises(BreakdownError):
        solve_td_thomas(system)
    assert exact_solve_td(system) == [Fraction(2), Fraction(1)]


def test_dominant_system_identical_to_numerical_thomas_over_fractions():
    rng = np.random.default_rng(16)
    for _ in range(6):
        system = make_random_system(9, 0, rng, exact=True, kind="td")
        x_exact = exact_solve_td(system)
        x_thomas = solve_td_thomas(system).solution.tolist()
        assert x_exact == x_thomas
        penta = make_random_system(9, 1, rng, exact=True)
        assert exact_solve_pd(penta) == solve_pd_lu(penta).solution.tolist()


def test_engineered_zero_leading_minor_matches_pivoted_oracle():
    # second leading principal minor vanishes: d0*d1 == sub1*sup0, so the
    # second Thomas pivot is exactly zero while the matrix stays regular
    rng = np.random.default_rng(18)
    for _ in range(6):
        vals = [Fraction(int(v)) for v in rng.integers(1, 7, 12)]
        sub = [0, vals[0], vals[1], vals[2], vals[3], vals[4], vals[5], Fraction(2)]
        sup = [vals[6], vals[7], vals[8], vals[9], vals[10], vals[11], Fraction(3), 0]
        diag = [Fraction(2)] + [Fraction(0)] * 1 + [Fraction(5)] * 6
        diag[1] = sub[1] * sup[0] / diag[0]  # zero second pivot by design
        rhs = [Fraction(int(v)) for v in rng.integers(-5, 6, 8)]
        system = tri(sub, diag, sup, rhs)
        ref = pivoted_fraction_solve(exact_dense_rows(system.matrix), rhs)
        assert exact_solve_td(system) == ref


def test_spdm_zero_leading_minor_matches_pivoted_oracle():
    # the leading (r+1) x (r+1) minor of a regular pentadiagonal matrix is
    # made to vanish, r >= 2, so LU pivot r is exactly zero: NPDM breaks down
    # there and SPDM must defer it to eps
    rng = np.random.default_rng(21)
    for _ in range(6):
        system = make_random_system(9, 2, rng, exact=True)
        m = system.matrix
        r = int(rng.integers(2, 7))
        rows = exact_dense_rows(m)
        lead = fraction_det([row[:r] for row in rows[:r]])
        m.d0[r] -= fraction_det([row[:r + 1] for row in rows[:r + 1]]) / lead
        rows = exact_dense_rows(m)
        assert fraction_det([row[:r + 1] for row in rows[:r + 1]]) == 0
        assert fraction_det(rows) != 0
        with pytest.raises(BreakdownError) as err:
            solve_pd_lu(system)
        assert err.value.row == r
        ref = pivoted_fraction_solve(rows, system.rhs.tolist())
        assert exact_solve_pd(system) == ref


def test_exact_td_residual_exactly_zero_and_eps_free():
    system = tri([0, 1], [0, 0], [1, 0], [1, 2])
    x = exact_solve_td(system)
    assert all(isinstance(v, Fraction) for v in x)
    res = system.matrix.matvec(np.array(x, dtype=object)) - system.rhs
    assert all(v == 0 for v in res.tolist())


def test_singular_inconsistent_matrix_raises():
    # rows (1,1) and (1,1) with incompatible right-hand sides: the pole at
    # eps = 0 survives cancellation
    system = tri([0, 1], [1, 1], [1, 0], [1, 2])
    with pytest.raises(SingularMatrixError):
        exact_solve_td(system)


def test_singular_consistent_matrix_returns_a_solution():
    # same singular matrix, compatible rhs: the limit exists and the result
    # is one member of the solution set (residual exactly zero)
    system = tri([0, 1], [1, 1], [1, 0], [1, 1])
    x = exact_solve_td(system)
    res = system.matrix.matvec(np.array(x, dtype=object)) - system.rhs
    assert all(v == 0 for v in res.tolist())
    assert all(type(v) is Fraction for v in x)


def test_spdm_and_stdm_agree_after_exact_reduction():
    rng = np.random.default_rng(19)
    system = make_random_system(14, 2, rng, exact=True)
    x_pd = exact_solve_pd(system)
    x_td = exact_solve_td(pd_to_td(system))
    assert x_pd == x_td


def test_shift_invariance_of_exact_solution():
    # exact solution of A x = b is the exact fixed point of the shifted
    # system: (A + P) x = b + P x for any diagonal P
    rng = np.random.default_rng(20)
    system = make_random_system(10, 1, rng, exact=True)
    x = np.array(exact_solve_pd(system), dtype=object)
    p = frac_array([rng.integers(0, 4) for _ in range(10)])
    shifted = system.matrix.copy()
    shifted.d0 = shifted.d0 + p
    lhs = shifted.matvec(x)
    rhs = system.rhs + p * x
    assert all(a == b for a, b in zip(lhs.tolist(), rhs.tolist()))


# ---------------------------------------------------------------------------
# modular solves, certification and the Fraction fallback
# ---------------------------------------------------------------------------

P = exact_solvers.PRIMES[0]


@pytest.fixture
def fallbacks(monkeypatch):
    """The kernel names of the exact solvers' calls into the Fraction
    fallback, in order."""
    calls = []
    fraction_factors = exact_solvers._fraction_factors

    def counted(kernel, inputs):
        calls.append(kernel.name)
        return fraction_factors(kernel, inputs)

    monkeypatch.setattr(exact_solvers, "_fraction_factors", counted)
    return calls


def test_every_modulus_is_a_word_size_prime():
    assert len(set(exact_solvers.PRIMES)) == len(exact_solvers.PRIMES) >= 2
    for p in exact_solvers.PRIMES:
        assert isprime(p) and p < 2**64


def unlucky_tri(**entries):
    """A regular tridiagonal system whose second leading minor is P, so its
    second Thomas pivot is zero mod P but not over Q; entries overrides
    single entries as name=(index, value)."""
    bands = {"sub": [0, 1, 2, 1, 3, 1], "diag": [1, P + 1, 7, 9, 8, 6],
             "sup": [1, 2, 1, 3, 1, 0], "rhs": [1, -2, 3, 5, -4, 6]}
    for name, (i, value) in entries.items():
        bands[name][i] = value
    return tri(bands["sub"], bands["diag"], bands["sup"], bands["rhs"])


def assert_matches_pivoted_oracle(x, system):
    rows = exact_dense_rows(system.matrix)
    assert fraction_det(rows) != 0
    assert x == pivoted_fraction_solve(rows, system.rhs.tolist())
    assert all(type(v) is Fraction for v in x)


def test_unlucky_prime_tridiagonal_falls_back(fallbacks):
    system = unlucky_tri()
    rows = exact_dense_rows(system.matrix)
    assert fraction_det([row[:2] for row in rows[:2]]) == P
    assert_matches_pivoted_oracle(exact_solve_td(system), system)
    assert fallbacks == ["THOMAS"]


def test_unlucky_prime_pentadiagonal_falls_back(fallbacks):
    rng = np.random.default_rng(22)
    system = make_random_system(9, 2, rng, exact=True)
    m = system.matrix
    m.d0[1] = (P + m.d1p[0] * m.d1m[1]) / m.d0[0]
    rows = exact_dense_rows(m)
    assert fraction_det([row[:2] for row in rows[:2]]) == P
    assert_matches_pivoted_oracle(exact_solve_pd(system), system)
    assert fallbacks == ["LU"]


@pytest.mark.parametrize("entry", [{"sup": (2, Fraction(3, P))},
                                   {"sub": (4, Fraction(-1, 2 * P))},
                                   {"rhs": (3, Fraction(5, P))}],
                         ids=["matrix", "matrix-multiple", "rhs"])
def test_denominator_divisible_by_the_prime_falls_back(fallbacks, entry):
    system = unlucky_tri(diag=(1, 5), **entry)
    assert_matches_pivoted_oracle(exact_solve_td(system), system)
    # the same bands as a pentadiagonal matrix with one full row, row 1
    penta = LinearSystem(PentaMatrix(
        frac_array([0] * 6), system.matrix.sub, system.matrix.diag,
        system.matrix.sup, frac_array([0, 1, 0, 0, 0, 0]), (1,)), system.rhs)
    assert_matches_pivoted_oracle(exact_solve_pd(penta), penta)
    assert fallbacks == ["THOMAS", "LU"]


@pytest.mark.parametrize("seed", [1, 2])
def test_large_height_answer_falls_back_to_the_fraction_kernels(fallbacks,
                                                                seed):
    # a random integer right-hand side: the answer's parts have thousands
    # of bits, beyond what the primes of PRIMES can rebuild
    case = build_bench_case(200, 3, seed, exact=True)
    values = np.random.default_rng(seed).integers(-9, 10, 200)
    rhs = frac_array(values.tolist())
    pd = LinearSystem(case.pd_system.matrix, rhs)
    td = LinearSystem(case.td_system.matrix, rhs)
    # Fractions of numpy ints, as Fraction(np.int64(v)) makes them, are
    # read as Python ints rather than overflowing in int64 products
    numpy_rhs = frac_array(values)
    x_pd = exact_solve_pd(LinearSystem(pd.matrix, numpy_rhs))
    x_td = exact_solve_td(LinearSystem(td.matrix, numpy_rhs))
    assert x_pd == fraction_kernel_solve(pd, LU)
    assert x_td == fraction_kernel_solve(td, THOMAS)
    assert max(v.denominator.bit_length() for v in x_pd) > 1000
    assert fallbacks == ["LU", "THOMAS"]


def test_a_wrong_reconstruction_is_never_returned(monkeypatch, fallbacks):
    # one component rebuilt as a wrong small rational fails the exact
    # check A x == b for every prime, so the answer comes from the fallback
    reconstruct = exact_solvers._reconstruct

    def wrong(x_mod, m):
        x = reconstruct(x_mod, m)
        if x is not None:
            x[len(x) // 2] = Fraction(1, 3)
        return x

    monkeypatch.setattr(exact_solvers, "_reconstruct", wrong)
    case = build_bench_case(200, 3, 4, exact=True)
    assert exact_solve_pd(case.pd_system) == case.y_bar.tolist() \
        == fraction_kernel_solve(case.pd_system, LU)
    assert exact_solve_td(case.td_system) == case.y_bar.tolist() \
        == fraction_kernel_solve(case.td_system, THOMAS)
    assert fallbacks == ["LU", "THOMAS"]


@pytest.mark.parametrize("kind", ["pd", "td"])
def test_answer_beyond_one_prime_certifies_with_two(fallbacks, kind):
    # 41-bit parts: one prime rebuilds parts below 2**31.5, two below 2**63.5
    rng = np.random.default_rng(23)
    system = make_random_system(12, 2, rng, exact=True, kind=kind)
    parts = rng.integers(2**40, 2**41, (12, 2)).tolist()
    x = [Fraction(n, d) for n, d in parts]
    system.rhs = system.matrix.matvec(np.array(x, dtype=object))
    solve = exact_solve_pd if kind == "pd" else exact_solve_td
    assert solve(system) == x
    assert fallbacks == []


def test_exact_bench_case_is_solved_without_a_fraction_sweep(fallbacks):
    case = build_bench_case(1000, 11, seed=1, exact=True)
    assert exact_solve_pd(case.pd_system) == case.y_bar.tolist()
    assert exact_solve_td(case.td_system) == case.y_bar.tolist()
    assert fallbacks == []


@pytest.mark.parametrize("kind", ["pd", "td"])
def test_zero_first_pivot_carries_eps_through_every_later_pivot(fallbacks,
                                                                kind):
    # with the first pivot deferred to eps, every later pivot of the sweep is
    # a rational function of eps, and the limit is still the exact answer
    case = build_bench_case(200, 3, 0, exact=True)
    system = case.pd_system if kind == "pd" else case.td_system
    system.matrix.main[0] = Fraction(0)
    kernel = LU if kind == "pd" else THOMAS
    solve = exact_solve_pd if kind == "pd" else exact_solve_td
    x = solve(system)
    assert fallbacks == [kernel.name]
    assert all(type(v) is Fraction for v in x)
    res = system.matrix.matvec(np.array(x, dtype=object)) - system.rhs
    assert all(v == 0 for v in res.tolist())
    inputs = [band.tolist() for band in system.matrix.bands()]
    pivots = exact_solvers._fraction_factors(kernel, inputs)[2]
    assert not any(isinstance(p, Fraction) for p in pivots)


def test_sympy_is_imported_only_at_a_zero_pivot():
    # the modular solves run without sympy, which a zero pivot brings in
    script = """
import sys
from fractions import Fraction
from radialheat import build_bench_case, exact_solve_pd, exact_solve_td
case = build_bench_case(200, 3, 0, exact=True)
assert exact_solve_pd(case.pd_system) == case.y_bar.tolist()
assert exact_solve_td(case.td_system) == case.y_bar.tolist()
print(any(name.partition(".")[0] == "sympy" for name in sys.modules))
case.td_system.matrix.main[0] = Fraction(0)
exact_solve_td(case.td_system)
print("sympy" in sys.modules)
"""
    src = str(Path(radialheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["False", "True"]
