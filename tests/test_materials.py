"""Material models, and the oracle's stencil-time coefficient sampling."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import CoefficientSample, sample
from radialheat import MaterialDomainError, MaterialModel, Polynomial


def make_model(conductivity, valid_range=None):
    return MaterialModel(rho=Polynomial((2.0,)), cv=Polynomial((3.0,)),
                         conductivity=Polynomial(conductivity),
                         valid_range=valid_range)


def test_constant_conductivity_any_temperatures():
    model = make_model((2.0,))
    s = sample(model, 10.0, -5.0, 400.0)
    assert s.lambda_minus == 2.0
    assert s.lambda_plus == 2.0
    assert s.rho_c == 6.0


def test_linear_conductivity_uses_mean_temperature():
    model = make_model((0.0, 1.0))  # lambda(u) = u
    s = sample(model, 1.0, 4.0, 3.0)
    assert s.lambda_plus == 2.0
    assert s.lambda_minus == 2.5


def test_quadratic_conductivity_is_lambda_of_mean_not_mean_of_lambda():
    model = make_model((0.0, 0.0, 1.0))  # lambda(u) = u^2
    s = sample(model, 1.0, 1.0, 3.0)
    assert s.lambda_plus == 4.0  # lambda((1+3)/2); mean of lambdas would be 5


def test_sample_swap_symmetry():
    rng = np.random.default_rng(11)
    model = make_model((1.0, 0.5, 0.25))
    for _ in range(50):
        u_i, u_m, u_p = rng.uniform(0.1, 2.0, 3)
        s1 = sample(model, u_i, u_m, u_p)
        s2 = sample(model, u_i, u_p, u_m)
        assert s1.lambda_minus == s2.lambda_plus
        assert s1.lambda_plus == s2.lambda_minus
        assert s1.rho_c == s2.rho_c and s1.phi == s2.phi


def test_out_of_range_temperature_rejected():
    model = make_model((1.0,), valid_range=(0.0, 100.0))
    with pytest.raises(MaterialDomainError):
        sample(model, 150.0, 50.0, 50.0)
    with pytest.raises(MaterialDomainError):
        sample(model, 50.0, -1.0, 50.0)


def test_nonpositive_coefficient_rejected():
    model = make_model((1.0, -1.0))  # lambda(u) = 1 - u, zero at u = 1
    with pytest.raises(MaterialDomainError):
        sample(model, 1.0, 1.0, 1.0)
    bad_rho = MaterialModel(rho=Polynomial((-1.0,)), cv=Polynomial((1.0,)),
                            conductivity=Polynomial((1.0,)))
    with pytest.raises(MaterialDomainError):
        sample(bad_rho, 0.0, 0.0, 0.0)


def test_exact_sampling_with_fractions():
    model = MaterialModel(rho=Polynomial((Fraction(2),)),
                          cv=Polynomial((Fraction(1, 2),)),
                          conductivity=Polynomial((Fraction(1), Fraction(1))))
    s = sample(model, Fraction(1), Fraction(0), Fraction(2))
    assert s.lambda_minus == Fraction(3, 2)
    assert s.lambda_plus == Fraction(5, 2)
    assert isinstance(s.lambda_plus, Fraction)


def test_degenerate_sample_constructible_directly():
    s = CoefficientSample(rho_c=1.0, lambda_minus=0.0, lambda_plus=0.0, phi=0.0)
    assert s.lambda_minus == 0.0


def test_constant_coefficients_flag():
    assert make_model((2.0,)).constant_coefficients
    assert not make_model((2.0, 1.0)).constant_coefficients
    with_source = MaterialModel(rho=Polynomial((1.0,)), cv=Polynomial((1.0,)),
                                conductivity=Polynomial((1.0,)),
                                source=Polynomial((0.0, 1.0)))
    assert not with_source.constant_coefficients


def test_polynomial_horner_and_degree():
    p = Polynomial((1, 2, 3))
    assert p(2) == 1 + 4 + 12
    assert p.degree == 2
    assert Polynomial((5, 0, 0)).degree == 0
