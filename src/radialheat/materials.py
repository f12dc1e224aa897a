"""Temperature-dependent material coefficients.

Each layer carries four coefficient functions of temperature: density,
specific heat capacity, thermal conductivity and a volumetric source.  They
are configured as polynomials (coefficient lists, constant term first),
which covers constant and piecewise-linear equations and keeps evaluation
exact when fed rational temperatures.  Arbitrary callables are a library
extension point, not part of the configuration format.

Conductivity at a cell midpoint is always the conductivity OF the mean
temperature, lambda((u_i + u_j)/2), never the mean of two conductivities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class MaterialDomainError(ValueError):
    """Temperature outside the declared validity range, or a coefficient
    evaluated to a non-physical (non-positive) value.

    Every error carries the offending value.  Errors raised during assembly
    also carry the node at fault and its material id; the single-value
    checks below leave those None.
    """

    def __init__(self, message: str, node: int | None = None,
                 material: str | None = None, value=None):
        super().__init__(message)
        self.node = node
        self.material = material
        self.value = value


class Polynomial:
    """Polynomial in the temperature, evaluated by Horner's rule.

    Coefficients are stored constant-term first.  Evaluation preserves the
    arithmetic of its inputs: Fraction coefficients at Fraction temperatures
    stay exact.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        coeffs = tuple(coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0,)
        self.coeffs = coeffs

    def __call__(self, u):
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * u + c
        return acc

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_constant(self) -> bool:
        return self.degree == 0

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)


def _as_polynomial(p) -> Polynomial:
    return p if isinstance(p, Polynomial) else Polynomial(p)


@dataclass(frozen=True)
class MaterialModel:
    """Coefficient functions of one layer plus their validity range.

    rho, cv and conductivity must stay positive over the validity range;
    evaluating any coefficient outside the range raises MaterialDomainError.
    valid_range=None means unbounded.
    """

    rho: Polynomial
    cv: Polynomial
    conductivity: Polynomial
    source: Polynomial = Polynomial((0,))
    valid_range: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "rho", _as_polynomial(self.rho))
        object.__setattr__(self, "cv", _as_polynomial(self.cv))
        object.__setattr__(self, "conductivity", _as_polynomial(self.conductivity))
        object.__setattr__(self, "source", _as_polynomial(self.source))
        if self.valid_range is not None:
            lo, hi = self.valid_range
            if not lo < hi:
                raise ValueError(f"empty validity range ({lo}, {hi})")

    def check_temperature(self, u):
        if self.valid_range is None:
            return
        lo, hi = self.valid_range
        if not (lo <= u <= hi):
            raise MaterialDomainError(
                f"temperature {u} outside validity range [{lo}, {hi}]", value=u)

    def conductivity_at(self, u):
        """lambda(u), range- and positivity-checked."""
        self.check_temperature(u)
        lam = self.conductivity(u)
        if not lam > 0:
            raise MaterialDomainError(
                f"conductivity({u}) = {lam} is not positive", value=lam)
        return lam

    @property
    def constant_coefficients(self) -> bool:
        """True when the equation this material produces is linear: rho, cv
        and conductivity constant and the source independent of temperature."""
        return (
            self.rho.is_constant
            and self.cv.is_constant
            and self.conductivity.is_constant
            and self.source.is_constant
        )
