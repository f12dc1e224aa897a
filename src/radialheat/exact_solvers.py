"""Exact rational solvers ("SPDM"/"STDM") with a deferred zero pivot.

SPDM and STDM run the LU and THOMAS kernels of band_solvers, the same code
as NPDM and NTDM, over exact rational scalars, so the residual of every
solve is exactly zero and no dominance assumption is needed.  Only the
pivot policy differs: the thresholds are zero, and when a pivot (a quotient
of consecutive leading principal minors) is exactly zero the kernel's
on_zero action substitutes a formal parameter eps, and the sweep continues
over rational functions of eps.  After back substitution every component
is finalized by taking the limit eps -> 0 (common eps factors are cancelled
first; individual intermediates may be singular at eps = 0 while the
solution is regular).  A pole at eps = 0 that survives cancellation means
the matrix itself is singular.

Accepted scalars are ints, fractions.Fraction and compatible exact rational
types such as gmpy2.mpq; floats are rejected.  DeferredScalar keeps its
numerator/denominator polynomials coprime and the denominator monic after
every operation, which bounds degree growth through the recurrences.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

import numpy as np

from .assembly import LinearSystem
from .band_solvers import SOLVERS, Kernel, kernel_inputs


class SingularMatrixError(ArithmeticError):
    """The system has no unique solution (pole survives at eps = 0)."""


class ExactInputError(TypeError):
    """Exact solvers were handed floating-point data."""


# ---------------------------------------------------------------------------
# polynomials in eps, coefficients in an exact field (Fraction, mpq, ...)
# ---------------------------------------------------------------------------

_ZERO_POLY = (0,)


def _ptrim(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padd(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return _ptrim(out)


def _pneg(p):
    return tuple(-c for c in p)

def _pis_zero(p):
    return len(p) == 1 and p[0] == 0


def _pmul(p, q):
    if _pis_zero(p) or _pis_zero(q):
        return _ZERO_POLY
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return _ptrim(out)


def _pdivmod(p, q):
    """Polynomial division over the coefficient field."""
    if _pis_zero(q):
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = len(q) - 1
    lead = q[-1]
    if len(rem) - 1 < dq:
        return _ZERO_POLY, _ptrim(rem)
    quot = [0] * (len(rem) - dq)
    for k in range(len(rem) - 1, dq - 1, -1):
        coeff = rem[k]
        if coeff == 0:
            continue
        factor = coeff / lead
        quot[k - dq] = factor
        for j in range(dq + 1):
            rem[k - dq + j] = rem[k - dq + j] - factor * q[j]
    return _ptrim(quot), _ptrim(rem)


def _pgcd(p, q):
    """Monic polynomial gcd (Euclid over the coefficient field)."""
    a, b = p, q
    while not _pis_zero(b):
        _, r = _pdivmod(a, b)
        a, b = b, r
    if _pis_zero(a):
        return _ZERO_POLY
    lead = a[-1]
    return tuple(c / lead for c in a)


class DeferredScalar:
    """Rational function of the formal parameter eps.

    Canonical form: numerator and denominator share no polynomial factor and
    the denominator is monic.  finalize() returns the limit at eps = 0.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,), _canonical=False):
        if _canonical:
            self.num = num
            self.den = den
            return
        num = _ptrim(num)
        den = _ptrim(den)
        if _pis_zero(den):
            raise ZeroDivisionError("DeferredScalar with zero denominator")
        if _pis_zero(num):
            self.num = _ZERO_POLY
            self.den = (1,)
            return
        g = _pgcd(num, den)
        if len(g) > 1:
            num, _ = _pdivmod(num, g)
            den, _ = _pdivmod(den, g)
        lead = den[-1]
        if lead != 1:
            num = tuple(c / lead for c in num)
            den = tuple(c / lead for c in den)
        self.num = num
        self.den = den

    # -- construction helpers ------------------------------------------------

    @classmethod
    def epsilon(cls) -> "DeferredScalar":
        """The formal parameter itself (the deferred 'symbolic zero')."""
        return cls((0, 1), (1,), _canonical=True)

    @classmethod
    def _coerce(cls, value):
        if isinstance(value, DeferredScalar):
            return value
        if isinstance(value, float):
            raise ExactInputError("cannot mix floats into an exact solve")
        if isinstance(value, (int, np.integer)):
            value = Fraction(int(value))
        return cls((value,), (1,), _canonical=True)

    # -- queries ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return _pis_zero(self.num)

    def finalize(self):
        """Limit at eps = 0.  Raises SingularMatrixError on a pole."""
        den0 = self.den[0]
        if den0 == 0:
            raise SingularMatrixError(
                "pole at eps = 0: the matrix is singular")
        return self.num[0] / den0

    # -- field arithmetic --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return DeferredScalar(
            _padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
            _pmul(self.den, o.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return DeferredScalar(_pneg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        return DeferredScalar(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("division by exact zero")
        return DeferredScalar(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, DeferredScalar):
            return self.num == other.num and self.den == other.den
        if self.den == (1,) and len(self.num) == 1:
            return self.num[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"DeferredScalar(num={self.num!r}, den={self.den!r})"


def _finalize(value):
    if isinstance(value, DeferredScalar):
        return value.finalize()
    return value


def _exact_list(arr, what: str) -> list:
    values = list(arr.tolist() if isinstance(arr, np.ndarray) else arr)
    out = []
    for v in values:
        if isinstance(v, (float, np.floating)):
            raise ExactInputError(
                f"{what} contains float {v!r}; exact solvers need rational "
                f"input (int, Fraction or compatible)")
        if isinstance(v, (int, np.integer)):
            v = Fraction(int(v))
        out.append(v)
    return out


def _defer(row: int) -> DeferredScalar:
    """Exact pivot policy: a zero pivot becomes the formal eps."""
    return DeferredScalar.epsilon()


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def factorize(matrix, kernel: Kernel) -> Callable[[np.ndarray], list]:
    """Factor matrix once under the exact pivot policy; the returned function
    solves for one right-hand side per call and finalizes (eps -> 0)."""
    factors = kernel.factor(kernel_inputs(matrix, kernel, _exact_list),
                            [0] * matrix.n, _defer)
    return lambda rhs: [_finalize(v) for v in
                        kernel.solve(factors, _exact_list(rhs, "rhs"))]


def exact_solve_pd(system: LinearSystem) -> list:
    """Exact pentadiagonal LU solve ("SPDM").

    The LU kernel of the numerical NPDM, run over exact scalars; zero pivots
    are deferred to eps.  Returns a list of exact scalars whose residual is
    exactly zero.
    """
    return factorize(system.matrix, SOLVERS["SPDM"].kernel)(system.rhs)


def exact_solve_td(system: LinearSystem) -> list:
    """Exact Thomas solve ("STDM"); dominance is not required.

    The forward-sweep denominators are the quotients of consecutive leading
    principal minors; whenever one of them is exactly zero the formal eps is
    used instead and the recurrences continue over rational functions of
    eps.  Components are finalized (eps -> 0) after back substitution, so
    eps never appears in the output.

    A singular matrix with an inconsistent right-hand side leaves a pole at
    eps = 0 and raises SingularMatrixError; a singular but consistent system
    has a finite limit and yields one member of its solution set.
    """
    return factorize(system.matrix, SOLVERS["STDM"].kernel)(system.rhs)
