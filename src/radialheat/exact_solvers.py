"""Exact rational solvers ("SPDM"/"STDM"): modular solves, certified over
Q, with an exact fallback that defers a zero pivot.

SPDM and STDM run the LU and THOMAS kernels of band_solvers, the same code
as NPDM and NTDM, with zero pivot thresholds, so no dominance assumption is
needed and the residual of every solve is exactly zero.  They run them over
two kinds of exact scalar.

Modular solve (multimodular, after Dixon, Numer. Math. 40, 1982, and Wang,
Guy & Davenport, SIGSAM Bull. 16, 1982).  The rational inputs are reduced
to residues modulo a word-size prime p, numerator times the inverse of the
denominator, and the kernels run over _Residue, the field GF(p).  With the
residues of x for the primes used so far, the Chinese remainder theorem
gives x mod m, m their product, and rational reconstruction rebuilds each
component as the one n/d with |n|, d <= sqrt(m/2) and n = d x (mod m).  The
rebuilt x is returned only once A x == b holds exactly over Q
(certification).  Each prime costs O(N), and the primes needed grow with
the size of the answer, not with the Fractions the elimination passes
through.  The kernels' pivots multiply to det A, so a modular factorization
without a zero pivot proves det A != 0 over Q: the solution is unique, and
a certified x is the very list of Fractions the fallback would return.

Fallback.  A pivot that is zero mod p, an input denominator divisible by p,
or an answer that does not certify with every prime of PRIMES sends the
right-hand side to the kernels run over the rational inputs themselves.
When one of their pivots (a quotient of consecutive leading principal
minors) is exactly zero the kernel's on_zero action substitutes a formal
parameter eps, and the sweep continues over rational functions of eps.
After back substitution every component is finalized by taking the limit
eps -> 0 (common eps factors are cancelled first; individual intermediates
may be singular at eps = 0 while the solution is regular).  A pole at
eps = 0 that survives cancellation means the matrix itself is singular.
Singular systems always take this path, since a singular A has a zero
pivot modulo every prime.

Accepted scalars are ints and fractions.Fraction; floats are rejected
before any kernel runs.  The rational functions of eps are the elements of
sympy's field Q(eps), which cancels the gcd of numerator and denominator
after every operation, so degrees stay bounded through the recurrences and
a pole at eps = 0 is read off the denominator's constant term.  sympy is
imported at the first zero pivot, not with this module: the modular solves
never load it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt

import numpy as np

from .assembly import LinearSystem
from .band_solvers import (SOLVERS, BreakdownError, Kernel, kernel_inputs,
                           raise_breakdown)


class SingularMatrixError(ArithmeticError):
    """The system has no unique solution (pole survives at eps = 0)."""


class ExactInputError(TypeError):
    """Exact solvers were handed floating-point data."""


def _finalize(value) -> Fraction:
    """The limit at eps = 0 of a solution component: a Fraction unchanged, a
    rational function of eps as the Fraction of its constant terms.  The
    field keeps numerator and denominator coprime, so a denominator that
    vanishes at eps = 0 is a pole, and the matrix is singular."""
    if isinstance(value, Fraction):
        return value
    den0 = value.denom.coeff(1)
    if den0 == 0:
        raise SingularMatrixError("pole at eps = 0: the matrix is singular")
    q = value.numer.coeff(1) / den0
    return Fraction(int(q.numerator), int(q.denominator))


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
        elif isinstance(v, Fraction) and (type(v.numerator) is not int
                                          or type(v.denominator) is not int):
            # Fraction(np.int64(3)) keeps a numpy numerator, whose products
            # overflow int64
            v = Fraction(int(v.numerator), int(v.denominator))
        out.append(v)
    return out


@cache
def _eps():
    """The generator eps of the field Q(eps).  sympy is imported here, at
    the first zero pivot, so the modular solves never load it."""
    from sympy import QQ
    from sympy.polys.fields import field
    return field("eps", QQ)[1]


def _defer(row: int):
    """Exact pivot policy: a zero pivot becomes the formal eps."""
    return _eps()


def _fraction_factors(kernel: Kernel, inputs: list):
    """The fallback's factors: the kernel over the rational inputs, with
    zero pivots deferred to eps."""
    return kernel.factor(inputs, [0] * len(inputs[0]), _defer)


# ---------------------------------------------------------------------------
# modular arithmetic
# ---------------------------------------------------------------------------

#: The moduli of the modular solves, tried in this order: the three largest
#: primes below 2**64, one machine word each.
#:
#: Size.  Python inverts a residue in time linear in its bits (about 5 us
#: at 61 bits) and multiplies at about the same cost up to a few hundred
#: bits, so a larger prime costs little more per kernel pass and rebuilds
#: more bits: one prime rebuilds components n/d with |n|, d below 2**31.5.
#: At N = 1e4 on a 2-core host these primes took SPDM 0.36-0.46 s against
#: 0.52-0.78 s for 2**61 - 1 and the primes below it, which need two passes
#: for seed 3.
#:
#: Budget.  The tuple's length is the prime budget: an answer that has not
#: certified after the last prime falls back.  The exact bench answers have
#: parts of at most 25 bits at N = 1e3, 32 at N = 1e4 and 34 at N = 2e4,
#: the largest size bench schedules them for, so two primes cover every
#: default size and the third leaves room up to 95 bits.  An answer beyond
#: that, such as a random right-hand side's with parts of 24,000 bits at
#: N = 1e3, pays three modular passes (40-90 ms there) before the
#: fallback's 4-5 s.
PRIMES = (18446744073709551557, 18446744073709551533, 18446744073709551521)


class _Residue:
    """An element v of GF(p), 0 <= v < p: the scalar of the modular solves.

    inv caches the inverse once computed (0 until then): the LU kernel
    divides by each pivot twice in its factor and once in every solve.
    """

    __slots__ = ("v", "p", "inv")

    def __init__(self, v: int, p: int):
        self.v = v
        self.p = p
        self.inv = 0

    def _inverse(self) -> int:
        if not self.inv:
            self.inv = pow(self.v, -1, self.p)
        return self.inv

    def __add__(self, other):
        return _Residue((self.v + other.v) % self.p, self.p)

    def __sub__(self, other):
        return _Residue((self.v - other.v) % self.p, self.p)

    def __mul__(self, other):
        return _Residue(self.v * other.v % self.p, self.p)

    def __truediv__(self, other):
        return _Residue(self.v * other._inverse() % self.p, self.p)

    def __rtruediv__(self, other):
        # the int 1 of the kernels' inverse pivot, 1 / mu
        return _Residue(other * self._inverse() % self.p, self.p)

    def __eq__(self, other):
        # the kernels compare pivots with the int 0 only
        return self.v == other


def _residues(values: list, p: int):
    """values mod p as _Residues, or None if a denominator is divisible by
    p.  The distinct denominators are inverted together, with one pow and
    three products each (Montgomery's batch inversion)."""
    dens = list({v.denominator for v in values})
    prefix = []
    acc = 1
    for d in dens:
        acc = acc * d % p
        prefix.append(acc)
    if acc == 0:
        return None
    inv = pow(acc, -1, p)
    inverses = {}
    for i in range(len(dens) - 1, 0, -1):
        inverses[dens[i]] = inv * prefix[i - 1] % p
        inv = inv * dens[i] % p
    inverses[dens[0]] = inv
    return [_Residue(v.numerator * inverses[v.denominator] % p, p)
            for v in values]


def _modular_factors(kernel: Kernel, inputs: list, p: int):
    """The kernel's factors over GF(p), or None if an input denominator or
    a pivot is zero mod p."""
    n = len(inputs[0])
    flat = _residues([v for band in inputs for v in band], p)
    if flat is None:
        return None
    try:
        return kernel.factor([flat[k:k + n] for k in range(0, len(flat), n)],
                             [0] * n, raise_breakdown)
    except BreakdownError:  # the pivot is zero mod p, perhaps not over Q
        return None


def _crt(x_mod: list, m: int, x_p: list, p: int) -> list:
    """The residues mod m * p that are x_mod mod m and x_p mod p."""
    m_inv = pow(m, -1, p)
    return [r + m * ((s - r) * m_inv % p) for r, s in zip(x_mod, x_p)]


def _reconstruct(x_mod: list, m: int):
    """Each residue mod m as the n/d with |n|, d <= sqrt(m/2) and n = d x
    (mod m), which is unique when it exists (Wang's extended Euclid), or
    None when a component has none."""
    bound = isqrt(m // 2)
    out = []
    for r in x_mod:
        r0, r1, s0, s1 = m, r, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if abs(s1) > bound or gcd(r1, s1) != 1:
            return None
        out.append(Fraction(r1, s1))
    return out


def _certified(inputs: list, x: list, f: list) -> bool:
    """A x == f exactly over Q, with A given by the kernel's band inputs,
    lowest offset first.  Each row's terms are summed over the product of
    their denominators, in integers, so the check takes no gcd."""
    n = len(x)
    first = -(len(inputs) // 2)
    for i in range(n):
        num, den = -f[i].numerator, f[i].denominator
        for k, band in enumerate(inputs, start=first):
            a = band[i]
            if a and 0 <= i + k < n:
                y = x[i + k]
                d = a.denominator * y.denominator
                num = num * d + a.numerator * y.numerator * den
                den *= d
        if num:
            return False
    return True


def _modular_solve(kernel: Kernel, inputs: list, f: list):
    """The certified solution of A x = f from the primes of PRIMES, or None."""
    x_mod, m = [], 1
    for p in PRIMES:
        factors = _modular_factors(kernel, inputs, p)
        f_p = _residues(f, p)
        if factors is None or f_p is None:
            return None
        x_p = [r.v for r in kernel.solve(factors, f_p)]
        x_mod = _crt(x_mod, m, x_p, p) if x_mod else x_p
        m *= p
        x = _reconstruct(x_mod, m)
        if x is not None and _certified(inputs, x, f):
            return x
    return None


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _solve(system: LinearSystem, kernel: Kernel) -> list:
    """The exact solution of system by kernel: the modular solves, and the
    Fraction fallback when they do not certify."""
    inputs = kernel_inputs(system.matrix, kernel, _exact_list)
    f = _exact_list(system.rhs, "rhs")
    x = _modular_solve(kernel, inputs, f)
    if x is None:
        factors = _fraction_factors(kernel, inputs)
        x = [_finalize(v) for v in kernel.solve(factors, f)]
    return x


def exact_solve_pd(system: LinearSystem) -> list:
    """Exact pentadiagonal LU solve ("SPDM").

    The LU kernel of the numerical NPDM, run modulo word-size primes: the
    residues of x are combined by CRT, rebuilt by rational reconstruction
    and returned once A x == b holds exactly.  A pivot that is zero mod p,
    an input denominator divisible by p or an answer that does not certify
    with every prime of PRIMES falls back to the kernel over the Fractions
    themselves, with zero pivots deferred to eps.  Either way the result is
    a list of exact scalars whose residual is exactly zero.
    """
    return _solve(system, SOLVERS["SPDM"].kernel)


def exact_solve_td(system: LinearSystem) -> list:
    """Exact Thomas solve ("STDM"); dominance is not required.

    The Thomas kernel runs modulo word-size primes first, as in SPDM: CRT,
    rational reconstruction, then the exact check A x == b before anything
    is returned.  A pivot that is zero mod p, an input denominator divisible
    by p or an answer that does not certify with every prime of PRIMES
    falls back to the sweep over Fractions.  Its forward-sweep denominators
    are the quotients of consecutive leading principal minors; whenever one
    of them is exactly zero the formal eps is used instead and the
    recurrences continue over rational functions of eps.  Components are
    finalized (eps -> 0) after back substitution, so eps never appears in
    the output.

    A singular matrix has a zero pivot modulo every prime and always falls
    back.
    With an inconsistent right-hand side a pole survives at eps = 0 and
    SingularMatrixError is raised; a singular but consistent system has a
    finite limit and yields one member of its solution set.
    """
    return _solve(system, SOLVERS["STDM"].kernel)
