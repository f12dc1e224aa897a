/* Float64 twin of band_solvers.thomas_factor and thomas_solve.

   The same operations in the same order as the Python kernel, which stays
   the specification: the inverse pivot 1/den multiplies every row but the
   last, which divides by its pivot.  Built without -ffast-math and with
   -ffp-contract=off, so no fused multiply-add changes a rounding and every
   result is byte-equal to the Python sweep's.  native.py builds and loads
   this file. */

#include <math.h>

/* Row i's pivot is zero under band_solvers' pivot test. */
static int zero_pivot(double den, double t)
{
    return den == 0 || (t != 0 && fabs(den) < t);
}

/* Factor the tridiagonal band c (sub), d (main), a (super) of order n >= 2
   with pivot thresholds thr into sp and q.  Returns -1, or the first row
   whose pivot is zero; sp[n-1] is never read. */
long thomas_factor(long n, const double *c, const double *d, const double *a,
                   const double *thr, double *sp, double *q)
{
    double den, inv;
    long i;

    den = d[0];
    if (zero_pivot(den, thr[0]))
        return 0;
    q[0] = inv = 1 / den;
    sp[0] = a[0] * inv;
    for (i = 1; i < n - 1; i++) {
        den = d[i] - c[i] * sp[i - 1];
        if (zero_pivot(den, thr[i]))
            return i;
        q[i] = inv = 1 / den;
        sp[i] = a[i] * inv;
    }
    den = d[n - 1] - c[n - 1] * sp[n - 2];
    if (zero_pivot(den, thr[n - 1]))
        return n - 1;
    q[n - 1] = den;
    return -1;
}

/* Solve for the right-hand side f with thomas_factor's factors; z gets the
   solution. */
void thomas_solve(long n, const double *c, const double *sp, const double *q,
                  const double *f, double *z)
{
    long i;

    z[0] = f[0] * q[0];
    for (i = 1; i < n - 1; i++)
        z[i] = (f[i] - c[i] * z[i - 1]) * q[i];
    z[n - 1] = (f[n - 1] - c[n - 1] * z[n - 2]) / q[n - 1];
    for (i = n - 2; i >= 0; i--)
        z[i] = z[i] - sp[i] * z[i + 1];
}
