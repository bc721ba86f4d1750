"""Thin wrappers around QUADPACK that enforce this package's error policy.

scipy.integrate.quad returns (value, error-estimate) and may emit a warning
when it is unhappy; here any failure to reach the requested absolute
tolerance raises AccuracyError carrying the achieved bound instead.
"""

from __future__ import annotations

from scipy.integrate import quad

from .accuracy import AccuracyError


def quad_checked(f, a, b, abs_tol=1e-11, limit=400, weight=None, wvar=None):
    """Adaptive quadrature of a real integrand with a hard error gate."""
    kwargs = dict(epsabs=abs_tol * 0.1, epsrel=0.0, limit=limit, full_output=1)
    if weight is not None:
        kwargs["weight"] = weight
        kwargs["wvar"] = wvar
        kwargs["maxp1"] = 100
    out = quad(f, a, b, **kwargs)
    value, err = out[0], out[1]
    if len(out) > 3:  # explanation string present => QUADPACK flagged trouble
        if err > abs_tol:
            raise AccuracyError(f"quadrature on [{a}, {b}] did not converge", achieved=err)
    if err > abs_tol:
        raise AccuracyError(f"quadrature on [{a}, {b}] above tolerance", achieved=err)
    return value


def quad_complex(f, a, b, abs_tol=1e-11, limit=400):
    """Complex-valued integrand: integrate real and imaginary parts."""
    re = quad_checked(lambda x: f(x).real, a, b, abs_tol=abs_tol, limit=limit)
    im = quad_checked(lambda x: f(x).imag, a, b, abs_tol=abs_tol, limit=limit)
    return complex(re, im)


def fourier_quad(f, a, b, omega, abs_tol=1e-10, limit=300):
    """∫_a^b f(x) e^{i omega x} dx for smooth decaying f, via QAWO.

    Uses the cos/sin weighted rules, which remain accurate when the
    oscillation is much finer than the support of f.
    """
    re = quad_checked(f, a, b, abs_tol=abs_tol, limit=limit, weight="cos", wvar=omega)
    im = quad_checked(f, a, b, abs_tol=abs_tol, limit=limit, weight="sin", wvar=omega)
    return complex(re, im)
