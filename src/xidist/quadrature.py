"""Quadrature under this package's error policy: meet abs_tol or raise AccuracyError.

Two rules live here:

* ``quad_checked`` / ``quad_complex`` wrap adaptive QUADPACK (scipy's
  ``quad``) for one integral at a time; QUADPACK's error estimate is the
  certificate.
* ``fourier_quad`` is a fixed Gauss-Legendre panel rule for the transforms
  int_a^b f(x) K(omega x) dx over a whole array of frequencies omega.  f is
  evaluated once per rule on the nodes, and every omega costs one row of a
  blocked (omega x node) matrix product.  The result on 2n panels is
  returned; its certificate is its difference from the n-panel result.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from .accuracy import AccuracyError

# 16-point Gauss-Legendre on [-1, 1], exact for polynomials of degree 31
# (numpy's leggauss values, written out: computing them costs a LAPACK
# initialisation, ~1 MB of resident memory, at import)
_GL16_POS = np.array([0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                      0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                      0.9445750230732326, 0.9894009349916499])
_GL16_POS_W = np.array([0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                        0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                        0.062253523938647456, 0.027152459411754176])
_GL16_X = np.concatenate([-_GL16_POS[::-1], _GL16_POS])
_GL16_W = np.concatenate([_GL16_POS_W[::-1], _GL16_POS_W])
# radians of e^{i omega x} (plus the caller's rate) that one panel spans
_PANEL_PHASE = 4.0
# (omega x node) blocks hold at most this many entries, 256 kB as complex; a
# kernel keeps several such temporaries at once.  Over 11 cross-check ops
# (41 t, K = 10^4) the peak RSS grew 0.9 MB more than with per-t QUADPACK at
# 4x this size, and no more at this size, at no measured cost in time
_BLOCK_ENTRIES = 1 << 14


def quad_checked(f, a, b, abs_tol=1e-11, limit=400):
    """Adaptive quadrature of a real integrand with a hard error gate."""
    out = quad(f, a, b, epsabs=abs_tol * 0.1, epsrel=0.0, limit=limit, full_output=1)
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


def _eiu(u):
    out = np.empty(u.shape, dtype=complex)
    np.cos(u, out=out.real)
    np.sin(u, out=out.imag)
    return out


def row_blocks(n_rows: int, row_len: int) -> list[slice]:
    """Slices over n_rows rows of row_len entries, each of at most
    ``_BLOCK_ENTRIES`` entries and at least one row."""
    rows = max(1, _BLOCK_ENTRIES // max(row_len, 1))
    return [slice(i, i + rows) for i in range(0, n_rows, rows)]


def kernel_sum(kernel, omega, x, weights) -> np.ndarray:
    """sum_j weights_j kernel(omega x_j) for each omega of a flat array.

    The (omega x node) kernel matrix is formed in ``row_blocks``, so a
    temporary holds at most ``_BLOCK_ENTRIES`` entries (one row, when a row
    is longer) however many omegas there are.
    """
    out = np.empty(omega.size, dtype=complex)
    for blk in row_blocks(omega.size, x.size):
        out[blk] = kernel(omega[blk, None] * x) @ weights
    return out


def _panel_rule(a: float, b: float, n: int):
    """Nodes and weights of 16-point Gauss-Legendre on n equal panels of [a, b]."""
    half = 0.5 * (b - a) / n
    mids = a + half * (2.0 * np.arange(n) + 1.0)
    return (mids[:, None] + half * _GL16_X).ravel(), np.tile(half * _GL16_W, n)


def fourier_quad(f, a, b, omega, abs_tol=1e-10, rate=1.0, kernel=_eiu):
    """int_a^b f(x) kernel(omega x) dx for every omega, by fixed Gauss-Legendre panels.

    ``kernel`` (default e^{iu}) maps an array of u to complex values.  f
    takes an array of nodes; it must be smooth on [a, b] and vary on length
    scales no shorter than 1/``rate``.  A panel spans ``_PANEL_PHASE``
    radians of max|omega| + rate.  The value on 2n panels is returned;
    AccuracyError is raised when it differs from the n-panel value by more
    than abs_tol.  A scalar omega gives a complex, an array an array of its
    shape.
    """
    omega = np.asarray(omega, dtype=float)
    flat = omega.ravel()
    reach = float(np.max(np.abs(flat), initial=0.0)) + rate
    n = max(1, math.ceil((b - a) * reach / _PANEL_PHASE))
    coarse, fine = [
        kernel_sum(kernel, flat, x, w * f(x)) for x, w in (_panel_rule(a, b, n), _panel_rule(a, b, 2 * n))
    ]
    err = float(np.max(np.abs(fine - coarse), initial=0.0))
    if not err <= abs_tol:
        raise AccuracyError(f"panel quadrature on [{a}, {b}] above tolerance", achieved=err)
    return complex(fine[0]) if omega.ndim == 0 else fine.reshape(omega.shape)
