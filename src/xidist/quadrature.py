"""Quadrature under this package's error policy: meet abs_tol or raise AccuracyError.

Every integral is a fixed 16-point Gauss-Legendre rule on equal panels whose
count follows from the interval length and the integrand's declared
``rate``.  The rule runs on n and on 2n panels; the 2n-panel value is
returned, and its certificate is its difference from the n-panel value.

* ``quad_checked`` is the plain integral int_a^b f(x) dx of a real or
  complex integrand.
* ``fourier_quad`` is the transform int_a^b f(x) K(omega x) dx over a whole
  array of frequencies omega.  f is evaluated once per rule on the nodes, and
  every omega costs one row of a blocked (omega x node) matrix product.

In both, f takes an array of nodes and returns an array of its shape.
"""

from __future__ import annotations

import math

import numpy as np

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
# kernel keeps several such temporaries at once.  Blocks 4x this size raised
# the peak RSS of 11 cross-check ops (41 t, K = 10^4) by 0.9 MB, at no gain in time
_BLOCK_ENTRIES = 1 << 14


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


def _certified(rule, a: float, b: float, reach: float, abs_tol: float):
    """rule(nodes, weights) on 2n panels of [a, b], n = ceil((b - a) reach / ``_PANEL_PHASE``).

    AccuracyError when it differs from the n-panel value by more than abs_tol
    (in the largest element, for an array-valued rule).
    """
    n = max(1, math.ceil((b - a) * reach / _PANEL_PHASE))
    coarse, fine = [rule(*_panel_rule(a, b, m)) for m in (n, 2 * n)]
    err = float(np.max(np.abs(fine - coarse), initial=0.0))
    if not err <= abs_tol:
        raise AccuracyError(f"panel quadrature on [{a}, {b}] above tolerance", achieved=err)
    return fine


def quad_checked(f, a, b, abs_tol=1e-11, rate=1.0):
    """int_a^b f(x) dx by Gauss-Legendre panels, certified to abs_tol.

    f must be smooth on [a, b] and vary on length scales no shorter than
    1/``rate``; it may be real or complex, and the result (float or
    complex) follows it.  A panel spans ``_PANEL_PHASE`` / rate.
    """
    return _certified(lambda x, w: w @ f(x), a, b, rate, abs_tol).item()


def fourier_quad(f, a, b, omega, abs_tol=1e-10, rate=1.0, kernel=_eiu):
    """int_a^b f(x) kernel(omega x) dx for every omega, by Gauss-Legendre panels.

    ``kernel`` (default e^{iu}) maps an array of u to complex values.  f
    must be smooth on [a, b] and vary on length scales no shorter than
    1/``rate``; a panel spans ``_PANEL_PHASE`` radians of max|omega| + rate.
    The certificate (``quad_checked``'s) bounds the largest error over
    omega.  A scalar omega gives a complex, an array an array of its shape.
    """
    omega = np.asarray(omega, dtype=float)
    flat = omega.ravel()
    reach = float(np.max(np.abs(flat), initial=0.0)) + rate
    fine = _certified(lambda x, w: kernel_sum(kernel, flat, x, w * f(x)), a, b, reach, abs_tol)
    return complex(fine[0]) if omega.ndim == 0 else fine.reshape(omega.shape)
