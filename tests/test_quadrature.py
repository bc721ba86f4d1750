import math
import os
import subprocess
import sys

import numpy as np
import pytest

import xidist
from xidist.accuracy import AccuracyError
from xidist.quadrature import fourier_quad, quad_checked


def test_fourier_quad_gaussian_transform():
    # int e^{-x^2/2} e^{i w x} dx over [-12, 12] = sqrt(2 pi) e^{-w^2/2}
    w = np.array([[-6.0, -1.0], [0.0, 2.5]])
    got = fourier_quad(lambda x: np.exp(-0.5 * x * x), -12.0, 12.0, w, abs_tol=1e-13)
    assert got.shape == w.shape
    np.testing.assert_allclose(got, math.sqrt(2.0 * math.pi) * np.exp(-0.5 * w * w), rtol=0.0, atol=1e-13)
    assert isinstance(fourier_quad(lambda x: np.exp(-0.5 * x * x), -12.0, 12.0, 1.0), complex)


def test_quad_checked_real_and_complex():
    got = quad_checked(np.sin, 0.0, math.pi, abs_tol=1e-14)
    assert isinstance(got, float)
    assert abs(got - 2.0) <= 1e-14
    # int_0^3 e^{5ix} dx = (e^{15i} - 1)/(5i)
    got = quad_checked(lambda x: np.exp(5j * x), 0.0, 3.0, abs_tol=1e-14, rate=5.0)
    assert isinstance(got, complex)
    assert abs(got - (np.exp(15j) - 1.0) / 5j) <= 1e-14


def test_fourier_quad_under_resolved_raises():
    # a peak of width 0.05 declared as varying on the unit scale: the n- and
    # 2n-panel rules disagree by ~5e-3, so both entry points refuse the result
    def peak(x):
        return np.exp(-(((x - 0.3) / 0.05) ** 2))

    for integrate in (
        lambda f, **kw: fourier_quad(f, 0.0, 1.0, np.array([0.0, 1.0]), **kw),
        lambda f, **kw: quad_checked(f, 0.0, 1.0, **kw),
    ):
        with pytest.raises(AccuracyError) as info:
            integrate(peak, abs_tol=1e-10, rate=1.0)
        assert info.value.achieved > 1e-10
        # with its true rate declared, the same peak is resolved
        got = np.ravel(integrate(peak, abs_tol=1e-13, rate=40.0))[0]
        assert abs(got - 0.05 * math.sqrt(math.pi)) <= 1e-13


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency
    code = "import sys, xidist.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = os.path.dirname(os.path.dirname(xidist.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
