import math

import numpy as np
import pytest

from xidist.accuracy import AccuracyError
from xidist.quadrature import fourier_quad


def test_fourier_quad_gaussian_transform():
    # int e^{-x^2/2} e^{i w x} dx over [-12, 12] = sqrt(2 pi) e^{-w^2/2}
    w = np.array([[-6.0, -1.0], [0.0, 2.5]])
    got = fourier_quad(lambda x: np.exp(-0.5 * x * x), -12.0, 12.0, w, abs_tol=1e-13)
    assert got.shape == w.shape
    np.testing.assert_allclose(got, math.sqrt(2.0 * math.pi) * np.exp(-0.5 * w * w), rtol=0.0, atol=1e-13)
    assert isinstance(fourier_quad(lambda x: np.exp(-0.5 * x * x), -12.0, 12.0, 1.0), complex)


def test_fourier_quad_under_resolved_raises():
    # a peak of width 0.05 declared as varying on the unit scale: the n- and
    # 2n-panel rules disagree by ~5e-3, so the result is refused
    def peak(x):
        return np.exp(-(((x - 0.3) / 0.05) ** 2))

    with pytest.raises(AccuracyError) as info:
        fourier_quad(peak, 0.0, 1.0, np.array([0.0, 1.0]), abs_tol=1e-10, rate=1.0)
    assert info.value.achieved > 1e-10
    # with its true rate declared, the same peak is resolved
    got = fourier_quad(peak, 0.0, 1.0, 0.0, abs_tol=1e-13, rate=40.0)
    assert abs(got - 0.05 * math.sqrt(math.pi)) <= 1e-13
