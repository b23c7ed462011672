"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from bellift import expressions, polytope, quantum


@pytest.fixture
def product_sizes(monkeypatch):
    """The size of every product ``_contract`` forms from now on, in call order.

    Every caller's matrices reach the kernel as views that record the size of
    each matmul's result, so every intermediate of every contraction is seen.
    """
    sizes = []

    class Recorder(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            out = getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)
            sizes.append(out.size)
            return out

    kernel = expressions._contract

    def recording(t, mats, order):
        return kernel(t, [m.view(Recorder) for m in mats], order)

    for module in (polytope, quantum):
        monkeypatch.setattr(module, "_contract", recording)
    return sizes
