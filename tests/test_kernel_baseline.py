"""The suite runs under the kernel baseline that ``conftest.py`` names.

The pinned bits hold under that baseline only, so a host whose libraries
ignored it would fail the pins for a reason no pin test names.
"""

import ctypes
import pathlib

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__


def openblas_core():
    """The name of the kernel the OpenBLAS bundled with numpy selected, or
    None where that library or its query is absent."""
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        query = getattr(ctypes.CDLL(str(path)),
                        "scipy_openblas_get_corename64_", None)
        if query is not None:
            query.restype = ctypes.c_char_p
            return query().decode()
    return None


def test_openblas_runs_the_haswell_kernels():
    core = openblas_core()
    if core is None:
        pytest.skip("numpy's OpenBLAS does not report its kernel")
    assert core == "Haswell"


def test_numpy_dispatches_no_higher_than_x86_v3():
    assert not __cpu_features__["X86_V4"]
