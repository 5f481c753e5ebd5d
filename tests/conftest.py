"""Shared fixtures: the expensive 200k-observation panels are built once.

The suite runs under one named kernel baseline, whatever the host:
OpenBLAS's Haswell kernels, and numpy's loops dispatched no higher than
X86_V3 (AVX2).  The bits pinned in ``moment_sha256.json``,
``artifact_sha256.json`` and ``panel_sha256.json`` were recorded under it,
so any x86-64 host with AVX2 reproduces them.  Both libraries read their
variable when they load, so it is set here, before numpy is imported, and
overwritten, so that a runner's own setting cannot reach the pins.
"""

import dataclasses
import os

os.environ["OPENBLAS_CORETYPE"] = "Haswell"
os.environ["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"

import numpy as np
import pytest

from dynpan.model import StructuralParams
from dynpan.simulate import DgpSpec, PanelData, VariantParams, draw_panel

#: Default benchmark parameters used across the test suite.
DEFAULTS = StructuralParams(beta=0.6, theta=1.0, rho_omega=0.7, rho_x=0.5,
                            alpha=1.0, pi=0.0,
                            sigma_xi=1.0, sigma_u=1.0, sigma_eta=1.0)


def make_spec(variant="benchmark", n_firms=40_000, n_periods=5, seed=0,
              ext=None, **overrides):
    s = dataclasses.replace(DEFAULTS, **overrides) if overrides else DEFAULTS
    return DgpSpec(variant=variant, structural=s, n_firms=n_firms,
                   n_periods=n_periods, seed=seed,
                   ext=ext or VariantParams())


def linear_panel(x, y):
    """A panel holding only the observables x and y."""
    zeros = np.zeros_like(x)
    return PanelData(make_spec(n_firms=x.shape[0], n_periods=x.shape[1]),
                     y=y, x=x, omega=zeros, kappa=zeros, xi=zeros, u=zeros,
                     eta=zeros)


@pytest.fixture(scope="session")
def bench200k():
    return draw_panel(make_spec())


@pytest.fixture(scope="session")
def bench200k_eta0():
    return draw_panel(make_spec(sigma_eta=0.0))


@pytest.fixture(scope="session")
def fe200k():
    return draw_panel(make_spec("fixed_effects"))


@pytest.fixture(scope="session")
def multi200k():
    return draw_panel(make_spec("multi_input"))


@pytest.fixture(scope="session")
def pred200k():
    return draw_panel(make_spec("predetermined"))


@pytest.fixture(scope="session")
def equal_rho_200k():
    return draw_panel(make_spec(rho_omega=0.5, rho_x=0.5))
