"""Oracle layer: stencils, eigen-extrema, dense caps, reference stepping."""

import numpy as np
import pytest

from bplab.bathymetry import build_bathymetry
from bplab.errors import NotSPDError, SizeLimitError
from bplab.diagnostics import energy_theorem_E
from bplab.spectral import Grid, grad_arr
from bplab.verification import (
    assemble_dense,
    eig_extrema,
    fd_derivative,
    fd_gradient,
    reference_trajectory,
)


class TestFiniteDifferences:
    def test_fd_matches_closed_form_to_4th_order(self):
        # error of the 4-point stencil on sin(3x) shrinks ~16x per halving
        errs = []
        for n in (32, 64, 128):
            g = Grid(d=1, n=n, L=2 * np.pi)
            f = np.sin(3 * g.x[0])
            got = fd_derivative(g, f, 1)
            errs.append(np.max(np.abs(got - 3 * np.cos(3 * g.x[0]))))
        rates = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(10.0 < r < 22.0 for r in rates)

    def test_fd_second_derivative(self):
        g = Grid(d=1, n=256, L=2 * np.pi)
        f = np.cos(2 * g.x[0])
        got = fd_derivative(g, f, 2)
        assert np.max(np.abs(got + 4 * np.cos(2 * g.x[0]))) < 1e-4

    def test_fd_rejects_higher_order(self):
        g = Grid(d=1, n=32, L=2 * np.pi)
        with pytest.raises(ValueError):
            fd_derivative(g, np.sin(g.x[0]), 3)

    def test_spectral_gradient_agrees_with_fd_oracle(self):
        # spectral derivative is the truth; the stencil converges to it at 4th order
        g = Grid(d=2, n=32, L=2 * np.pi, gamma=0.8)
        x, y = g.x
        f = np.sin(x + 2 * y) * np.cos(x)
        spec = grad_arr(g, f)
        fd = fd_gradient(g, f)
        assert fd.shape == spec.shape
        for a, b in zip(spec, fd):
            assert np.max(np.abs(a - b)) < 5e-3


class TestEigExtrema:
    def test_plain_extrema(self):
        M = np.diag([1.0, 2.0, 7.0])
        lo, hi = eig_extrema(M)
        assert (lo, hi) == (1.0, 7.0)

    def test_generalized_whitening(self):
        # M = diag(2, 8), G = diag(1, 4): quotients are 2 in both directions
        M = np.diag([2.0, 8.0])
        G = np.diag([1.0, 4.0])
        lo, hi = eig_extrema(M, G)
        assert abs(lo - 2.0) < 1e-12 and abs(hi - 2.0) < 1e-12

    def test_non_spd_gram_raises(self):
        M = np.eye(2)
        G = np.diag([1.0, -1.0])
        with pytest.raises(NotSPDError):
            eig_extrema(M, G)


class TestAssembleDense:
    def test_size_cap(self):
        g = Grid(d=1, n=8192, L=1.0)
        bath = build_bathymetry(g, "flat", beta=0.0)
        with pytest.raises(SizeLimitError):
            assemble_dense("I_plus_muTb", 0.1, bath)

    def test_unknown_kind(self):
        g = Grid(d=1, n=16, L=1.0)
        bath = build_bathymetry(g, "flat", beta=0.0)
        with pytest.raises(ValueError):
            assemble_dense("laplacian", 0.1, bath)

    def test_gram_X0_matches_norm(self):
        # v^T G v recovers |v|_2^2 + mu*|div v|_2^2 up to the dx quadrature weight
        g = Grid(d=1, n=16, L=2 * np.pi)
        bath = build_bathymetry(g, "flat", beta=0.0)
        mu = 0.4
        G = assemble_dense("gram_X0", mu, bath)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(g.shape)
        quad = float(v @ G @ v) * g.dx
        want = energy_theorem_E(g, np.zeros(g.shape), v[None], mu, 0.0)
        assert abs(quad - want) < 1e-10 * want


class TestReferenceTrajectory:
    def test_exponential_decay(self):
        # du/dt = -u: RK4 at small dt reproduces exp(-1) to ~1e-10
        u = reference_trajectory(np.ones(3), lambda v: -v, 1.0, 1e-3)
        assert np.max(np.abs(u - np.exp(-1.0))) < 1e-10

    def test_step_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reference_trajectory(np.ones(1), lambda v: -v, 1.0, 0.3)
