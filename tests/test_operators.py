"""Weighted dispersive operators: closed forms, symmetry, solves, audits."""

import os
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import bplab
from bplab.bathymetry import build_bathymetry
from bplab.errors import NotSPDError
from bplab.operators import (
    CG_TOL,
    KINDS,
    _WeightedOps,
    _gram_apply,
    _lower_inverse,
    build_handle,
    coercivity_report,
    dense_matrix,
    get_weighted_ops,
)
from bplab.spectral import (
    Grid,
    div_arr,
    grad_arr,
    trunc_arr,
)
from bplab.models import ModelParams, build_handles
from bplab.scenarios import load_config
from bplab.verification import assemble_dense
from oracles import eig_extrema, perp_div_arr, perp_grad_arr, sobolev_norm_arr

G1 = Grid(d=1, n=32, L=2 * np.pi)
G2 = Grid(d=2, n=16, L=2 * np.pi, gamma=0.9)

FLAT1 = build_bathymetry(G1, "flat", beta=0.0)
FLAT2 = build_bathymetry(G2, "flat", beta=0.0)
BUMP1 = build_bathymetry(
    G1, "gaussian_bump", beta=0.5, params={"height": 1.0, "width": 2 * np.pi / 8}
)
BUMP2 = build_bathymetry(
    G2, "gaussian_bump", beta=0.5, params={"height": 1.0, "width": 2 * np.pi / 8}
)
# bump-2d-pcg's grid and bottom: 2048 unknowns, so every bump handle runs CG
GP = Grid(d=2, n=32, L=8 * np.pi, gamma=0.8)
PCG_BUMP = build_bathymetry(GP, "gaussian_bump", beta=0.5)
PCG_TALL = build_bathymetry(GP, "gaussian_bump", beta=0.95)  # h_min = 0.05


def rand_vec(grid, rng):
    return rng.standard_normal((grid.d,) + grid.shape)


def vec_from_mode(grid, k):
    return np.stack([np.sin(k * grid.x[0])] + [np.zeros(grid.shape)] * (grid.d - 1))


def _count_applies(handle) -> list:
    """Wrap handle's weighted apply per instance; returns the list of calls."""
    apply_w = handle.apply_weighted_arrays
    calls = []

    def counted(V):
        calls.append(1)
        return apply_w(V)

    handle.apply_weighted_arrays = counted
    return calls


def _equation_apply(kind, V, mu, bath):
    """A (hb_A) or B (hb_B) itself: the handle's weighted form over h_b."""
    return bath.inv_hb * build_handle(kind, mu, bath).apply_arrays(V)


class TestFlatClosedForms:
    def test_tb_flat_single_mode(self):
        # flat bottom: Tb v = -(1/3) grad div v, so sin(kx) -> (k^2/3) sin(kx);
        # Tb v is (I + Tb) v - v, the I_plus_muTb handle's apply at mu = 1
        handle = build_handle("I_plus_muTb", 1.0, FLAT1)
        for k in (1, 3, 5):
            v = vec_from_mode(G1, k)
            got = (handle.apply_arrays(v) - v)[0]
            np.testing.assert_allclose(
                got, (k**2 / 3.0) * np.sin(k * G1.x[0]), atol=1e-11
            )

    def test_A_and_B_identity_at_mu_zero(self):
        rng = np.random.default_rng(0)
        for bath in (FLAT1, BUMP1, BUMP2):
            v = rand_vec(bath.grid, rng)
            for kind in ("hb_A", "hb_B"):
                np.testing.assert_allclose(
                    _equation_apply(kind, v, 0.0, bath), v, atol=1e-13
                )

    def test_B_flat_symbol_d1(self):
        # flat d=1: B acts as 1 + mu k^2/3 + mu k^2 on a single mode
        mu, k = 0.2, 4
        v = vec_from_mode(G1, k)
        got = _equation_apply("hb_B", v, mu, FLAT1)[0]
        want = (1.0 + mu * k**2 / 3.0 + mu * k**2) * np.sin(k * G1.x[0])
        np.testing.assert_allclose(got, want, atol=1e-11)

    def test_A_flat_symbol_d1(self):
        mu, k = 0.3, 3
        v = vec_from_mode(G1, k)
        got = _equation_apply("hb_A", v, mu, FLAT1)[0]
        want = (1.0 + mu * k**2) * np.sin(k * G1.x[0])
        np.testing.assert_allclose(got, want, atol=1e-11)


class TestSymmetry:
    @pytest.mark.parametrize("bath", [BUMP1, BUMP2], ids=["d1", "d2"])
    @pytest.mark.parametrize("kind", ["I_plus_muTb", "hb_B", "hb_A"])
    def test_weighted_symmetry(self, bath, kind):
        handle = build_handle(kind, 0.1, bath)
        rng = np.random.default_rng(42)
        for _ in range(5):
            v = rng.standard_normal((bath.grid.d,) + bath.grid.shape)
            w = rng.standard_normal((bath.grid.d,) + bath.grid.shape)
            Wv = handle.apply_weighted_arrays(v)
            Ww = handle.apply_weighted_arrays(w)
            lhs = np.vdot(Wv, w).real
            rhs = np.vdot(v, Ww).real
            scale = np.linalg.norm(v.ravel()) * np.linalg.norm(w.ravel())
            assert abs(lhs - rhs) <= 1e-10 * scale


class TestDenseAgreement:
    @pytest.mark.parametrize("bath", [FLAT1, BUMP1, BUMP2], ids=["flat", "d1", "d2"])
    @pytest.mark.parametrize("kind", ["I_plus_muTb", "hb_B", "hb_A"])
    def test_matrix_free_matches_dense(self, bath, kind):
        mu = 0.1
        handle = build_handle(kind, mu, bath)
        M = assemble_dense(kind, mu, bath)
        rng = np.random.default_rng(3)
        shape = (bath.grid.d,) + bath.grid.shape
        for _ in range(4):
            v = rng.standard_normal(shape)
            got = handle.apply_weighted_arrays(v).ravel()
            want = M @ v.ravel()
            assert np.max(np.abs(got - want)) <= 1e-12 * np.linalg.norm(v.ravel())

    def test_flat_dense_is_circulant_with_expected_symbol(self):
        # flat d=1 weighted I+mu*Tb: circulant, eigenvalues 1 + mu*k^2/3 on
        # the dealias-kept band and exactly 1 above it
        mu = 0.3
        M = assemble_dense("I_plus_muTb", mu, FLAT1)
        first = M[:, 0]
        for j in range(1, G1.n):
            np.testing.assert_allclose(M[:, j], np.roll(first, j), atol=1e-12)
        eigs = np.fft.fft(first)
        k = np.fft.fftfreq(G1.n, 1.0 / G1.n)
        kept = np.abs(k) < G1.n / 3.0
        want = np.where(kept, 1.0 + mu * k**2 / 3.0, 1.0)
        np.testing.assert_allclose(eigs.real, want, atol=1e-10)
        np.testing.assert_allclose(eigs.imag, 0.0, atol=1e-10)

    def test_identity_kind(self):
        M = assemble_dense("identity", 0.0, FLAT1)
        np.testing.assert_allclose(M, np.eye(G1.n), atol=0)


class TestSolves:
    def test_flat_solve_closed_form(self):
        # (I + mu*Tb)^{-1} sin(kx) = sin(kx)/(1 + mu*k^2/3) on a flat bottom
        mu, k = 0.25, 5
        handle = build_handle("I_plus_muTb", mu, FLAT1)
        rhs = vec_from_mode(G1, k)
        got = handle.solve_arrays(rhs)[0]
        np.testing.assert_allclose(
            got, np.sin(k * G1.x[0]) / (1.0 + mu * k**2 / 3.0), atol=1e-12
        )

    def test_solve_trivial_mu_zero(self):
        rng = np.random.default_rng(4)
        rhs = rand_vec(G1, rng)
        h1 = build_handle("I_plus_muTb", 0.0, BUMP1)
        np.testing.assert_allclose(h1.solve_arrays(rhs), rhs, atol=1e-11)
        h2 = build_handle("hb_A", 0.0, BUMP1)
        out2 = h2.solve_arrays(rhs)
        np.testing.assert_allclose(out2[0], rhs[0] / BUMP1.hb, atol=1e-11)

    @pytest.mark.parametrize(
        "bath",
        [FLAT1, BUMP1, BUMP2, PCG_BUMP, PCG_TALL],
        ids=["flat", "d1", "d2", "pcg-d2", "pcg-d2-tall"],
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_apply_after_solve_recovers_rhs(self, bath, kind):
        handle = build_handle(kind, 0.15, bath)
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal((bath.grid.d,) + bath.grid.shape)
        x = handle.solve_arrays(rhs)
        back = handle.apply_arrays(x)
        assert np.max(np.abs(back - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))

    def test_pcg_strategy_on_large_grid(self):
        # above the dense cap with a bump the handle must fall back to CG
        g = Grid(d=1, n=2048, L=2 * np.pi)
        bath = build_bathymetry(
            g, "gaussian_bump", beta=0.3, params={"width": 2 * np.pi / 8}
        )
        handle = build_handle("hb_B", 0.1, bath)
        assert handle.strategy == "pcg"
        rng = np.random.default_rng(6)
        rhs = rng.standard_normal((1,) + g.shape)
        x = handle.solve_arrays(rhs)
        back = handle.apply_arrays(x)
        assert np.max(np.abs(back - rhs)) <= 1e-8 * np.max(np.abs(rhs))

    def test_handle_rejects_wrong_kind_or_grid(self):
        # arrays must end in (d, *grid.shape); leading axes are a batch
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            build_handle("hb_X", 0.1, BUMP1)
        for bath in (FLAT1, BUMP1):  # spectral and dense strategies
            handle = build_handle("hb_B", 0.1, bath)
            wrong = (rand_vec(G2, rng), np.zeros((2,) + G1.shape), np.zeros(G1.shape))
            for bad in wrong:
                with pytest.raises(ValueError):
                    handle.solve_arrays(bad)
                with pytest.raises(ValueError):
                    handle.apply_arrays(bad)
        batch = rng.standard_normal((3, 1) + G1.shape)
        out = build_handle("hb_B", 0.1, FLAT1).solve_arrays(batch)
        assert out.shape == batch.shape

    @pytest.mark.parametrize("kind", KINDS)
    def test_dense_handle_refuses_a_form_that_is_not_spd(self, monkeypatch, kind):
        # negated, every weighted form is negative definite: its Cholesky check fails
        dense = _WeightedOps.dense
        monkeypatch.setattr(_WeightedOps, "dense", lambda ops, k, mu: -dense(ops, k, mu))
        with pytest.raises(NotSPDError, match=kind):
            build_handle(kind, 0.1, BUMP1)

    @pytest.mark.parametrize(
        "bath,batch,strategy,kind",
        [
            (FLAT1, (3,), "spectral", "hb_B"),
            (FLAT2, (2,), "spectral", "hb_B"),
            (BUMP1, (3,), "dense", "hb_B"),
            (BUMP2, (2,), "dense", "hb_B"),
        ]
        + [(PCG_BUMP, (2,), "pcg", kind) for kind in KINDS],
        ids=["spectral-d1", "spectral-d2", "dense-d1", "dense-d2"]
        + [f"pcg-d2-{kind}" for kind in KINDS],
    )
    def test_batched_solve_matches_single_solves(self, bath, batch, strategy, kind):
        # leading axes are independent right-hand sides on every strategy
        handle = build_handle(kind, 0.1, bath)
        assert handle.strategy == strategy
        g = bath.grid
        rhs = np.random.default_rng(11).standard_normal(batch + (g.d,) + g.shape)
        out = handle.solve_arrays(rhs)
        assert out.shape == rhs.shape
        for b in range(batch[0]):
            single = handle.solve_arrays(rhs[b])
            assert np.abs(out[b] - single).max() <= 1e-13 * np.abs(single).max()

    def test_batched_cg_stops_per_member(self):
        # a member a million times smaller than the other must still reach
        # CG_TOL on its own residual, as its single solve does
        g = Grid(d=2, n=32, L=2 * np.pi)
        handle = build_handle("hb_B", 0.1, build_bathymetry(g, "gaussian_bump", 0.5))
        assert handle.strategy == "pcg"
        y = np.random.default_rng(3).standard_normal((2, 2) + g.shape)
        y[1] *= 1e-6
        x = handle.solve_weighted_arrays(y)
        for b in range(2):
            res = handle.apply_weighted_arrays(x[b]) - y[b]
            assert np.linalg.norm(res) <= CG_TOL * np.linalg.norm(y[b])
            single = handle.solve_weighted_arrays(y[b])
            assert np.abs(x[b] - single).max() <= 1e-8 * np.abs(single).max()

    @pytest.mark.parametrize(
        "bath,strategy",
        [(FLAT2, "spectral"), (BUMP2, "dense"), (PCG_BUMP, "pcg")],
        ids=["spectral", "dense", "pcg"],
    )
    def test_solve_out_must_be_c_contiguous(self, bath, strategy):
        # the dense solve writes through a reshape of out, which for any other
        # layout is a copy: out would come back unwritten
        handle = build_handle("hb_A", 0.1, bath)
        assert handle.strategy == strategy
        y = rand_vec(bath.grid, np.random.default_rng(29))
        with pytest.raises(ValueError):
            handle.solve_weighted_arrays(y, out=np.zeros(y.shape, order="F"))
        out = np.zeros(y.shape)
        assert handle.solve_weighted_arrays(y, out=out) is out
        assert np.array_equal(out, handle.solve_weighted_arrays(y))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pcg_nonfinite_rhs_ends_at_once(self, bad):
        # a dense or spectral solve returns NaN at once; CG must not iterate
        # to CG_MAXITER and raise a stall on such input
        handle = build_handle("hb_B", 0.05, PCG_BUMP)
        assert handle.strategy == "pcg"
        calls = _count_applies(handle)
        y = np.random.default_rng(17).standard_normal((GP.d,) + GP.shape)
        y[1, 3, 4] = bad
        x = handle.solve_weighted_arrays(y)
        assert len(calls) <= 1
        assert x.shape == y.shape and not np.isfinite(x).any()

    def test_pcg_residual_turning_nonfinite_ends_the_solve(self):
        handle = build_handle("I_plus_muTb", 0.05, PCG_BUMP)
        apply_w = handle.apply_weighted_arrays
        calls = []

        def overflowing(V):
            calls.append(1)
            return apply_w(V) * (np.inf if len(calls) == 2 else 1.0)

        handle.apply_weighted_arrays = overflowing
        y = np.random.default_rng(19).standard_normal((GP.d,) + GP.shape)
        assert not np.isfinite(handle.solve_weighted_arrays(y)).any()
        assert len(calls) == 2

    def test_batched_pcg_nonfinite_member_leaves_the_other_alone(self):
        handle = build_handle("hb_B", 0.05, PCG_BUMP)
        y = np.random.default_rng(23).standard_normal((2, GP.d) + GP.shape)
        y[0, 0, 5, 6] = np.nan
        x = handle.solve_weighted_arrays(y)
        assert not np.isfinite(x[0]).any()
        assert np.array_equal(x[1], handle.solve_weighted_arrays(y[1]))

    @pytest.mark.parametrize(
        "bath,ceilings",
        [
            (PCG_BUMP, {"I_plus_muTb": 7, "hb_A": 7, "hb_B": 11}),
            (PCG_TALL, {"I_plus_muTb": 8, "hb_A": 10, "hb_B": 24}),
        ],
        ids=["beta0.5", "beta0.95"],
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_pcg_iteration_budget(self, bath, ceilings, kind):
        # the depth-scaled preconditioner keeps CG short where h_b varies by
        # O(1): each ceiling is one above the measured count, while the
        # unscaled flat-bottom inverse needs 13 (beta 0.5) and 40-45 (0.95)
        handle = build_handle(kind, 0.05, bath)
        assert handle.strategy == "pcg"
        apply_w = handle.apply_weighted_arrays
        # per instance, the hook perfbench's tracer counts CG iterations by
        calls = _count_applies(handle)
        y = np.random.default_rng(13).standard_normal((GP.d,) + GP.shape)
        x = handle.solve_weighted_arrays(y)
        assert 0 < len(calls) <= ceilings[kind]
        assert np.linalg.norm(apply_w(x) - y) <= CG_TOL * np.linalg.norm(y)


    def test_pcg_warm_start_from_a_past_solve(self):
        # the projection onto a solve of the same right-hand side is that
        # solve: its image gives the starting residual, which meets the
        # tolerance, so CG returns at once without an apply
        handle = build_handle("hb_B", 0.05, PCG_BUMP)
        apply_w = handle.apply_weighted_arrays
        rng = np.random.default_rng(29)
        y = rng.standard_normal((GP.d,) + GP.shape)
        past = handle.solve_weighted_arrays(y, ())
        assert np.array_equal(past[0], handle.solve_weighted_arrays(y))
        calls = _count_applies(handle)
        warm, image = handle.solve_weighted_arrays(y, (past,))
        assert len(calls) == 0
        assert np.linalg.norm(apply_w(warm) - y) <= CG_TOL * np.linalg.norm(y)
        assert np.linalg.norm(apply_w(warm) - image) <= 1e-2 * CG_TOL * np.linalg.norm(y)
        # a nearby right-hand side starts close and needs fewer iterations
        y2 = y + 1e-3 * rng.standard_normal(y.shape)
        cold = handle.solve_weighted_arrays(y2)
        n_cold = len(calls)
        calls.clear()
        warm, image = handle.solve_weighted_arrays(y2, (past,))
        assert len(calls) < n_cold
        assert np.linalg.norm(apply_w(warm) - y2) <= CG_TOL * np.linalg.norm(y2)
        assert np.linalg.norm(apply_w(warm) - image) <= 1e-2 * CG_TOL * np.linalg.norm(y2)
        assert np.abs(warm - cold).max() <= 1e-8 * np.abs(cold).max()

    def test_pcg_warm_start_drops_useless_directions(self):
        # zero and non-finite past solves span nothing: the solve starts
        # from zero, bit for bit as without them
        handle = build_handle("I_plus_muTb", 0.05, PCG_BUMP)
        y = np.random.default_rng(31).standard_normal((GP.d,) + GP.shape)
        zero, nan = np.zeros_like(y), np.full_like(y, np.nan)
        x, image = handle.solve_weighted_arrays(y, ((zero, zero), (nan, nan)))
        cold, cold_image = handle.solve_weighted_arrays(y, ())
        assert np.array_equal(x, cold) and np.array_equal(image, cold_image)
        assert np.array_equal(x, handle.solve_weighted_arrays(y))

    @pytest.mark.parametrize("bath", [BUMP1, FLAT2], ids=["dense", "spectral"])
    def test_prior_leaves_direct_solves_alone(self, bath):
        handle = build_handle("hb_B", 0.05, bath)
        y = np.random.default_rng(37).standard_normal((bath.grid.d,) + bath.grid.shape)
        x = handle.solve_weighted_arrays(y)
        got, image = handle.solve_weighted_arrays(y, ((x, handle.apply_weighted_arrays(x)),))
        assert np.array_equal(got, x) and np.array_equal(image, y)

    @pytest.mark.parametrize(
        "bath,strategy",
        [(FLAT2, "spectral"), (BUMP2, "dense"), (PCG_BUMP, "pcg")],
        ids=["spectral", "dense", "pcg"],
    )
    def test_prior_with_a_batched_rhs_is_refused(self, bath, strategy):
        # a prior warm-starts one right-hand side; a batch would drop it and
        # solve every member cold, so it is refused rather than ignored
        handle = build_handle("hb_B", 0.05, bath)
        assert handle.strategy == strategy
        y = np.random.default_rng(41).standard_normal((bath.grid.d,) + bath.grid.shape)
        past = handle.solve_weighted_arrays(y, ())
        for prior in ((past,), ()):
            with pytest.raises(ValueError, match="single right-hand side"):
                handle.solve_weighted_arrays(np.stack([y, y]), prior)


class TestCoercivity:
    def test_flat_mu_zero_quotient_is_one(self):
        # both the operator and the X^0 Gram collapse onto plain L2
        rep = coercivity_report(build_handle("I_plus_muTb", 0.0, FLAT1))
        assert abs(rep["min_quotient"] - 1.0) < 1e-10
        assert abs(rep["max_quotient"] - 1.0) < 1e-10

    @pytest.mark.parametrize("bath", [BUMP1, BUMP2], ids=["d1", "d2"])
    @pytest.mark.parametrize("kind", ["I_plus_muTb", "hb_B", "hb_A"])
    def test_bump_quotients_positive_and_bounded(self, bath, kind):
        rep = coercivity_report(build_handle(kind, 0.1, bath))
        assert rep["min_quotient"] > 0.0
        assert rep["max_quotient"] < np.inf
        assert rep["trial_min_quotient"] >= rep["min_quotient"] - 1e-9
        assert rep["trial_max_quotient"] <= rep["max_quotient"] + 1e-9
        assert rep["symmetry_residual"] <= 1e-10

    def test_two_sided_bounds_match_eigh_oracle(self):
        # generalized eigen extrema from the whitened pencil agree with the
        # report on the same matrices
        kind, mu = "hb_B", 0.1
        rep = coercivity_report(build_handle(kind, mu, BUMP1))
        W = assemble_dense(kind, mu, BUMP1)
        G = assemble_dense("gram_H1", mu, BUMP1)
        lo, hi = eig_extrema(W, G)
        assert abs(lo - rep["min_quotient"]) < 1e-8 * max(1.0, abs(lo))
        assert abs(hi - rep["max_quotient"]) < 1e-8 * hi


class TestStructure:
    def test_perp_structure_of_hbA_solutions(self):
        # u = (h_b A)^{-1}(h_b grad f) is a discrete gradient: perp_div u = 0
        handle = build_handle("hb_A", 0.1, BUMP2)
        x, y = G2.x
        f = np.sin(x) * np.cos(2 * y) + 0.3 * np.cos(x)
        u = handle.solve_arrays(BUMP2.hb * grad_arr(G2, f))
        res = sobolev_norm_arr(G2, perp_div_arr(G2, u), 0.0) / sobolev_norm_arr(G2, u, 1.0)
        assert res <= 1e-10

    def test_perp_structure_random_rhs_fails_gracefully(self):
        # sanity: a generic rhs (not h_b grad f) has no such structure
        handle = build_handle("hb_A", 0.1, BUMP2)
        rng = np.random.default_rng(8)
        u = handle.solve_arrays(rng.standard_normal((2,) + G2.shape))
        assert np.max(np.abs(perp_div_arr(G2, u))) > 1e-6

    def test_gradient_control_ratios_logged(self):
        # sqrt(mu)*|(h_b A)^{-1} grad g|_{X^1} <= C |g|_{H^1} with C = O(1),
        # over smooth random g (spectrally filtered noise)
        mu = 0.1
        handle = build_handle("hb_A", mu, BUMP1)
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(4):
            g = G1.irfft(G1.bessel(-4.0) * G1.rfft(rng.standard_normal(G1.shape)))
            u = handle.solve_arrays(grad_arr(G1, g))
            # |u|_{X^1}^2 = |u|_{H^1}^2 + mu*|div u|_{H^1}^2
            x1 = np.hypot(
                sobolev_norm_arr(G1, u, 1.0), np.sqrt(mu) * sobolev_norm_arr(G1, div_arr(G1, u), 1.0)
            )
            ratios.append(np.sqrt(mu) * x1 / sobolev_norm_arr(G1, g, 1.0))
        assert all(np.isfinite(r) and r > 0 for r in ratios)
        assert max(ratios) < 10.0  # measured constant stays O(1)


# ---------------------------------------------------------------------------
# fused, batched core against a plain reference built from the spectral helpers


def _reference_weighted(kind, V, mu, bath):
    """The weighted applies term by term, one truncation or derivative at a time."""
    g, hb, beta = bath.grid, bath.hb, bath.beta
    z = bath.grad_b
    hb3_t = trunc_arr(g, hb**3)
    u_t = trunc_arr(g, hb**2 * z)
    invhb_t = trunc_arr(g, 1.0 / hb)

    def tb(V):
        dv_t = trunc_arr(g, div_arr(g, V))
        out = -(1.0 / 3.0) * grad_arr(g, trunc_arr(g, hb3_t * dv_t))
        udotv = (u_t * trunc_arr(g, V)).sum(axis=0)
        out = out + 0.5 * beta * grad_arr(g, trunc_arr(g, udotv))
        out = out - 0.5 * beta * trunc_arr(g, u_t * dv_t)
        return out + beta**2 * hb * z * (z * V).sum(axis=0)

    def gradphi(V):
        return grad_arr(g, trunc_arr(g, invhb_t * trunc_arr(g, div_arr(g, hb * V))))

    if kind == "I_plus_muTb":
        return hb * V + mu * tb(V)
    if kind == "hb_A":
        return hb * (V - mu * gradphi(V))
    out = hb * V + mu * (tb(V) - hb * gradphi(V))
    return out - mu * perp_grad_arr(g, perp_div_arr(g, V))


def _bump(grid, beta):
    return build_bathymetry(
        grid, "gaussian_bump", beta=beta, params={"height": 1.0, "width": 2 * np.pi / 8}
    )


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestFusedCore:
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("grid", [G1, G2], ids=["d1", "d2"])
    @pytest.mark.parametrize("kind", ["I_plus_muTb", "hb_B", "hb_A"])
    def test_fused_apply_matches_reference(self, kind, grid, beta):
        bath = _bump(grid, beta)
        V = np.random.default_rng(11).standard_normal((grid.d,) + grid.shape)
        got = build_handle(kind, 0.1, bath).apply_weighted_arrays(V)
        assert _rel(got, _reference_weighted(kind, V, 0.1, bath)) <= 1e-13

    @pytest.mark.parametrize("bath", [BUMP1, BUMP2], ids=["d1", "d2"])
    @pytest.mark.parametrize("kind", ["I_plus_muTb", "hb_B", "hb_A"])
    def test_batch_equals_single_applies(self, bath, kind):
        handle = build_handle(kind, 0.1, bath)
        grid = bath.grid
        batch = np.random.default_rng(12).standard_normal((3, grid.d) + grid.shape)
        got = handle.apply_weighted_arrays(batch)
        assert got.shape == batch.shape
        for k in range(3):
            assert np.array_equal(got[k], handle.apply_weighted_arrays(batch[k]))

    @pytest.mark.parametrize("bath", [BUMP1, BUMP2], ids=["d1", "d2"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_member_mu_column_gives_each_members_apply(self, bath, kind):
        # the mbp flow passes its members' mu as a (K, 1, ...) column
        grid = bath.grid
        ops = get_weighted_ops(bath)
        mu = np.array([0.0, 0.05, 0.3])
        batch = np.random.default_rng(13).standard_normal((3, grid.d) + grid.shape)
        got = ops.weighted(kind, batch, mu.reshape((3,) + (1,) * (grid.d + 1)))
        assert got.shape == batch.shape
        for k in range(3):
            assert np.array_equal(got[k], ops.weighted(kind, batch[k], mu[k]))

    @pytest.mark.parametrize("bath", [BUMP1, BUMP2], ids=["d1", "d2"])
    @pytest.mark.parametrize("kind", ["I_plus_muTb", "hb_B", "hb_A", "gram_X0", "gram_H1"])
    def test_blocked_dense_matches_column_assembly(self, bath, kind):
        # G1 has 32 unknowns (one partial block), G2 has 512 (eight full blocks)
        grid = bath.grid
        M = assemble_dense(kind, 0.1, bath)
        if kind.startswith("gram"):
            gram_kind = "hb_A" if kind == "gram_X0" else "hb_B"
            apply_fn = lambda V: _gram_apply(grid, gram_kind, 0.1, V)  # noqa: E731
        else:
            apply_fn = build_handle(kind, 0.1, bath).apply_weighted_arrays
        size = M.shape[0]
        cols = np.empty_like(M)
        e = np.zeros(size)
        for i in range(size):
            e[i] = 1.0
            cols[:, i] = apply_fn(e.reshape((grid.d,) + grid.shape)).ravel()
            e[i] = 0.0
        assert np.max(np.abs(M - cols)) <= 1e-14 * np.max(np.abs(cols))


# ---------------------------------------------------------------------------
# dense matrices from each bottom's mu-free blocks

G2_TWISTED = Grid(d=2, n=16, L=2 * np.pi, gamma=0.7)


def _fresh_bottom(grid, profile):
    """A bottom no other test has built blocks on."""
    return build_bathymetry(grid, profile, beta=0.5)


def _reference_dense(ops, kind, mu):
    return dense_matrix(lambda V: ops.weighted(kind, V, mu), ops.grid)


def _count_weighted_assemblies(monkeypatch) -> list:
    """Wrap dense_matrix where operators and verification call it.

    Returns a list that gets one entry, the number of blocks stacked in its
    matrix, per assembly that runs the weighted core; Gram assemblies do not
    count.
    """
    parts = _WeightedOps._parts
    inside = []

    def counted_parts(ops, *args):
        inside.append(1)
        return parts(ops, *args)

    assemblies = []

    def counted_dense(apply_fn, grid):
        before = len(inside)
        M = dense_matrix(apply_fn, grid)
        if len(inside) > before:
            assemblies.append(M.shape[0] // M.shape[1])
        return M

    monkeypatch.setattr(_WeightedOps, "_parts", counted_parts)
    monkeypatch.setattr("bplab.operators.dense_matrix", counted_dense)
    monkeypatch.setattr("bplab.verification.dense_matrix", counted_dense)
    return assemblies


class TestDenseBlocks:
    @pytest.mark.parametrize("order", ["kinds", "reversed"])
    @pytest.mark.parametrize("profile", ["gaussian_bump", "sinusoidal"])
    @pytest.mark.parametrize("grid", [G1, G2_TWISTED], ids=["d1", "d2"])
    def test_dense_is_the_weighted_assembly_bit_for_bit(
        self, monkeypatch, grid, profile, order
    ):
        # every kind and mu from the blocks equals the assembly of weighted
        # itself, whichever kind filled the blocks first
        bath = _fresh_bottom(grid, profile)
        ops = get_weighted_ops(bath)
        cholesky = np.linalg.cholesky
        factorized = []

        def captured(W):
            factorized.append(W)
            return cholesky(W)

        monkeypatch.setattr(np.linalg, "cholesky", captured)
        for kind in KINDS if order == "kinds" else KINDS[::-1]:
            for mu in (0.0, 0.1, 0.5):
                ref = _reference_dense(ops, kind, mu)
                assert np.array_equal(ops.dense(kind, mu), ref)
                handle = build_handle(kind, mu, bath)
                assert handle.strategy == "dense"
                assert np.array_equal(factorized.pop(), 0.5 * (ref + ref.T))
                assert np.array_equal(assemble_dense(kind, mu, bath), ref)

    def test_dense_returns_a_new_array_over_read_only_blocks(self):
        bath = _fresh_bottom(G1, "gaussian_bump")
        ops = get_weighted_ops(bath)
        M = ops.dense("hb_B", 0.1)
        M[:] = 0.0
        assert np.array_equal(ops.dense("hb_B", 0.1), _reference_dense(ops, "hb_B", 0.1))
        assert ops._blocks.keys() == {"T", "G"}
        assert not any(block.flags.writeable for block in ops._blocks.values())

    @pytest.mark.parametrize("grid,most", [(G1, 2), (G2_TWISTED, 3)], ids=["d1", "d2"])
    def test_one_bottom_assembles_each_block_once(self, monkeypatch, grid, most):
        # three kinds at three mu, each with its audit report and dense matrix
        bath = _fresh_bottom(grid, "gaussian_bump")
        assemblies = _count_weighted_assemblies(monkeypatch)
        for kind in KINDS:
            for mu in (0.01, 0.1, 0.5):
                handle = build_handle(kind, mu, bath)
                coercivity_report(handle, trials=1)
                assemble_dense(kind, mu, bath)
        assert len(assemblies) <= most
        assert sum(assemblies) == len(get_weighted_ops(bath)._blocks)

    def test_two_threads_share_one_ops_and_its_blocks(self, monkeypatch):
        # the consistency scenario builds bp and mbp handles on pool threads
        assemblies = _count_weighted_assemblies(monkeypatch)
        bath = _fresh_bottom(G1, "gaussian_bump")
        barrier = threading.Barrier(2)

        def build(kind):
            barrier.wait()
            return build_handle(kind, 0.1, bath)

        with ThreadPoolExecutor(max_workers=2) as pool:
            handles = list(pool.map(build, ("I_plus_muTb", "hb_B")))
        assert handles[0].ops is handles[1].ops is get_weighted_ops(bath)
        assert sum(assemblies) == 2 and handles[0].ops._blocks.keys() == {"T", "G"}
        serial = _fresh_bottom(G1, "gaussian_bump")
        for handle in handles:
            alone = build_handle(handle.kind, 0.1, serial)
            assert np.array_equal(handle._inv, alone._inv)

    def test_audit_grid_above_the_solver_limit_keeps_no_block(self, monkeypatch):
        bath = _fresh_bottom(G1, "gaussian_bump")
        ops = get_weighted_ops(bath)
        monkeypatch.setattr("bplab.operators.SOLVER_DENSE_LIMIT", G1.n - 1)
        for kind in KINDS:
            M = assemble_dense(kind, 0.1, bath)
            assert np.array_equal(M, _reference_dense(ops, kind, 0.1))
        assert ops._blocks == {}
        monkeypatch.undo()
        assemble_dense("hb_B", 0.1, bath)
        assert ops._blocks.keys() == {"T", "G"}


# the dense handles of the presets that run d=1 bump bottoms: (config,
# model, swept eps = mu values), each run at eps = mu
PRESET_DENSE_HANDLES = [
    ("consistency", "bp", ("eps_mu",)),
    ("consistency", "mbp", ("eps_mu",)),
    ("longtime", "mbp", ("eps_mu", "contrast_eps_mu")),
    ("mollifier_study", "mbp", ()),
]


class TestCholeskyInverse:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200, 256, 1024])
    def test_inverse_from_the_factor_matches_lu_and_is_exactly_symmetric(self, n):
        # sizes on both sides of every halving down to the directly inverted blocks
        rng = np.random.default_rng(n)
        M = rng.standard_normal((n, n))
        W = M @ M.T + n * np.eye(n)
        L = np.linalg.cholesky(W)
        X = _lower_inverse(L)
        assert np.abs(X - np.linalg.inv(L)).max() <= 1e-12 * np.abs(X).max()
        assert not np.triu(X, 1).any()
        inv = X.T @ X
        ref = np.linalg.inv(W)
        assert np.abs(inv - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(inv, inv.T)

    @pytest.mark.parametrize(
        "preset,model,axes",
        PRESET_DENSE_HANDLES,
        ids=[f"{p}-{m}" for p, m, _ in PRESET_DENSE_HANDLES],
    )
    def test_preset_dense_handles_round_trip(self, preset, model, axes):
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{preset}.yaml")
        bath = config.build_bath()
        values = [v for axis in axes for v in config.sweep[axis]] or [config.params.mu]
        rng = np.random.default_rng(17)
        for v in values:
            (handle,) = build_handles(ModelParams(eps=v, mu=v, model=model), bath).values()
            assert handle.strategy == "dense"
            assert np.array_equal(handle._inv, handle._inv.T)
            r = rng.standard_normal((handle.grid.d,) + handle.grid.shape)
            back = handle.apply_arrays(handle.solve_arrays(r))
            assert np.abs(back - r).max() <= 1e-13 * np.abs(r).max()

    @pytest.mark.parametrize("bath", [BUMP1, BUMP2], ids=["d1", "d2"])
    def test_dense_solve_into_out_is_one_matmul_bit_for_bit(self, bath):
        # a dense solve writes inv @ y into out; for one right-hand side the
        # (n, n) @ (n, 1) product, the matrix-vector product and a stacked
        # matmul give the same bits, and a batch is one product over its columns
        handle = build_handle("hb_B", 0.1, bath)
        inv, size = handle._inv, handle.size
        rng = np.random.default_rng(19)
        y = rng.standard_normal((3, bath.grid.d) + bath.grid.shape)
        for rhs in (y[0], y):
            out = np.empty_like(rhs)
            assert handle.solve_weighted_arrays(rhs, out=out) is out
            cols = rhs.reshape(-1, size).T
            assert np.array_equal(out, (inv @ cols).T.reshape(rhs.shape))
            assert np.array_equal(out, handle.solve_weighted_arrays(rhs))
        one = y[0].reshape(size)
        assert np.array_equal(inv @ one[:, None], (inv @ one)[:, None])
        stacked = np.matmul(inv, np.stack([one, one])[:, :, None])
        assert np.array_equal(stacked[1, :, 0], inv @ one)


def test_cold_start_and_dense_paths_never_import_scipy():
    # with every scipy import refused, the CLI loads, a d=1 dense handle
    # builds and solves, and a d=2 dense coercivity audit runs
    src = str(Path(bplab.__file__).resolve().parents[1])
    code = textwrap.dedent(
        """\
        import sys

        class RefuseScipy:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] == "scipy":
                    raise ImportError(f"{name} is refused")
                return None

        sys.meta_path.insert(0, RefuseScipy())

        import numpy as np
        import bplab.cli
        from bplab.bathymetry import build_bathymetry
        from bplab.operators import build_handle, coercivity_report
        from bplab.spectral import Grid

        g = Grid(d=1, n=32, L=2 * np.pi)
        handle = build_handle("hb_B", 0.1, build_bathymetry(g, "gaussian_bump", 0.5))
        assert handle.strategy == "dense"
        rhs = np.random.default_rng(0).standard_normal((1,) + g.shape)
        back = handle.apply_arrays(handle.solve_arrays(rhs))
        assert np.abs(back - rhs).max() <= 1e-9 * np.abs(rhs).max()

        g = Grid(d=2, n=8, L=2 * np.pi)
        handle = build_handle("hb_B", 0.1, build_bathymetry(g, "gaussian_bump", 0.5))
        assert handle.strategy == "dense"
        report = coercivity_report(handle)
        assert 0.0 < report["min_quotient"] <= report["max_quotient"]
        assert "scipy" not in sys.modules
        """
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
