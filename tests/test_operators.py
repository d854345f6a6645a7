"""Weighted dispersive operators: closed forms, symmetry, solves, audits."""

import numpy as np
import pytest

from bplab.bathymetry import build_bathymetry
from bplab.operators import (
    _gram_apply,
    apply_A,
    apply_B,
    apply_Tb,
    build_handle,
    coercivity_report,
    gradient_control_report,
    perp_structure_residual,
)
from bplab.spectral import (
    Grid,
    div_arr,
    grad_arr,
    perp_div_arr,
    perp_grad_arr,
    trunc_arr,
)
from bplab.verification import assemble_dense, eig_extrema

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


def rand_vec(grid, rng):
    return rng.standard_normal((grid.d,) + grid.shape)


def vec_from_mode(grid, k):
    return np.stack([np.sin(k * grid.x[0])] + [np.zeros(grid.shape)] * (grid.d - 1))


class TestFlatClosedForms:
    def test_tb_flat_single_mode(self):
        # flat bottom: Tb v = -(1/3) grad div v, so sin(kx) -> (k^2/3) sin(kx)
        for k in (1, 3, 5):
            v = vec_from_mode(G1, k)
            got = apply_Tb(v, FLAT1)[0]
            np.testing.assert_allclose(
                got, (k**2 / 3.0) * np.sin(k * G1.x[0]), atol=1e-11
            )

    def test_A_and_B_identity_at_mu_zero(self):
        rng = np.random.default_rng(0)
        for bath in (FLAT1, BUMP1, BUMP2):
            v = rand_vec(bath.grid, rng)
            for fn in (apply_A, apply_B):
                np.testing.assert_allclose(fn(v, 0.0, bath), v, atol=1e-13)

    def test_B_flat_symbol_d1(self):
        # flat d=1: B acts as 1 + mu k^2/3 + mu k^2 on a single mode
        mu, k = 0.2, 4
        v = vec_from_mode(G1, k)
        got = apply_B(v, mu, FLAT1)[0]
        want = (1.0 + mu * k**2 / 3.0 + mu * k**2) * np.sin(k * G1.x[0])
        np.testing.assert_allclose(got, want, atol=1e-11)

    def test_A_flat_symbol_d1(self):
        mu, k = 0.3, 3
        v = vec_from_mode(G1, k)
        got = apply_A(v, mu, FLAT1)[0]
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

    @pytest.mark.parametrize("bath", [FLAT1, BUMP1, BUMP2], ids=["flat", "d1", "d2"])
    @pytest.mark.parametrize("kind", ["I_plus_muTb", "hb_B", "hb_A"])
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
        res = perp_structure_residual(handle, f)
        assert res <= 1e-10

    def test_perp_structure_random_rhs_fails_gracefully(self):
        # sanity: a generic rhs (not h_b grad f) has no such structure
        handle = build_handle("hb_A", 0.1, BUMP2)
        rng = np.random.default_rng(8)
        u = handle.solve_arrays(rng.standard_normal((2,) + G2.shape))
        assert np.max(np.abs(perp_div_arr(G2, u))) > 1e-6

    def test_gradient_control_ratios_logged(self):
        handle = build_handle("hb_A", 0.1, BUMP1)
        rep = gradient_control_report(handle, s=1.0, trials=4)
        assert len(rep["ratios"]) == 4
        assert all(np.isfinite(r) and r > 0 for r in rep["ratios"])
        assert rep["max_ratio"] < 10.0  # measured constant stays O(1)

    def test_gradient_control_requires_hbA(self):
        with pytest.raises(ValueError):
            gradient_control_report(build_handle("hb_B", 0.1, BUMP1))


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
            want = handle.apply_weighted_arrays(batch[k])
            assert np.max(np.abs(got[k] - want)) <= 1e-14 * np.max(np.abs(want))

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
