"""Dispersive elliptic operators over variable bathymetry and their solvers.

With z = grad_gamma b, h_b = 1 - beta*b and D = div_gamma, the three
operators handled here are (all acting on velocity-like fields)

    Tb v = -(1/(3h_b)) grad(h_b^3 Dv)
           + (beta/(2h_b)) [grad(h_b^2 z.v) - h_b^2 z Dv] + beta^2 z (z.v)
    A  v = v - mu * grad((1/h_b) D(h_b v))
    B  v = (I + mu*Tb) v - mu*grad((1/h_b) D(h_b v)) - mu*(1/h_b) perp_grad(perp_div v)

Only their h_b-weighted forms h_b(I + mu*Tb), h_b*A, h_b*B are symmetric,
and those are what get factorized and audited. The discretization is picked
so that symmetry is exact in floating point, not just up to dealiasing
tails: every 2/3-rule product T(a * Tx) appears in self-adjoint pairings,
zero-order coefficient multiplies stay plain pointwise products, and the
grad-div block of A uses plain h_b products so that solutions of
h_b*A u = h_b*grad f are exact discrete gradients.

The applies stay in rfft space between products: each one runs four
stacked transforms (inputs forward, band-limited divergences back,
coefficient products forward, output spectra back), and takes a leading
batch axis, so dense_matrix assembles DENSE_BLOCK identity columns per call.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.linalg

from .bathymetry import Bathymetry
from .errors import NotSPDError, SolverDivergenceError
from .spectral import (
    Grid,
    div_arr,
    grad_arr,
    l2_norm_arr,
    lambda_arr,
    perp_div_arr,
    sobolev_norm_arr,
    trunc_arr,
)

__all__ = [
    "KINDS",
    "OperatorHandle",
    "build_handle",
    "apply_Tb",
    "apply_A",
    "apply_B",
    "coercivity_report",
    "gradient_control_report",
    "perp_structure_residual",
    "dense_matrix",
]

KINDS = ("I_plus_muTb", "hb_B", "hb_A")

SOLVER_DENSE_LIMIT = 1024  # unknowns at or below this get a Cholesky factorization
CG_TOL = 1e-10
CG_MAXITER = 500
DENSE_BLOCK = 64  # identity columns per batched apply in dense_matrix


# ---------------------------------------------------------------------------
# fused array core ((..., d, *grid.shape) layout, batched over leading axes)


class _WeightedOps:
    """Array-level cores of the weighted operators for one bathymetry.

    Caches the band-limited coefficient fields once. All methods take and
    return stacked (..., d, *shape) arrays; leading axes are a batch.
    Every apply runs four stacked transforms: the inputs forward, the
    band-limited divergences and V back, their coefficient products
    forward, and the assembled output spectra back.
    """

    def __init__(self, bath: Bathymetry):
        self.grid = g = bath.grid
        self.hb = bath.hb
        self.inv_hb = bath.inv_hb
        self.beta = bath.beta
        self.z = bath.grad_b
        self.hb3_t = trunc_arr(g, self.hb**3)
        self.u_t = trunc_arr(g, self.hb**2 * self.z)
        self.invhb_t = trunc_arr(g, self.inv_hb)
        self.beta2_hbz = self.beta**2 * self.hb * self.z
        self.mik = g.dealias_mask * g.ik_stack

    def _parts(self, V: np.ndarray, tb: bool, phi: bool, perp: bool):
        """Fused transforms behind every weighted apply.

        Returns (T, G): T = h_b*Tb V in its symmetric divergence form, with
        perp_grad(perp_div V) subtracted when perp (which needs tb) is set,
        and G = grad phi(V) for phi(V) = T((1/h_b)_t * T D(h_b V)), the
        grad-div block. A part not asked for is None. Tb's pairings are
        realized exactly: (1/3)<T hb^3 TDv, TDw> + beta^2 <hb (z.v), (z.w)>
        - (beta/2)[<u_t.Tv, TDw> + <u_t.Tw, TDv>]. The h_b products of phi
        stay plain so h_b*A u = h_b*grad f forces u = grad(f + mu*phi(u))
        exactly.
        """
        g = self.grid
        d = g.d
        out_shape = V.shape
        V = V.reshape((-1, d) + g.shape)
        mask, mik, beta = g.dealias_mask, self.mik, self.beta
        twist = tb and beta != 0.0

        ins = ([V] if tb else []) + ([self.hb * V] if phi else [])
        spec = g.rfft(np.concatenate(ins, axis=1))
        Vs, HVs = spec[:, :d], spec[:, -d:]

        back = []
        if tb:
            back.append((mik * Vs).sum(axis=1, keepdims=True))
            if twist:
                back.append(mask * Vs)
        if phi:
            back.append((mik * HVs).sum(axis=1, keepdims=True))
        nod = g.irfft(np.concatenate(back, axis=1))

        prods = []
        if tb:
            dv_t = nod[:, :1]
            prods.append(self.hb3_t * dv_t)
            if twist:
                prods.append((self.u_t * nod[:, 1 : 1 + d]).sum(axis=1, keepdims=True))
                prods.append(self.u_t * dv_t)
        if phi:
            prods.append(self.invhb_t * nod[:, -1:])
        P = g.rfft(np.concatenate(prods, axis=1))

        outs = []
        if tb:
            t_s = mik * (-(1.0 / 3.0) * P[:, :1])
            if twist:
                t_s = t_s + 0.5 * beta * (mik * P[:, 1:2] - mask * P[:, 2 : 2 + d])
            if perp:
                pk = g.ik_perp
                t_s = t_s - pk * (pk * Vs).sum(axis=1, keepdims=True)
            outs.append(t_s)
        if phi:
            outs.append(mik * P[:, -1:])
        res = g.irfft(np.concatenate(outs, axis=1))

        T, G = res[:, :d], res[:, -d:]
        if twist:
            T = T + self.beta2_hbz * (self.z * V).sum(axis=1, keepdims=True)
        T = T.reshape(out_shape) if tb else None
        return T, G.reshape(out_shape) if phi else None

    def tb(self, V: np.ndarray) -> np.ndarray:
        """h_b*Tb in its symmetric divergence form."""
        return self._parts(V, True, False, False)[0]

    def gradphi(self, V: np.ndarray) -> np.ndarray:
        """grad of phi(V) = T((1/h_b)_t * T D(h_b V)), the grad-div block."""
        return self._parts(V, False, True, False)[1]

    def w_imutb(self, V: np.ndarray, mu: float) -> np.ndarray:
        """Weighted apply h_b(I + mu*Tb)V."""
        return self.hb * V + mu * self.tb(V)

    def w_hba(self, V: np.ndarray, mu: float) -> np.ndarray:
        """Weighted apply h_b*A V = h_b*(V - mu*gradphi(V))."""
        return self.hb * (V - mu * self.gradphi(V))

    def w_hbb(self, V: np.ndarray, mu: float) -> np.ndarray:
        """Weighted apply h_b*B V; the perp block is a plain multiplier."""
        T, G = self._parts(V, True, True, self.grid.d == 2)
        return self.hb * V + mu * (T - self.hb * G)

    def weighted(self, kind: str, V: np.ndarray, mu: float) -> np.ndarray:
        if kind == "I_plus_muTb":
            return self.w_imutb(V, mu)
        if kind == "hb_A":
            return self.w_hba(V, mu)
        return self.w_hbb(V, mu)


_OPS_CACHE: "weakref.WeakKeyDictionary[Bathymetry, _WeightedOps]" = (
    weakref.WeakKeyDictionary()
)


def get_weighted_ops(bath: Bathymetry) -> _WeightedOps:
    ops = _OPS_CACHE.get(bath)
    if ops is None:
        ops = _WeightedOps(bath)
        _OPS_CACHE[bath] = ops
    return ops


# ---------------------------------------------------------------------------
# flat-bottom symbols: exact inverses, reused as the CG preconditioner


def _flat_inverse(grid: Grid, kind: str, mu: float):
    """Per-mode inverse of the flat-bottom weighted symbol.

    Every kind has the form a*I + c_div k k^T + c_perp kp kp^T in each mode,
    with k the effective (Nyquist-zeroed) twisted wavenumber, so the inverse
    splits along the k / k-perp projectors. Matches the dealias masking of
    the discrete operators exactly.
    """
    k2 = grid.k2deriv
    m = grid.dealias_mask
    if kind == "I_plus_muTb":
        ld = 1.0 + (mu / 3.0) * k2 * m
        lp = np.ones_like(k2)
    elif kind == "hb_A":
        ld = 1.0 + mu * k2 * m
        lp = np.ones_like(k2)
    else:  # hb_B
        ld = 1.0 + (4.0 * mu / 3.0) * k2 * m
        lp = 1.0 + mu * k2

    if grid.d == 1:
        inv = 1.0 / ld

        def apply_inv(spec):
            return inv * spec

        return apply_inv

    kx, ky = grid.keff
    k2safe = np.where(k2 == 0.0, 1.0, k2)
    inv_ld = 1.0 / ld
    inv_lp = 1.0 / lp
    diff = inv_ld - inv_lp

    def apply_inv(spec):
        kd = (kx * spec[0] + ky * spec[1]) / k2safe
        return np.stack(
            [inv_lp * spec[0] + diff * kd * kx, inv_lp * spec[1] + diff * kd * ky]
        )

    return apply_inv


def dense_matrix(apply_fn, grid: Grid) -> np.ndarray:
    """Materialize a stacked-vector linear map, DENSE_BLOCK columns per call.

    apply_fn must take a leading batch axis, (k, d, *shape) -> (k, d, *shape);
    it is applied to blocks of identity columns. Blocks bound the scratch
    memory of one call, which a whole identity at once would multiply.
    """
    size = grid.d * grid.n**grid.d
    M = np.empty((size, size))
    for start in range(0, size, DENSE_BLOCK):
        k = min(DENSE_BLOCK, size - start)
        E = np.zeros((k, size))
        E[:, start : start + k] = np.eye(k)
        out = np.asarray(apply_fn(E.reshape((k, grid.d) + grid.shape)))
        M[:, start : start + k] = out.reshape(k, size).T
    return M


def _pcg(apply_w, precond, y: np.ndarray, tol: float, maxiter: int) -> np.ndarray:
    """Preconditioned conjugate gradients on the weighted SPD operator."""
    norm_y = float(np.sqrt(np.vdot(y, y).real))
    if norm_y == 0.0:
        return np.zeros_like(y)
    x = np.zeros_like(y)
    r = y.copy()
    z = precond(r)
    p = z.copy()
    rz = float(np.vdot(r, z).real)
    for _ in range(maxiter):
        Ap = apply_w(p)
        pAp = float(np.vdot(p, Ap).real)
        if pAp <= 0.0:
            raise SolverDivergenceError("operator lost positivity inside CG")
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        if float(np.sqrt(np.vdot(r, r).real)) <= tol * norm_y:
            return x
        z = precond(r)
        rz_new = float(np.vdot(r, z).real)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverDivergenceError(
        f"CG stalled above tol={tol:g} after {maxiter} iterations"
    )


class OperatorHandle:
    """Prefactorized solver for one (kind, mu, bathymetry) triple.

    kind selects the equation the handle solves:
      I_plus_muTb : (I + mu*Tb) x = rhs, through h_b(I + mu*Tb) x = h_b*rhs
      hb_B        : h_b*B x = rhs
      hb_A        : h_b*A x = rhs
    Strategy: exact per-mode inversion on flat bottoms, Cholesky at or
    below SOLVER_DENSE_LIMIT unknowns, otherwise CG preconditioned by the
    flat-bottom inverse (relative residual 1e-10, 500 iteration cap).
    The operators are time-independent, so the factorization is built once
    and shared by every step of a run.
    """

    def __init__(self, kind: str, mu: float, bath: Bathymetry):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if mu < 0:
            raise ValueError("mu must be nonnegative")
        self.kind = kind
        self.mu = mu
        self.bath = bath
        self.grid = bath.grid
        self.ops = get_weighted_ops(bath)
        self.size = self.grid.d * self.grid.n**self.grid.d
        self._shape = (self.grid.d,) + self.grid.shape

        if bath.is_flat:
            self.strategy = "spectral"
            self._flat_inv = _flat_inverse(self.grid, kind, mu)
        elif self.size <= SOLVER_DENSE_LIMIT:
            self.strategy = "dense"
            W = dense_matrix(self.apply_weighted_arrays, self.grid)
            W = 0.5 * (W + W.T)  # scrub roundoff asymmetry before factorizing
            try:
                fac = scipy.linalg.cho_factor(W, lower=True)
            except scipy.linalg.LinAlgError as exc:
                raise NotSPDError(f"{kind} weighted matrix not SPD: {exc}") from exc
            self._inv = scipy.linalg.cho_solve(fac, np.eye(self.size))
        else:
            self.strategy = "pcg"
            self._precond_spec = _flat_inverse(self.grid, kind, mu)

    # -- applies ------------------------------------------------------------

    def apply_weighted_arrays(self, V: np.ndarray) -> np.ndarray:
        """The symmetric positive form this handle factorizes."""
        return self.ops.weighted(self.kind, V, self.mu)

    def _check_shape(self, V: np.ndarray) -> None:
        # leading axes are a batch; the trailing ones must be one velocity field
        if V.shape[-len(self._shape) :] != self._shape:
            raise ValueError(
                f"array shape {V.shape} does not end in (d, *grid.shape)"
                f" = {self._shape}"
            )

    def apply_arrays(self, V: np.ndarray) -> np.ndarray:
        """The equation-form operator matching solve_arrays."""
        self._check_shape(V)
        W = self.apply_weighted_arrays(V)
        if self.kind == "I_plus_muTb":
            return self.ops.inv_hb * W
        return W

    # -- solves -------------------------------------------------------------

    def solve_arrays(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the equation form; see the class docstring for each kind."""
        self._check_shape(rhs)
        y = self.ops.hb * rhs if self.kind == "I_plus_muTb" else rhs
        return self.solve_weighted_arrays(y)

    def solve_weighted_arrays(self, y: np.ndarray) -> np.ndarray:
        """Solve the weighted SPD form W x = y directly."""
        if self.strategy == "spectral":
            return self.grid.irfft(self._flat_inv(self.grid.rfft(y)))
        if self.strategy == "dense":
            return (self._inv @ y.ravel()).reshape(self._shape)
        return _pcg(
            lambda p: self.apply_weighted_arrays(p),
            lambda r: self.grid.irfft(self._precond_spec(self.grid.rfft(r))),
            y,
            CG_TOL,
            CG_MAXITER,
        )


def build_handle(kind: str, mu: float, bath: Bathymetry) -> OperatorHandle:
    return OperatorHandle(kind, mu, bath)


# ---------------------------------------------------------------------------
# equation-form operator applications on (..., d, *grid.shape) arrays


def apply_Tb(V: np.ndarray, bath: Bathymetry) -> np.ndarray:
    """Dispersive operator Tb; reduces to -(1/3) grad div on flat bottoms."""
    ops = get_weighted_ops(bath)
    return ops.inv_hb * ops.tb(V)


def apply_A(V: np.ndarray, mu: float, bath: Bathymetry) -> np.ndarray:
    """A v = v - mu*grad((1/h_b) div(h_b v)); identity at mu = 0."""
    return V - mu * get_weighted_ops(bath).gradphi(V)


def apply_B(V: np.ndarray, mu: float, bath: Bathymetry) -> np.ndarray:
    """B = (1/h_b) * (weighted hb_B form); identity at mu = 0."""
    ops = get_weighted_ops(bath)
    return ops.inv_hb * ops.w_hbb(V, mu)


# ---------------------------------------------------------------------------
# audits


def _gram_apply(grid: Grid, kind: str, mu: float, V: np.ndarray) -> np.ndarray:
    """Gram operator of the norm each kind is coercive against.

    X^0 (|v|^2 + mu*|div v|^2) for I_plus_muTb and hb_A, H^1 for hb_B.
    """
    if kind == "hb_B":
        return lambda_arr(grid, V, 2.0)
    return V - mu * grad_arr(grid, div_arr(grid, V))


def coercivity_report(
    handle: OperatorHandle, trials: int = 8, rng: np.random.Generator | None = None
) -> dict:
    """Rayleigh-quotient and symmetry audit of the weighted form.

    Quotients are <W v, v> / <G v, v> with G the kind's Gram operator.
    Dense eigen-extrema are included when the operator fits the dense cap;
    random-trial extrema and the worst relative symmetry residual are
    always included. Returns a JSON-friendly dict.
    """
    rng = rng or np.random.default_rng(0)
    grid = handle.grid
    report = {
        "kind": handle.kind,
        "d": grid.d,
        "n": grid.n,
        "mu": handle.mu,
        "beta": handle.bath.beta,
        "strategy": handle.strategy,
    }

    quotients = []
    sym = 0.0
    for _ in range(trials):
        v, w = rng.standard_normal((2, grid.d) + grid.shape)
        Wv = handle.apply_weighted_arrays(v)
        Ww = handle.apply_weighted_arrays(w)
        num = float(np.vdot(Wv, v).real)
        den = float(np.vdot(_gram_apply(grid, handle.kind, handle.mu, v), v).real)
        quotients.append(num / den)
        asym = abs(float(np.vdot(Wv, w).real) - float(np.vdot(v, Ww).real))
        scale = float(
            np.linalg.norm(Wv.ravel()) * np.linalg.norm(w.ravel())
            + np.linalg.norm(v.ravel()) * np.linalg.norm(Ww.ravel())
        )
        sym = max(sym, asym / scale)
    report["trial_min_quotient"] = min(quotients)
    report["trial_max_quotient"] = max(quotients)
    report["symmetry_residual"] = sym

    if handle.size <= 4096:
        W = dense_matrix(handle.apply_weighted_arrays, grid)
        G = dense_matrix(
            lambda V: _gram_apply(grid, handle.kind, handle.mu, V), grid
        )
        W = 0.5 * (W + W.T)
        G = 0.5 * (G + G.T)
        eigs = scipy.linalg.eigh(W, G, eigvals_only=True)
        report["min_quotient"] = float(eigs[0])
        report["max_quotient"] = float(eigs[-1])
    return report


def gradient_control_report(
    handle: OperatorHandle,
    s: float = 1.0,
    trials: int = 8,
    rng: np.random.Generator | None = None,
) -> dict:
    """Measured constant in sqrt(mu)*|(h_b A)^{-1} grad g|_{X^s} <= C |g|_{H^s}.

    Trials draw smooth random g (spectrally filtered noise); the report logs
    every ratio and the max, it does not assert a bound.
    """
    if handle.kind != "hb_A":
        raise ValueError("gradient control audit requires an hb_A handle")
    rng = rng or np.random.default_rng(0)
    grid = handle.grid
    mu = handle.mu
    ratios = []
    for _ in range(trials):
        spec = grid.rfft(rng.standard_normal(grid.shape))
        g = grid.irfft(spec / (1.0 + grid.k2gamma) ** 2)
        u = handle.solve_arrays(grad_arr(grid, g))
        # |u|_{X^s}^2 = |u|_{H^s}^2 + mu*|div u|_{H^s}^2
        xs2 = sobolev_norm_arr(grid, u, s) ** 2
        xs2 += mu * sobolev_norm_arr(grid, div_arr(grid, u), s) ** 2
        num = np.sqrt(mu) * np.sqrt(xs2)
        den = sobolev_norm_arr(grid, g, s)
        ratios.append(float(num / den))
    return {"s": s, "mu": mu, "ratios": ratios, "max_ratio": max(ratios)}


def perp_structure_residual(handle: OperatorHandle, f: np.ndarray) -> float:
    """|perp_div u|_2 / |u|_{H^1} for u = (h_b A)^{-1}(h_b grad f).

    Such u are exact discrete gradients, so the residual is roundoff-level;
    identically zero in d=1.
    """
    if handle.kind != "hb_A":
        raise ValueError("perp structure audit requires an hb_A handle")
    grid = handle.grid
    u = handle.solve_arrays(handle.ops.hb * grad_arr(grid, f))
    num = l2_norm_arr(grid, perp_div_arr(grid, u)) if grid.d == 2 else 0.0
    den = np.sqrt(sum(sobolev_norm_arr(grid, row, 1.0) ** 2 for row in u))
    return float(num / den) if den > 0 else 0.0
