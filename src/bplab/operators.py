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

The applies stay in rfft space between products: one chain,
_WeightedOps._parts, runs four stacked transforms (inputs forward,
band-limited divergences back, coefficient products forward, output
spectra back) and takes a leading batch axis, so dense_matrix assembles
DENSE_BLOCK identity columns per call.

Each weighted form is h_b*V plus mu times mu-free parts of the bottom:
T = h_b*Tb for h_b(I + mu*Tb), G = grad phi for h_b*A, and both (with the
d=2 perp block in T) for h_b*B. _combine states each form once over h_b, V,
T and G. The applies take it over a field and its parts; a bottom's dense
matrices, for every kind and mu, take it over the identity and the dense
blocks of the same parts, which _WeightedOps.dense assembles once per
bottom and reuses.
"""

from __future__ import annotations

import math
import threading
import weakref

import numpy as np

from .bathymetry import Bathymetry
from .errors import NotSPDError, SolverDivergenceError
from .spectral import Grid, div_arr, grad_arr, hs_norms, lambda_arr, trunc_arr

__all__ = [
    "KINDS",
    "OperatorHandle",
    "build_handle",
    "coercivity_report",
    "gradient_control_report",
    "perp_structure_residual",
    "dense_matrix",
]

KINDS = ("I_plus_muTb", "hb_B", "hb_A")

SOLVER_DENSE_LIMIT = 1024  # unknowns at or below this get a dense inverse
CG_TOL = 1e-10
CG_MAXITER = 500
CG_HISTORY = 4  # past solves of one member that warm-start its next CG solve
CG_HISTORY_DROP = 1e-10  # A-Gram-Schmidt keeps a direction above this share of its A-norm^2
DENSE_BLOCK = 64  # identity columns per batched apply in dense_matrix
DENSE_AUDIT_LIMIT = 4096  # unknowns at or below this get dense audit matrices
TRIANGULAR_BLOCK = 64  # _lower_inverse inverts blocks of at most this many rows directly


# ---------------------------------------------------------------------------
# fused array core ((..., d, *grid.shape) layout, batched over leading axes)


def _stack_rows(parts: list) -> np.ndarray:
    """Join (K, rows, ...) parts along the row axis; a lone part is not copied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """Sum over the component axis 1, kept; d = 1's one term is that term."""
    return x if x.shape[1] == 1 else x.sum(axis=1, keepdims=True)


def _combine(kind: str, mu, hb, V, T, G):
    """Each weighted form, stated once, over h_b, V and the parts (T, G):
    a field stack and its _parts in weighted, h_b as a column, the identity
    and the mu-free blocks in dense, so a matrix is its apply's formula."""
    if kind == "I_plus_muTb":
        return hb * V + mu * T
    if kind == "hb_A":
        return hb * (V - mu * G)
    return hb * V + mu * (T - hb * G)


class _Identity:
    """dense's V: h_b * I is np.diag(h_b), I - X one np.eye written in place."""

    __array_ufunc__ = None  # ndarray operators defer to the methods below

    def __rmul__(self, hb: np.ndarray) -> np.ndarray:
        return np.diag(hb.ravel())

    def __sub__(self, X: np.ndarray) -> np.ndarray:
        out = np.eye(len(X))
        out -= X
        return out


class _WeightedOps:
    """Array-level cores of the weighted operators for one bathymetry.

    Caches the band-limited coefficient fields once. All methods take and
    return stacked (..., d, *shape) arrays; leading axes are a batch.
    _parts is the one transform chain and _combine the one formula of each
    kind: weighted applies the formula to a field's parts, dense to the
    bottom's cached mu-free blocks of the same parts.
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
        self._blocks = {}  # mu-free dense blocks by name; see _dense_blocks
        # the (tb, phi, perp) parts of _parts that each kind reads
        self.flags = {k: (k != "hb_A", k != "I_plus_muTb", k == "hb_B" and g.d == 2) for k in KINDS}

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
        shape = V.shape
        reshaped = V.ndim != d + 2  # the stacks below have one batch axis
        if reshaped:
            V = V.reshape((-1, d) + g.shape)
        mask, mik, beta = g.dealias_mask, g.mik, self.beta
        twist = tb and beta != 0.0

        # phi's rows close every stack, which holds them alone without tb
        ins = ([V] if tb else []) + ([self.hb * V] if phi else [])
        spec = g.rfft(_stack_rows(ins))

        back = []
        if tb:
            Vs = spec[:, :d]
            back.append(_sum_rows(mik * Vs))
            if twist:
                back.append(mask * Vs)
        if phi:
            back.append(_sum_rows(mik * (spec[:, -d:] if tb else spec)))
        nod = g.irfft(_stack_rows(back))

        prods = []
        if tb:
            dv_t = nod[:, :1]
            prods.append(self.hb3_t * dv_t)
            if twist:
                prods.append(_sum_rows(self.u_t * nod[:, 1 : 1 + d]))
                prods.append(self.u_t * dv_t)
        if phi:
            prods.append(self.invhb_t * (nod[:, -1:] if tb else nod))
        P = g.rfft(_stack_rows(prods))

        outs = []
        if tb:
            t_s = mik * (-(1.0 / 3.0) * P[:, :1])
            if twist:
                t_s = t_s + 0.5 * beta * (mik * P[:, 1:2] - mask * P[:, 2 : 2 + d])
            if perp:
                pk = g.ik_perp
                t_s = t_s - pk * _sum_rows(pk * Vs)
            outs.append(t_s)
        if phi:
            outs.append(mik * (P[:, -1:] if tb else P))
        res = g.irfft(_stack_rows(outs))

        T = G = None
        if tb:
            T = res[:, :d]
            if twist:
                T = T + self.beta2_hbz * _sum_rows(self.z * V)
        if phi:
            G = res[:, -d:] if tb else res
        if reshaped:
            T, G = (None if x is None else x.reshape(shape) for x in (T, G))
        return T, G

    def weighted(self, kind: str, V: np.ndarray, mu) -> np.ndarray:
        """Weighted apply of a kind; mu may be a column over V's batch axes."""
        T, G = self._parts(V, *self.flags[kind])
        return _combine(kind, mu, self.hb, V, T, G)

    def _dense_blocks(self, tb: bool, phi: bool, perp: bool) -> tuple:
        """Dense (T, G) of _parts(., tb, phi, perp), None where not asked for.

        T is the matrix of h_b*Tb, kept as Tp with the d=2 perp block
        subtracted, and G the matrix of grad phi. The missing blocks come
        from one dense_matrix pass over _parts. They are kept, read-only,
        only on grids of at most SOLVER_DENSE_LIMIT unknowns (8 MB a block
        at most); larger (audit) grids assemble them for this call alone.
        """
        t_name = "Tp" if perp else "T"
        names = [t_name] * tb + ["G"] * phi
        with _LOCK:
            found = {name: self._blocks[name] for name in names if name in self._blocks}
            missing = [name for name in names if name not in found]
            if missing:
                sweep = missing[0] != "G", "G" in missing, "Tp" in missing

                def parts(V):
                    return _stack_rows([P for P in self._parts(V, *sweep) if P is not None])

                M = dense_matrix(parts, self.grid)
                M.flags.writeable = False
                size = M.shape[1]
                for i, name in enumerate(missing):
                    found[name] = M[i * size : (i + 1) * size]
                    if size <= SOLVER_DENSE_LIMIT:
                        self._blocks[name] = found[name]
        return (found[t_name] if tb else None), (found["G"] if phi else None)

    def dense(self, kind: str, mu: float) -> np.ndarray:
        """Dense matrix of weighted(kind, ., mu), a new array on every call,
        bit for bit the matrix dense_matrix assembles from weighted itself."""
        g = self.grid
        hb = np.broadcast_to(self.hb, (g.d,) + g.shape).reshape(-1, 1)
        T, G = self._dense_blocks(*self.flags[kind])
        return _combine(kind, mu, hb, _Identity(), T, G)


# guards the ops cache and block assembly: scenario batches run on pool threads
_LOCK = threading.Lock()
_OPS_CACHE: "weakref.WeakKeyDictionary[Bathymetry, _WeightedOps]" = (
    weakref.WeakKeyDictionary()
)


def get_weighted_ops(bath: Bathymetry) -> _WeightedOps:
    with _LOCK:
        ops = _OPS_CACHE.get(bath)
        if ops is None:
            ops = _WeightedOps(bath)
            _OPS_CACHE[bath] = ops
    return ops


# ---------------------------------------------------------------------------
# flat-bottom symbols: exact inverses, reused in the CG preconditioner


def _flat_symbols(grid: Grid, kind: str, mu: float):
    """Flat-bottom weighted symbol of a kind along k and along k-perp.

    Every kind has the form ld k k^T/|k|^2 + lp kp kp^T/|k|^2 in each mode,
    with k the effective (Nyquist-zeroed) twisted wavenumber; returns
    (ld, lp), matching the dealias masking of the discrete operators.
    """
    k2 = grid.k2deriv
    m = grid.dealias_mask
    if kind == "I_plus_muTb":
        return 1.0 + (mu / 3.0) * k2 * m, np.ones_like(k2)
    if kind == "hb_A":
        return 1.0 + mu * k2 * m, np.ones_like(k2)
    return 1.0 + (4.0 * mu / 3.0) * k2 * m, 1.0 + mu * k2  # hb_B


def _flat_inverse(grid: Grid, kind: str, mu: float):
    """Per-mode inverse of the flat-bottom weighted symbol.

    The inverse splits along the k / k-perp projectors of _flat_symbols;
    in d=2 its symmetric 2x2 block per mode is built once here. Leading axes
    of the spectrum are a batch. It solves flat-bottom handles exactly and,
    scaled by h_b^{-1/2} on both sides, preconditions CG on every bottom.
    """
    ld, lp = _flat_symbols(grid, kind, mu)
    inv_ld = 1.0 / ld

    if grid.d == 1:

        def apply_inv(spec):
            return inv_ld * spec

        return apply_inv

    kx, ky = grid.keff
    k2 = grid.k2deriv
    inv_lp = 1.0 / lp
    diff = (inv_ld - inv_lp) / np.where(k2 == 0.0, 1.0, k2)
    mxx = inv_lp + diff * kx * kx
    mxy = diff * kx * ky
    myy = inv_lp + diff * ky * ky
    blocks = np.array([[mxx, mxy], [mxy, myy]])  # (2, 2, *rshape): [i, j] = m_ij

    def apply_inv(spec):
        # out_i = m_i0 s_0 + m_i1 s_1, all four products in one multiply
        prod = blocks * spec[..., None, :, :, :]
        return prod[..., 0, :, :] + prod[..., 1, :, :]

    return apply_inv


def dense_matrix(apply_fn, grid: Grid) -> np.ndarray:
    """Materialize a stacked-vector linear map, DENSE_BLOCK columns per call.

    apply_fn must take a leading batch axis, (k, d, *shape) -> (k, m*d,
    *shape); it is applied to blocks of identity columns. Blocks bound the
    scratch memory of one call, which a whole identity at once would
    multiply. An output of m stacked maps gives their matrices stacked by
    rows, (m*size, size).
    """
    size = grid.d * grid.n**grid.d
    M = None
    for start in range(0, size, DENSE_BLOCK):
        k = min(DENSE_BLOCK, size - start)
        E = np.zeros((k, size))
        E[:, start : start + k] = np.eye(k)
        out = np.asarray(apply_fn(E.reshape((k, grid.d) + grid.shape))).reshape(k, -1)
        if M is None:
            M = np.empty((out.shape[1], size))
        M[:, start : start + k] = out.T
    return M


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, by recursive halving.

    With L = [[A, 0], [B, C]], L^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]:
    blocks of at most TRIANGULAR_BLOCK rows go to np.linalg.inv, and above
    that the work is matrix products. numpy.linalg has no triangular solve,
    and this takes the inverse of an SPD W from its Cholesky factor, W^-1 =
    L^-T L^-1, at about a third of an LU inverse's flops (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, ch. 14).
    """
    n = L.shape[0]
    if n <= TRIANGULAR_BLOCK:
        return np.linalg.inv(L)
    h = n // 2
    X = np.zeros_like(L)
    X[:h, :h] = _lower_inverse(L[:h, :h])
    X[h:, h:] = _lower_inverse(L[h:, h:])
    X[h:, :h] = -(X[h:, h:] @ L[h:, :h]) @ X[:h, :h]
    return X


def _warm_start(y: np.ndarray, prior) -> np.ndarray | None:
    """A-norm projection of the solution of W x = y onto past solutions' span.

    prior holds (x_i, y_i) pairs, oldest first, with W x_i = y_i to CG_TOL,
    so the right-hand sides stand in for the images and no apply is needed
    (Fischer, CMAME 163, 1998). The span is A-orthonormalized afresh on every
    call by modified Gram-Schmidt, newest solve first; a direction left with
    less than CG_HISTORY_DROP of its own A-norm^2, or a non-finite one, is
    dropped. Returns None when no direction survives.
    """
    basis = []
    for x_i, y_i in reversed(prior):
        v, Av = x_i, y_i
        for q, Aq in basis:
            c = float(np.vdot(q, Av).real)
            v = v - c * q
            Av = Av - c * Aq
        n2 = float(np.vdot(v, Av).real)
        if not n2 > CG_HISTORY_DROP * float(np.vdot(x_i, y_i).real):
            continue
        s = 1.0 / math.sqrt(n2)
        basis.append((s * v, s * Av))
    if not basis:
        return None
    x0 = np.zeros_like(y)
    for q, _ in basis:
        x0 += float(np.vdot(q, y).real) * q
    return x0


def _pcg(apply_w, precond, y: np.ndarray, tol: float, maxiter: int, ndim: int, prior=None):
    """Preconditioned conjugate gradients on the weighted SPD operator.

    The trailing ndim axes of y hold one right-hand side. Leading axes are a
    batch, solved member by member so that each member stops on its own
    relative residual: batch-wide inner products would stop a small member
    far above tol. A member whose right-hand side or residual norm is not
    finite comes back as NaN at once, as a dense or spectral solve of it
    would, instead of iterating to maxiter.

    prior, for a single right-hand side, holds past (x_i, y_i) solves of the
    same operator. CG then starts from _warm_start's projection x0 instead of
    zero: one apply gives the true residual y - W x0, x0 returns at once if
    that meets tol, and otherwise the iteration below runs unchanged from it.
    """
    if y.ndim > ndim:
        x = np.empty_like(y)
        for i, member in enumerate(y):
            x[i] = _pcg(apply_w, precond, member, tol, maxiter, ndim)
        return x
    norm_y = float(np.sqrt(np.vdot(y, y).real))
    if norm_y == 0.0:
        return np.zeros_like(y)
    if not math.isfinite(norm_y):
        return np.full_like(y, np.nan)
    x = _warm_start(y, prior) if prior else None
    if x is None:
        x = np.zeros_like(y)
        r = y.copy()
    else:
        r = y - apply_w(x)
        if float(np.sqrt(np.vdot(r, r).real)) <= tol * norm_y:
            return x
    z = precond(r)
    p = z.copy()
    rz = float(np.vdot(r, z).real)
    for _ in range(maxiter):
        Ap = apply_w(p)
        pAp = float(np.vdot(p, Ap).real)
        if pAp <= 0.0:
            raise SolverDivergenceError("operator lost positivity inside CG")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        norm_r = float(np.sqrt(np.vdot(r, r).real))
        if norm_r <= tol * norm_y:
            return x
        if not math.isfinite(norm_r):
            return np.full_like(y, np.nan)
        z = precond(r)
        rz_new = float(np.vdot(r, z).real)
        p *= rz_new / rz
        p += z
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
    Strategy: exact per-mode inversion on flat bottoms; at or below
    SOLVER_DENSE_LIMIT unknowns, the dense inverse W^-1 = X^T X, X = L^-1,
    of a weighted matrix W = L L^T that must pass a Cholesky factorization
    (NotSPDError otherwise). X comes from _lower_inverse, and numpy forms
    X^T X as a symmetric rank-k product, so W^-1 is exactly symmetric. W is
    built by ops.dense from the bottom's cached mu-free blocks, so the
    handles of one bottom, at every kind and mu, assemble each block once;
    otherwise CG (relative residual 1e-10, 500 iteration cap)
    preconditioned by h_b^{-1/2} F^{-1} h_b^{-1/2},
    the flat-bottom inverse F^{-1} scaled by h_b^{-1/2} on both sides: every
    weighted form is h_b(I + O(mu k^2)), so the scaling keeps the iteration
    count from growing as the depth varies.
    The operators are time-independent, so the factorization is built once
    and shared by every step of a run. The handle keeps no state between
    solves: a run's flow keeps each member's last CG_HISTORY solutions and
    passes them to solve_weighted_arrays, which warm-starts CG from them,
    and restores them when a batch retakes a step. Every other solve starts
    from zero.
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
            W = self.ops.dense(kind, mu)
            W = 0.5 * (W + W.T)  # scrub roundoff asymmetry before factorizing
            try:
                L = np.linalg.cholesky(W)  # the SPD check, and the factor of the inverse
            except np.linalg.LinAlgError as exc:
                raise NotSPDError(f"{kind} weighted matrix not SPD: {exc}") from exc
            X = _lower_inverse(L)
            self._inv = X.T @ X
        else:
            self.strategy = "pcg"
            self._precond_spec = _flat_inverse(self.grid, kind, mu)
            self._precond_scale = 1.0 / np.sqrt(bath.hb)

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

    def solve_weighted_arrays(self, y: np.ndarray, prior=None, out=None) -> np.ndarray:
        """Solve the weighted SPD form W x = y directly.

        prior, used by pcg only, holds the caller's past (x, W x) solves of
        this handle for a single right-hand side; CG warm-starts from them
        (see _pcg). Without it every solve starts from zero. out, a
        C-contiguous array of y's shape, receives x and is returned; the
        dense solve writes its product straight into it.
        """
        if self.strategy == "dense":
            x = np.empty(y.shape, np.result_type(self._inv, y)) if out is None else out
            # one matmul over the batch: columns are the flattened right-hand sides
            np.matmul(self._inv, y.reshape(-1, self.size).T, out=x.reshape(-1, self.size).T)
            return x
        if self.strategy == "spectral":
            x = self.grid.irfft(self._flat_inv(self.grid.rfft(y)))
        else:
            grid, scale = self.grid, self._precond_scale
            x = _pcg(
                lambda p: self.apply_weighted_arrays(p),
                lambda r: scale * grid.irfft(self._precond_spec(grid.rfft(scale * r))),
                y,
                CG_TOL,
                CG_MAXITER,
                len(self._shape),
                prior,
            )
        if out is None:
            return x
        out[...] = x
        return out


def build_handle(kind: str, mu: float, bath: Bathymetry) -> OperatorHandle:
    return OperatorHandle(kind, mu, bath)


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
    Dense eigen-extrema are included at DENSE_AUDIT_LIMIT unknowns or fewer;
    random-trial extrema and the worst relative symmetry residual are
    always included. Returns a JSON-friendly dict.

    The trial pairs (v, w) are drawn as one (trials, 2, d, *shape) array,
    which reads the generator's stream exactly as one pair per trial would,
    and W and the Gram operator each act once on the whole stack; the inner
    products and norms stay one per trial.
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
    pairs = rng.standard_normal((trials, 2, grid.d) + grid.shape)
    Wpairs = handle.apply_weighted_arrays(pairs)
    Gvs = _gram_apply(grid, handle.kind, handle.mu, pairs[:, 0])
    for (v, w), (Wv, Ww), Gv in zip(pairs, Wpairs, Gvs):
        num = float(np.vdot(Wv, v).real)
        den = float(np.vdot(Gv, v).real)
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

    if handle.size <= DENSE_AUDIT_LIMIT:
        W = handle.ops.dense(handle.kind, handle.mu)
        G = dense_matrix(
            lambda V: _gram_apply(grid, handle.kind, handle.mu, V), grid
        )
        W = 0.5 * (W + W.T)
        G = 0.5 * (G + G.T)
        # W x = lambda G x reduced by G = L L^T to a standard symmetric problem
        Linv = _lower_inverse(np.linalg.cholesky(G))
        eigs = np.linalg.eigvalsh(Linv @ W @ Linv.T)
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
        G = grid.bessel(-4.0) * grid.rfft(rng.standard_normal(grid.shape))
        U = grid.rfft(handle.solve_arrays(grad_arr(grid, grid.irfft(G))))
        # |u|_{X^s}^2 = |u|_{H^s}^2 + mu*|div u|_{H^s}^2
        xs2 = hs_norms(grid, U[None], s) ** 2
        xs2 += mu * hs_norms(grid, (grid.ik_stack * U).sum(axis=0)[None], s) ** 2
        ratios.append(float(np.sqrt(mu) * np.sqrt(xs2[0]) / hs_norms(grid, G[None], s)[0]))
    return {"s": s, "mu": mu, "ratios": ratios, "max_ratio": max(ratios)}


def perp_structure_residual(handle: OperatorHandle, f: np.ndarray) -> float:
    """|perp_div u|_2 / |u|_{H^1} for u = (h_b A)^{-1}(h_b grad f).

    Such u are exact discrete gradients, so the residual is roundoff-level;
    identically zero in d=1.
    """
    if handle.kind != "hb_A":
        raise ValueError("perp structure audit requires an hb_A handle")
    grid = handle.grid
    U = grid.rfft(handle.solve_arrays(handle.ops.hb * grad_arr(grid, f)))[None]
    num = hs_norms(grid, (grid.ik_perp * U).sum(axis=1), 0.0)[0] if grid.d == 2 else 0.0
    den = hs_norms(grid, U, 1.0)[0]
    return float(num / den) if den > 0 else 0.0
