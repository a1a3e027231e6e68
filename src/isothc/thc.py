"""Isometric tensor-hypercontraction factorizations of two-electron tensors.

A factorization approximates the chemists'-notation tensor as

    V[i, j, k, l]  ~=  sum_ab u[i, a] u[j, a] vtilde[a, b] u[k, b] u[l, b]

where ``u`` is an n x m co-isometry (orthonormal rows, m >= n) and
``vtilde`` is a symmetric m x m core.  The co-isometry constraint is what
lets a single basis-rotation circuit on m modes implement the interaction
as a mode-diagonal phase layer, at the price of a projection onto the
ancilla vacuum.

The classical pipeline has three stages: an initial guess (externally
supplied factors or random restarts), an isometrization step that solves a
bound-constrained least-squares problem for row weights, and a
gradient-descent refinement on the co-isometry manifold with the core
re-solved in closed form between steps.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .hamiltonian import ElectronicHamiltonian

__all__ = [
    "ThcFactorization",
    "ThcFactorFile",
    "RefineConfig",
    "IsometrizeResult",
    "random_co_isometry",
    "product_matrix",
    "contract_vtilde",
    "approximation_errors",
    "exact_factorize",
    "projected_interaction",
    "isometrize",
    "loss_gradient",
    "polar_retract",
    "refine",
    "factorize_hamiltonian",
]

CO_ISOMETRY_TOL = 1e-8
VTILDE_SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class ThcFactorization:
    """THC factors together with their provenance.

    ``eps_v`` and ``eps_h`` are the relative element-wise l2 errors of the
    recontracted two- and one-body tensors against the Hamiltonian the
    factorization was built from.
    """

    u: np.ndarray
    vtilde: np.ndarray
    htilde: np.ndarray | None = None
    eps_v: float | None = None
    eps_h: float | None = None
    seed: int | None = None
    config: dict | None = None

    def __post_init__(self) -> None:
        u = np.array(self.u, dtype=float)
        vtilde = np.array(self.vtilde, dtype=float)
        n, m = u.shape
        if vtilde.shape != (m, m):
            raise ValueError(f"vtilde shape {vtilde.shape} does not match m = {m}")
        if np.max(np.abs(u @ u.T - np.eye(n))) > CO_ISOMETRY_TOL:
            raise ValueError("u is not a co-isometry within tolerance")
        if np.max(np.abs(vtilde - vtilde.T)) > VTILDE_SYMMETRY_TOL:
            raise ValueError("vtilde is not symmetric within tolerance")
        u.setflags(write=False)
        vtilde.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "vtilde", vtilde)
        if self.htilde is not None:
            htilde = np.array(self.htilde, dtype=float)
            if htilde.shape != (m,):
                raise ValueError(f"htilde must have length {m}")
            htilde.setflags(write=False)
            object.__setattr__(self, "htilde", htilde)

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def m(self) -> int:
        return self.u.shape[1]

    def to_json(self) -> str:
        doc = {
            "n": self.n,
            "m": self.m,
            "u": self.u.reshape(-1).tolist(),
            "vtilde": self.vtilde.reshape(-1).tolist(),
            "provenance": {
                "eps_v": self.eps_v,
                "eps_h": self.eps_h,
                "seed": self.seed,
                "config": self.config,
            },
        }
        if self.htilde is not None:
            doc["htilde"] = self.htilde.tolist()
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ThcFactorization":
        doc = json.loads(text)
        n, m = int(doc["n"]), int(doc["m"])
        prov = doc.get("provenance", {})
        htilde = doc.get("htilde")
        return cls(
            u=np.array(doc["u"], dtype=float).reshape(n, m),
            vtilde=np.array(doc["vtilde"], dtype=float).reshape(m, m),
            htilde=None if htilde is None else np.array(htilde, dtype=float),
            eps_v=prov.get("eps_v"),
            eps_h=prov.get("eps_h"),
            seed=prov.get("seed"),
            config=prov.get("config"),
        )


@dataclass(frozen=True)
class ThcFactorFile:
    """Externally produced THC factors ``x`` (not necessarily isometric)."""

    x: np.ndarray
    w: np.ndarray | None = None

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=float)
        if x.ndim != 2:
            raise ValueError("x must be a 2-d array")
        object.__setattr__(self, "x", x)
        if self.w is not None:
            object.__setattr__(self, "w", np.array(self.w, dtype=float))

    @classmethod
    def load(cls, path: str | Path) -> "ThcFactorFile":
        """Read factors from JSON (keys n, m, x, optional w) or plain text.

        Plain-text files hold the n x m matrix as whitespace-separated
        rows; dimensions are inferred from the layout.
        """
        text = Path(path).read_text()
        stripped = text.lstrip()
        if stripped.startswith("{"):
            doc = json.loads(text)
            n, m = int(doc["n"]), int(doc["m"])
            x = np.array(doc["x"], dtype=float).reshape(n, m)
            w = doc.get("w")
            if w is not None:
                w = np.array(w, dtype=float).reshape(m, m)
            return cls(x=x, w=w)
        return cls(x=np.atleast_2d(np.loadtxt(path)))

    def save(self, path: str | Path) -> None:
        n, m = self.x.shape
        doc: dict = {"n": n, "m": m, "x": self.x.reshape(-1).tolist()}
        if self.w is not None:
            doc["w"] = self.w.reshape(-1).tolist()
        Path(path).write_text(json.dumps(doc, indent=2))


@dataclass(frozen=True)
class RefineConfig:
    """Schedule and optimizer settings for the refinement stage."""

    rounds_phase1: int = 1000
    rounds_phase2: int = 1000
    lr_phase1: float = 1e-3
    lr_phase2: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0


# ---------------------------------------------------------------------------
# Core contractions
# ---------------------------------------------------------------------------

def random_co_isometry(n: int, m: int, seed: int | np.random.Generator = 0) -> np.ndarray:
    """Deterministic random n x m matrix with orthonormal rows (m >= n)."""
    if m < n:
        raise ValueError(f"need m >= n, got n={n}, m={m}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(m, n)))
    q = q * np.sign(np.diag(r))
    return q.T


def product_matrix(u: np.ndarray) -> np.ndarray:
    """The n^2 x m matrix ``P[(i n + j), a] = u[i, a] u[j, a]``."""
    u = np.asarray(u, dtype=float)
    n, m = u.shape
    return (u[:, None, :] * u[None, :, :]).reshape(n * n, m)


def contract_vtilde(
    u: np.ndarray, hamiltonian: ElectronicHamiltonian
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form core tensors for a fixed co-isometry.

    Uses the pseudoinverse of the product matrix, so a rank-deficient
    product map is handled gracefully; the resulting factorization is then
    a projection of the target tensors onto the reachable subspace.
    """
    n = hamiltonian.n_orbitals
    pinv = np.linalg.pinv(product_matrix(u))
    v_flat = hamiltonian.eri.reshape(n * n, n * n)
    vtilde = pinv @ v_flat @ pinv.T
    vtilde = 0.5 * (vtilde + vtilde.T)
    htilde = pinv @ hamiltonian.h.reshape(n * n)
    return vtilde, htilde


@functools.lru_cache(maxsize=64)
def _einsum_path(subscripts: str, *shapes: tuple[int, ...]) -> list:
    """The contraction order ``optimize=True`` picks for operands of these shapes."""
    operands = [np.broadcast_to(0.0, shape) for shape in shapes]
    return np.einsum_path(subscripts, *operands, optimize="greedy")[0]


def _einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(..., optimize=True)`` without planning the order on every call."""
    path = _einsum_path(subscripts, *(np.shape(a) for a in operands))
    return np.einsum(subscripts, *operands, optimize=path)


def _relative_l2(target: np.ndarray, approx: np.ndarray) -> float:
    denom = np.linalg.norm(target.reshape(-1))
    if denom == 0.0:
        return 0.0 if np.linalg.norm(approx.reshape(-1)) == 0.0 else np.inf
    return float(np.linalg.norm((target - approx).reshape(-1)) / denom)


def projected_interaction(thc: ThcFactorization | None = None, *,
                          u: np.ndarray | None = None,
                          vtilde: np.ndarray | None = None) -> np.ndarray:
    """Recontract the factors into a four-index tensor.

    This is the two-body tensor of the ancilla-vacuum projection of the
    extended mode-diagonal interaction, normal ordered, so building a
    Hamiltonian from ``h`` and this tensor gives the ideal per-step
    evolution the extended circuit approximates.
    """
    if thc is not None:
        u, vtilde = thc.u, thc.vtilde
    if u is None or vtilde is None:
        raise ValueError("need either a factorization or explicit u and vtilde")
    vs = 0.5 * (vtilde + vtilde.T)
    return _einsum("ia,ja,ab,kb,lb->ijkl", u, u, vs, u, u)


def approximation_errors(
    hamiltonian: ElectronicHamiltonian, thc: ThcFactorization
) -> tuple[float, float | None]:
    """Relative element-wise l2 errors (eps_v, eps_h) of the recontraction."""
    eps_v = _relative_l2(hamiltonian.eri, projected_interaction(thc))
    eps_h = None
    if thc.htilde is not None:
        h_approx = (thc.u * thc.htilde) @ thc.u.T
        eps_h = _relative_l2(hamiltonian.h, h_approx)
    return eps_v, eps_h


def exact_factorize(
    hamiltonian: ElectronicHamiltonian, m: int | None = None, seed: int = 0
) -> ThcFactorization:
    """Factorize through the pseudoinverse of a random co-isometry's product map.

    With the default ``m = n**2`` the product map of a generic co-isometry
    spans the whole symmetric subspace that hosts the tensors, so the
    factorization is exact to numerical precision; smaller ``m`` yields the
    best approximation reachable from the drawn ``u``.
    """
    n = hamiltonian.n_orbitals
    if m is None:
        m = n * n
    u = random_co_isometry(n, m, seed)
    vtilde, htilde = contract_vtilde(u, hamiltonian)
    eps_v, eps_h = approximation_errors(
        hamiltonian, ThcFactorization(u=u, vtilde=vtilde, htilde=htilde)
    )
    return ThcFactorization(
        u=u, vtilde=vtilde, htilde=htilde, eps_v=eps_v, eps_h=eps_h, seed=seed,
        config={"method": "exact", "m": m},
    )


# ---------------------------------------------------------------------------
# Isometrization of external factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsometrizeResult:
    u: np.ndarray
    eta: np.ndarray
    residual_norm: float
    n_iter: int
    converged: bool


def _projected_least_squares(
    a: np.ndarray, b: np.ndarray, lower: float, max_iter: int, tol: float
) -> tuple[np.ndarray, int, bool]:
    """Minimize ||a x - b||^2 subject to x >= lower.

    Accelerated projected gradient with the exact Lipschitz step; the
    problem is a small convex quadratic so this converges to solver
    precision without an external QP dependency.
    """
    lipschitz = np.linalg.norm(a, 2) ** 2
    if lipschitz == 0.0:
        return np.full(a.shape[1], lower), 0, True
    x = np.clip(np.linalg.lstsq(a, b, rcond=None)[0], lower, None)
    y = x.copy()
    momentum = 1.0
    ata = a.T @ a
    atb = a.T @ b
    for iteration in range(1, max_iter + 1):
        grad = ata @ y - atb
        x_next = np.clip(y - grad / lipschitz, lower, None)
        momentum_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum**2))
        y = x_next + ((momentum - 1.0) / momentum_next) * (x_next - x)
        step = np.linalg.norm(x_next - x)
        x = x_next
        momentum = momentum_next
        if step < tol * max(1.0, np.linalg.norm(x)):
            return x, iteration, True
    return x, max_iter, False


def isometrize(
    factors: ThcFactorFile | np.ndarray,
    delta: float = 0.2,
    max_iter: int = 20000,
    tol: float = 1e-13,
) -> IsometrizeResult:
    """Turn external THC factors into a co-isometry by row reweighting.

    Solves ``min || sum_a x[i, a] x[j, a] eta[a] - delta_ij ||`` over
    ``eta >= delta`` and forms ``u[i, a] = sqrt(eta[a]) x[i, a]``, followed
    by an exact polar re-orthonormalization so the co-isometry constraint
    holds to near machine precision.  ``delta > 0`` keeps every collocation
    direction active; ``delta = 0`` is admissible and only enforces
    nonnegativity.
    """
    x = factors.x if isinstance(factors, ThcFactorFile) else np.asarray(factors, float)
    n, m = x.shape
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    a = product_matrix(x)
    b = np.eye(n).reshape(-1)
    eta, n_iter, converged = _projected_least_squares(a, b, delta, max_iter, tol)
    residual_norm = float(np.linalg.norm(a @ eta - b))
    u = x * np.sqrt(eta)[None, :]
    u = polar_retract(u)
    return IsometrizeResult(
        u=u, eta=eta, residual_norm=residual_norm, n_iter=n_iter, converged=converged
    )


# ---------------------------------------------------------------------------
# Gradient refinement on the co-isometry manifold
# ---------------------------------------------------------------------------

def loss_gradient(
    u: np.ndarray, hamiltonian: ElectronicHamiltonian, vtilde: np.ndarray
) -> np.ndarray:
    """Gradient of the squared recontraction error at fixed ``vtilde``.

    The loss is the unnormalized squared numerator of eps_v,
    ``sum_ijkl (V - V')^2`` with ``V'`` the recontraction; because the core
    is re-solved in closed form between steps, this envelope gradient is
    the one the refinement follows.
    """
    u = np.asarray(u, dtype=float)
    vs = 0.5 * (vtilde + vtilde.T)
    residual = hamiltonian.eri - projected_interaction(u=u, vtilde=vs)
    half = _einsum("ab,kb,lb->akl", vs, u, u)
    return -8.0 * _einsum("pjkl,ja,akl->pa", residual, u, half)


def polar_retract(u: np.ndarray) -> np.ndarray:
    """Closest co-isometry to ``u`` (orthogonal polar factor)."""
    left, _, right = np.linalg.svd(u, full_matrices=False)
    return left @ right


def refine(
    hamiltonian: ElectronicHamiltonian,
    u0: np.ndarray,
    config: RefineConfig | None = None,
) -> ThcFactorization:
    """Adam refinement of a co-isometry against the recontraction error.

    Each step re-solves the core in closed form, takes an Adam step on the
    envelope gradient, and retracts back to the co-isometry manifold via a
    polar decomposition.  The best iterate seen is returned, so the
    reported error never exceeds the starting one.  The routine is
    deterministic; the seed is provenance for the starting point.
    """
    cfg = config if config is not None else RefineConfig()
    u = polar_retract(np.asarray(u0, dtype=float))
    moment1 = np.zeros_like(u)
    moment2 = np.zeros_like(u)
    step_count = 0
    best: dict = {"eps_v": np.inf}

    def consider(candidate: np.ndarray) -> np.ndarray:
        vtilde, htilde = contract_vtilde(candidate, hamiltonian)
        thc = ThcFactorization(u=candidate, vtilde=vtilde, htilde=htilde)
        eps_v, eps_h = approximation_errors(hamiltonian, thc)
        if eps_v < best["eps_v"]:
            best.update(
                {"eps_v": eps_v, "eps_h": eps_h, "u": candidate,
                 "vtilde": vtilde, "htilde": htilde}
            )
        return vtilde

    vtilde = consider(u)
    for rounds, lr in [(cfg.rounds_phase1, cfg.lr_phase1), (cfg.rounds_phase2, cfg.lr_phase2)]:
        for _ in range(rounds):
            grad = loss_gradient(u, hamiltonian, vtilde)
            step_count += 1
            moment1 = cfg.beta1 * moment1 + (1.0 - cfg.beta1) * grad
            moment2 = cfg.beta2 * moment2 + (1.0 - cfg.beta2) * grad**2
            hat1 = moment1 / (1.0 - cfg.beta1**step_count)
            hat2 = moment2 / (1.0 - cfg.beta2**step_count)
            u = polar_retract(u - lr * hat1 / (np.sqrt(hat2) + cfg.adam_epsilon))
            vtilde = consider(u)

    return ThcFactorization(
        u=best["u"], vtilde=best["vtilde"], htilde=best["htilde"],
        eps_v=best["eps_v"], eps_h=best["eps_h"], seed=cfg.seed,
        config=asdict(cfg),
    )


def factorize_hamiltonian(
    hamiltonian: ElectronicHamiltonian,
    m: int,
    n_restarts: int = 10,
    config: RefineConfig | None = None,
    seed: int = 0,
    factor_file: ThcFactorFile | None = None,
    delta: float = 0.2,
    target_eps_v: float | None = None,
) -> tuple[ThcFactorization, list[dict]]:
    """Full factorization pipeline with restarts.

    With external factors the single starting point comes from
    :func:`isometrize`; otherwise each restart draws a fresh random
    co-isometry seeded by ``seed + restart``.  The best factorization by
    ``eps_v`` (ties broken by smaller l1 norm of the core, which controls
    downstream error constants) is returned together with per-restart
    metric rows.  ``target_eps_v`` stops the restart loop early once met.
    """
    if n_restarts < 1:
        raise ValueError(f"n_restarts = {n_restarts} must be at least 1")
    cfg = config if config is not None else RefineConfig()
    rows: list[dict] = []
    best: ThcFactorization | None = None
    best_key: tuple[float, float] | None = None
    if factor_file is not None:
        n_restarts = 1
    for restart in range(n_restarts):
        if factor_file is not None:
            u0 = isometrize(factor_file, delta=delta).u
            if u0.shape[1] != m:
                raise ValueError(
                    f"factor file has m = {u0.shape[1]}, requested m = {m}"
                )
        else:
            u0 = random_co_isometry(hamiltonian.n_orbitals, m, seed + restart)
        run_cfg = RefineConfig(**{**asdict(cfg), "seed": seed + restart})
        thc = refine(hamiltonian, u0, run_cfg)
        l1_core = float(np.abs(thc.vtilde).sum())
        rows.append(
            {"restart": restart, "seed": seed + restart, "eps_v": thc.eps_v,
             "eps_h": thc.eps_h, "l1_vtilde": l1_core}
        )
        key = (thc.eps_v, l1_core)
        if best_key is None or key < best_key:
            best, best_key = thc, key
        if target_eps_v is not None and best_key[0] <= target_eps_v:
            break
    return best, rows
