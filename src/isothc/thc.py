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
re-solved in closed form between steps.  One checked :class:`RefineConfig`
holds every setting of a run; restart ``r`` refines with seed ``seed + r``.

The contractions are matrix products on the n^2 x m product matrix ``P``
(:func:`product_matrix`): the recontraction is ``V' = P vtilde P^T``.  They
keep the operand order and memory layout numpy's greedy planner picks for
``ia,ja,ab,kb,lb->ijkl``, because Adam amplifies a last-bit change in the
gradient over thousands of steps into a different refined factorization.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
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
# Adam's moment decay rates and denominator guard (Kingma & Ba, ICLR 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


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


@dataclass(frozen=True)
class RefineConfig:
    """Every setting of one factorization run; ``delta`` is :func:`isometrize`'s bound."""

    restarts: int = 10
    rounds_phase1: int = 1000
    rounds_phase2: int = 1000
    lr_phase1: float = 1e-3
    lr_phase2: float = 5e-4
    delta: float = 0.2
    target_eps_v: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"n_restarts = {self.restarts} must be at least 1")
        if min(self.rounds_phase1, self.rounds_phase2) < 0:
            raise ValueError(f"rounds {self.rounds_phase1}, {self.rounds_phase2} must be >= 0")
        if not (self.lr_phase1 > 0 and self.lr_phase2 > 0):
            raise ValueError(f"learning rates {self.lr_phase1}, {self.lr_phase2} must be > 0")
        if self.delta < 0:
            raise ValueError(f"delta = {self.delta} must be nonnegative")
        if self.target_eps_v is not None and self.target_eps_v < 0:
            raise ValueError(f"target_eps_v = {self.target_eps_v} must be nonnegative")


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


def _relative_l2(residual: np.ndarray, target_l2: float) -> float:
    """``||target - approx|| / ||target||``; a zero target's residual is ``-approx``."""
    l2 = np.linalg.norm(residual.reshape(-1))
    if target_l2 == 0.0:
        return 0.0 if l2 == 0.0 else np.inf
    return float(l2 / target_l2)


def _one_body_error(
    hamiltonian: ElectronicHamiltonian, u: np.ndarray, htilde: np.ndarray | None
) -> float | None:
    if htilde is None:
        return None
    h = hamiltonian.h
    return _relative_l2(h - (u * htilde) @ u.T, np.linalg.norm(h.reshape(-1)))


def projected_interaction(u: np.ndarray, vtilde: np.ndarray) -> np.ndarray:
    """Recontract the factors into a four-index tensor.

    This is the two-body tensor of the ancilla-vacuum projection of the
    extended mode-diagonal interaction, normal ordered, so building a
    Hamiltonian from ``h`` and this tensor gives the ideal per-step
    evolution the extended circuit approximates.
    """
    vs = 0.5 * (vtilde + vtilde.T)
    pm = product_matrix(u)
    q = np.ascontiguousarray((pm @ vs).T)
    return (pm @ q).reshape((np.shape(u)[0],) * 4).transpose(2, 3, 0, 1)


def approximation_errors(
    hamiltonian: ElectronicHamiltonian, thc: ThcFactorization
) -> tuple[float, float | None]:
    """Relative element-wise l2 errors (eps_v, eps_h) of the recontraction."""
    eri = hamiltonian.eri
    eps_v = _relative_l2(eri - projected_interaction(thc.u, thc.vtilde),
                         np.linalg.norm(eri.reshape(-1)))
    return eps_v, _one_body_error(hamiltonian, thc.u, thc.htilde)


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
    u: np.ndarray, hamiltonian: ElectronicHamiltonian, vtilde: np.ndarray,
    *, residual: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of the squared recontraction error at fixed ``vtilde``.

    The loss is the unnormalized squared numerator of eps_v,
    ``sum_ijkl (V - V')^2`` with ``V'`` the recontraction; because the core
    is re-solved in closed form between steps, this envelope gradient is
    the one the refinement follows.  ``residual`` is ``V - V'`` if the
    caller has it already.
    """
    u = np.asarray(u, dtype=float)
    n, m = u.shape
    vs = 0.5 * (vtilde + vtilde.T)
    if residual is None:
        residual = hamiltonian.eri - projected_interaction(u=u, vtilde=vs)
    # vs.T as an F-ordered m x n^2 view; vs or a contiguous copy moves the last bit
    half = (product_matrix(u) @ vs.T).T
    rt = np.ascontiguousarray(residual.transpose(2, 3, 0, 1)).reshape(n * n, n * n)
    x = (half @ rt).reshape(m, n, n)
    return -8.0 * np.matmul(x, u.T.reshape(m, n, 1)).reshape(m, n).T


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
    polar decomposition.  One recontraction per step serves both the
    candidate's eps_v and the next gradient.  The best iterate seen is
    returned, so the reported error never exceeds the starting one.  The
    routine is deterministic; the seed is provenance for the starting point.
    """
    cfg = config if config is not None else RefineConfig()
    u = polar_retract(np.asarray(u0, dtype=float))
    moment1 = np.zeros_like(u)
    moment2 = np.zeros_like(u)
    step_count = 0
    # eps_v, u, vtilde and htilde of the best iterate
    best: tuple = (np.inf, None, None, None)
    eri = hamiltonian.eri
    eri_l2 = np.linalg.norm(eri.reshape(-1))

    def consider(candidate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal best
        vtilde, htilde = contract_vtilde(candidate, hamiltonian)
        residual = eri - projected_interaction(u=candidate, vtilde=vtilde)
        eps_v = _relative_l2(residual, eri_l2)
        if eps_v < best[0]:
            best = (eps_v, candidate, vtilde, htilde)
        return vtilde, residual

    vtilde, residual = consider(u)
    for rounds, lr in [(cfg.rounds_phase1, cfg.lr_phase1), (cfg.rounds_phase2, cfg.lr_phase2)]:
        for _ in range(rounds):
            grad = loss_gradient(u, hamiltonian, vtilde, residual=residual)
            step_count += 1
            moment1 = ADAM_BETA1 * moment1 + (1.0 - ADAM_BETA1) * grad
            moment2 = ADAM_BETA2 * moment2 + (1.0 - ADAM_BETA2) * grad**2
            hat1 = moment1 / (1.0 - ADAM_BETA1**step_count)
            hat2 = moment2 / (1.0 - ADAM_BETA2**step_count)
            u = polar_retract(u - lr * hat1 / (np.sqrt(hat2) + ADAM_EPSILON))
            vtilde, residual = consider(u)

    eps_v, u, vtilde, htilde = best
    return ThcFactorization(
        u=u, vtilde=vtilde, htilde=htilde, eps_v=eps_v,
        eps_h=_one_body_error(hamiltonian, u, htilde), seed=cfg.seed,
        config=asdict(cfg),
    )


def factorize_hamiltonian(
    hamiltonian: ElectronicHamiltonian,
    m: int,
    config: RefineConfig | None = None,
    factor_file: ThcFactorFile | None = None,
) -> tuple[ThcFactorization, list[dict]]:
    """Full factorization pipeline with restarts.

    With external factors the single starting point comes from
    :func:`isometrize` at ``config.delta``, whose convergence lands in the
    row's ``"isometrize"`` entry; otherwise each of ``config.restarts``
    restarts draws a fresh random co-isometry seeded by
    ``config.seed + restart``.  The best factorization by ``eps_v`` (ties
    broken by smaller l1 norm of the core, which controls downstream error
    constants) is returned together with per-restart metric rows.
    ``config.target_eps_v`` stops the restart loop early once met.
    """
    cfg = config if config is not None else RefineConfig()
    rows: list[dict] = []
    best: ThcFactorization | None = None
    best_key: tuple[float, float] | None = None
    for restart in range(1 if factor_file is not None else cfg.restarts):
        seed = cfg.seed + restart
        iso = None
        if factor_file is not None:
            iso = isometrize(factor_file, delta=cfg.delta)
            u0 = iso.u
            if u0.shape[1] != m:
                raise ValueError(
                    f"factor file has m = {u0.shape[1]}, requested m = {m}"
                )
        else:
            u0 = random_co_isometry(hamiltonian.n_orbitals, m, seed)
        thc = refine(hamiltonian, u0, replace(cfg, seed=seed))
        l1_core = float(np.abs(thc.vtilde).sum())
        row = {"restart": restart, "seed": seed, "eps_v": thc.eps_v,
               "eps_h": thc.eps_h, "l1_vtilde": l1_core}
        if iso is not None:
            row["isometrize"] = {"converged": iso.converged,
                                 "residual_norm": iso.residual_norm, "n_iter": iso.n_iter}
        rows.append(row)
        key = (thc.eps_v, l1_core)
        if best_key is None or key < best_key:
            best, best_key = thc, key
        if cfg.target_eps_v is not None and best_key[0] <= cfg.target_eps_v:
            break
    return best, rows
