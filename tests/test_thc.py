import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from isothc.thc import (
    IsometrizeResult,
    RefineConfig,
    ThcFactorFile,
    ThcFactorization,
    approximation_errors,
    contract_vtilde,
    exact_factorize,
    factorize_hamiltonian,
    isometrize,
    loss_gradient,
    polar_retract,
    product_matrix,
    projected_interaction,
    random_co_isometry,
    refine,
)

import oracles

_rng = np.random.default_rng(5150)


def planted_hamiltonian(n, m, rng, core_scale=1.0):
    """Hamiltonian whose tensors are exactly representable at rank m."""
    u = random_co_isometry(n, m, rng)
    vtilde = rng.normal(size=(m, m)) * core_scale
    vtilde = 0.5 * (vtilde + vtilde.T)
    htilde = rng.normal(size=m)
    eri = projected_interaction(u=u, vtilde=vtilde)
    h = (u * htilde) @ u.T
    ham = oracles.random_hamiltonian(n, rng).__class__(
        n_orbitals=n, core_energy=0.0, h=h, eri=eri
    )
    return ham, u, vtilde


# ---------------------------------------------------------------------------
# co-isometries and the product map
# ---------------------------------------------------------------------------

@given(st.integers(1, 4), st.integers(0, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_co_isometry_has_orthonormal_rows(n, extra, seed):
    m = n + extra
    u = random_co_isometry(n, m, seed)
    assert u.shape == (n, m)
    assert_allclose(u @ u.T, np.eye(n), atol=1e-12)


def test_random_co_isometry_is_deterministic():
    assert_allclose(random_co_isometry(3, 5, 42), random_co_isometry(3, 5, 42))
    assert not np.allclose(random_co_isometry(3, 5, 42), random_co_isometry(3, 5, 43))


def test_random_co_isometry_rejects_wide_target():
    with pytest.raises(ValueError, match="m >= n"):
        random_co_isometry(4, 3)


def test_product_matrix_entries():
    u = _rng.normal(size=(2, 3))
    p = product_matrix(u)
    assert p.shape == (4, 3)
    for i in range(2):
        for j in range(2):
            for a in range(3):
                assert p[2 * i + j, a] == pytest.approx(u[i, a] * u[j, a])


def test_projected_interaction_matches_loop_oracle():
    u = random_co_isometry(3, 4, _rng)
    vtilde = _rng.normal(size=(4, 4))
    vtilde = 0.5 * (vtilde + vtilde.T)
    assert_allclose(
        projected_interaction(u=u, vtilde=vtilde),
        oracles.contract_thc(u, vtilde),
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# exact factorization through the pseudoinverse
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_exact_factorize_reaches_numerical_floor(n):
    ham = oracles.random_hamiltonian(n, np.random.default_rng(n))
    thc = exact_factorize(ham, seed=7)
    assert thc.m == n * n
    assert thc.eps_v <= 1e-10
    assert thc.eps_h <= 1e-10


@pytest.mark.parametrize("n,m", [(2, 3), (3, 6)])
def test_symmetric_subspace_rank_suffices(n, m):
    # the product map of a generic co-isometry spans all symmetric matrices
    # once m reaches n(n+1)/2, so truncation error vanishes there already
    ham = oracles.random_hamiltonian(n, np.random.default_rng(10 + n))
    thc = exact_factorize(ham, m=m, seed=3)
    assert thc.eps_v <= 1e-10


def test_below_symmetric_rank_leaves_residual():
    ham = oracles.random_hamiltonian(3, np.random.default_rng(4))
    thc = exact_factorize(ham, m=4, seed=3)
    assert thc.eps_v > 1e-6


def test_contract_vtilde_is_symmetric():
    ham = oracles.random_hamiltonian(3, np.random.default_rng(8))
    vtilde, htilde = contract_vtilde(random_co_isometry(3, 5, 1), ham)
    assert_allclose(vtilde, vtilde.T, atol=1e-14)
    assert htilde.shape == (5,)


def test_errors_invariant_under_signed_column_permutation():
    ham = oracles.random_hamiltonian(2, np.random.default_rng(12))
    thc = exact_factorize(ham, m=3, seed=5)
    perm = np.array([2, 0, 1])
    signs = np.array([1.0, -1.0, -1.0])
    u2 = thc.u[:, perm] * signs
    # u enters the contraction twice per auxiliary index, so column signs
    # cancel and only the permutation must be carried onto the core
    v2 = thc.vtilde[np.ix_(perm, perm)]
    assert_allclose(
        projected_interaction(u=u2, vtilde=v2),
        projected_interaction(thc.u, thc.vtilde),
        atol=1e-12,
    )


def test_diagonal_interaction_factorizes_at_identity():
    # V already mode-diagonal: u = I, vtilde = the pair-coefficient matrix
    n = 3
    w = np.abs(_rng.normal(size=(n, n)))
    w = 0.5 * (w + w.T)
    eri = np.zeros((n, n, n, n))
    for a in range(n):
        for b in range(n):
            eri[a, a, b, b] = w[a, b]
    ham = oracles.random_hamiltonian(n, np.random.default_rng(0)).__class__(
        n_orbitals=n, core_energy=0.0, h=np.zeros((n, n)), eri=eri
    )
    vtilde, _ = contract_vtilde(np.eye(n), ham)
    assert_allclose(vtilde, w, atol=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_factorization_json_round_trip():
    ham = oracles.random_hamiltonian(2, np.random.default_rng(3))
    thc = exact_factorize(ham, m=3, seed=1)
    back = ThcFactorization.from_json(thc.to_json())
    assert_allclose(back.u, thc.u, atol=1e-15)
    assert_allclose(back.vtilde, thc.vtilde, atol=1e-15)
    assert_allclose(back.htilde, thc.htilde, atol=1e-15)
    assert back.eps_v == pytest.approx(thc.eps_v)
    assert back.seed == 1
    assert back.config["method"] == "exact"


def test_factorization_validates_inputs():
    u = random_co_isometry(2, 3, 0)
    sym = np.eye(3)
    with pytest.raises(ValueError, match="co-isometry"):
        ThcFactorization(u=2.0 * u, vtilde=sym)
    bad = sym.copy()
    bad[0, 1] = 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        ThcFactorization(u=u, vtilde=bad)
    with pytest.raises(ValueError, match="htilde"):
        ThcFactorization(u=u, vtilde=sym, htilde=np.zeros(2))


def test_factor_file_json_round_trip(tmp_path):
    x = _rng.normal(size=(2, 4))
    w = _rng.normal(size=(4, 4))
    path = tmp_path / "factors.json"
    path.write_text(json.dumps(
        {"n": 2, "m": 4, "x": x.reshape(-1).tolist(), "w": w.reshape(-1).tolist()}))
    back = ThcFactorFile.load(path)
    assert_allclose(back.x, x, atol=1e-15)
    assert_allclose(back.w, w, atol=1e-15)
    doc = json.loads(path.read_text())
    assert doc["n"] == 2 and doc["m"] == 4


def test_factor_file_plain_text(tmp_path):
    path = tmp_path / "factors.txt"
    path.write_text("1.0 2.0 3.0\n4.0 5.0 6.0\n")
    back = ThcFactorFile.load(path)
    assert back.x.shape == (2, 3)
    assert back.w is None
    assert back.x[1, 2] == 6.0


# ---------------------------------------------------------------------------
# isometrization
# ---------------------------------------------------------------------------

def test_isometrize_recovers_planted_weights():
    rng = np.random.default_rng(21)
    u_star = random_co_isometry(2, 3, rng)
    eta_star = rng.uniform(0.4, 1.5, size=3)
    x = u_star / np.sqrt(eta_star)[None, :]
    result = isometrize(x, delta=0.2)
    assert result.converged
    assert_allclose(result.eta, eta_star, atol=1e-6)
    assert result.residual_norm < 1e-6
    assert_allclose(result.u @ result.u.T, np.eye(2), atol=1e-10)
    assert_allclose(result.u, u_star, atol=1e-5)


def test_isometrize_respects_lower_bound():
    rng = np.random.default_rng(22)
    u_star = random_co_isometry(2, 3, rng)
    eta_star = np.array([0.05, 0.9, 1.3])  # unconstrained optimum dips below delta
    x = u_star / np.sqrt(eta_star)[None, :]
    result = isometrize(x, delta=0.2)
    assert result.eta.min() >= 0.2 - 1e-9
    assert result.residual_norm > 1e-6  # the bound is active, exactness is lost
    assert_allclose(result.u @ result.u.T, np.eye(2), atol=1e-10)


def test_isometrize_accepts_zero_delta():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(2, 5))
    result = isometrize(x, delta=0.0)
    assert result.eta.min() >= 0.0
    assert_allclose(result.u @ result.u.T, np.eye(2), atol=1e-10)


def test_isometrize_rejects_negative_delta():
    with pytest.raises(ValueError, match="nonnegative"):
        isometrize(np.eye(2), delta=-0.1)


def test_isometrize_accepts_factor_file():
    rng = np.random.default_rng(24)
    u_star = random_co_isometry(2, 3, rng)
    eta_star = rng.uniform(0.5, 1.0, size=3)
    result = isometrize(ThcFactorFile(x=u_star / np.sqrt(eta_star)), delta=0.1)
    assert isinstance(result, IsometrizeResult)
    assert_allclose(result.eta, eta_star, atol=1e-6)


# ---------------------------------------------------------------------------
# gradient and refinement
# ---------------------------------------------------------------------------

def numeric_loss(u, ham, vtilde):
    residual = ham.eri - projected_interaction(u=u, vtilde=vtilde)
    return float(np.sum(residual**2))


@pytest.mark.parametrize("trial", range(10))
def test_loss_gradient_matches_finite_differences(trial):
    rng = np.random.default_rng(100 + trial)
    ham = oracles.random_hamiltonian(2, rng)
    u = random_co_isometry(2, 3, rng)
    vtilde = rng.normal(size=(3, 3))
    vtilde = 0.5 * (vtilde + vtilde.T)
    grad = loss_gradient(u, ham, vtilde)
    direction = rng.normal(size=u.shape)
    direction /= np.linalg.norm(direction)
    h = 1e-6
    numeric = (
        numeric_loss(u + h * direction, ham, vtilde)
        - numeric_loss(u - h * direction, ham, vtilde)
    ) / (2 * h)
    analytic = float(np.sum(grad * direction))
    assert numeric == pytest.approx(analytic, rel=1e-4)


def test_loss_gradient_vanishes_at_exact_factorization():
    ham = oracles.random_hamiltonian(2, np.random.default_rng(40))
    thc = exact_factorize(ham, seed=2)
    grad = loss_gradient(thc.u, ham, thc.vtilde)
    assert np.max(np.abs(grad)) < 1e-8


def test_polar_retract_projects_to_co_isometry():
    u = _rng.normal(size=(3, 5))
    w = polar_retract(u)
    assert_allclose(w @ w.T, np.eye(3), atol=1e-12)
    # already isometric input is a fixed point
    assert_allclose(polar_retract(w), w, atol=1e-12)


def test_refine_recovers_planted_factorization():
    rng = np.random.default_rng(50)
    ham, u_star, _ = planted_hamiltonian(3, 5, rng)
    noise = rng.normal(size=u_star.shape)
    u0 = polar_retract(u_star + 0.05 * noise)
    base = ThcFactorization(u=u0, vtilde=contract_vtilde(u0, ham)[0])
    eps0, _ = approximation_errors(ham, base)
    assert eps0 > 1e-4
    cfg = RefineConfig(rounds_phase1=300, rounds_phase2=200, seed=0)
    thc = refine(ham, u0, cfg)
    assert thc.eps_v < 0.2 * eps0
    assert_allclose(thc.u @ thc.u.T, np.eye(3), atol=1e-8)


def test_refine_never_worse_than_start():
    rng = np.random.default_rng(51)
    ham = oracles.random_hamiltonian(2, rng)
    u0 = random_co_isometry(2, 2, 9)
    base = ThcFactorization(u=u0, vtilde=contract_vtilde(u0, ham)[0])
    eps0, _ = approximation_errors(ham, base)
    cfg = RefineConfig(rounds_phase1=50, rounds_phase2=50, seed=9)
    thc = refine(ham, u0, cfg)
    assert thc.eps_v <= eps0 + 1e-15


def test_refine_is_deterministic():
    rng = np.random.default_rng(52)
    ham = oracles.random_hamiltonian(2, rng)
    u0 = random_co_isometry(2, 3, 4)
    cfg = RefineConfig(rounds_phase1=20, rounds_phase2=20, seed=4)
    first = refine(ham, u0, cfg)
    second = refine(ham, u0, cfg)
    assert_allclose(first.u, second.u, atol=0)
    assert first.eps_v == second.eps_v


@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 5), (4, 9), (6, 12)])
def test_cached_einsum_paths_match_planned_einsum_bitwise(n, m):
    rng = np.random.default_rng(100 * n + m)
    ham = oracles.random_hamiltonian(n, rng)
    u = random_co_isometry(n, m, rng)
    vtilde = rng.normal(size=(m, m))
    for _ in range(2):  # a repeated call gives the same bits
        assert np.array_equal(
            projected_interaction(u=u, vtilde=vtilde),
            oracles.projected_interaction_reference(u, vtilde),
        )
        assert np.array_equal(
            loss_gradient(u, ham, vtilde), oracles.loss_gradient_reference(u, ham, vtilde)
        )


@given(st.integers(1, 8), st.integers(0, 67), st.integers(0, 2**32 - 1))
@example(n=8, extra=0, seed=96)
@settings(max_examples=40, deadline=None)
def test_product_matrix_kernels_match_planned_einsum(n, extra, seed):
    # the matmuls keep the planned contraction's operand order, so the
    # recontraction is bit for bit the einsum's; the gradient is too
    # wherever the planner's order is the one the matmuls follow (m > n >= 2).
    # Elsewhere the orders differ, so an entry near zero can differ by many
    # of its own ulps (5.4e-12 relative at the pinned example); the bound is
    # relative to the largest entry.
    m = n + extra % (n * n + 4 - n)
    rng = np.random.default_rng(seed)
    ham = oracles.random_hamiltonian(n, rng)
    u = random_co_isometry(n, m, rng)
    vtilde = rng.normal(size=(m, m))  # not symmetric: the kernels symmetrize
    assert np.array_equal(
        projected_interaction(u=u, vtilde=vtilde),
        oracles.projected_interaction_reference(u, vtilde),
    )
    got = loss_gradient(u, ham, vtilde)
    want = oracles.loss_gradient_reference(u, ham, vtilde)
    if m > n >= 2:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 5), (6, 12)])
def test_loss_gradient_reuses_given_residual_bitwise(n, m):
    rng = np.random.default_rng(70 + n)
    ham = oracles.random_hamiltonian(n, rng)
    u = random_co_isometry(n, m, rng)
    vtilde = contract_vtilde(u, ham)[0]
    residual = ham.eri - projected_interaction(u=u, vtilde=vtilde)
    assert np.array_equal(
        loss_gradient(u, ham, vtilde, residual=residual), loss_gradient(u, ham, vtilde)
    )


@pytest.mark.parametrize("n,m", [(2, 3), (3, 5), (6, 12)])
def test_refine_matches_loop_that_solves_the_core_twice(n, m):
    # one closed-form core and one recontraction per step, reused for the
    # next gradient, must leave every iterate bit for bit where solving the
    # core again would put it
    rng = np.random.default_rng(53 + n)
    ham = oracles.random_hamiltonian(n, rng)
    u0 = random_co_isometry(n, m, 7)
    cfg = RefineConfig(rounds_phase1=150, rounds_phase2=150, seed=7)
    got = refine(ham, u0, cfg)
    want = oracles.refine_reference(ham, u0, cfg)
    assert got.eps_v == want.eps_v
    assert got.eps_h == want.eps_h
    assert np.array_equal(got.u, want.u)
    assert np.array_equal(got.vtilde, want.vtilde)


def test_factorize_hamiltonian_tracks_restarts():
    ham = oracles.random_hamiltonian(2, np.random.default_rng(60))
    cfg = RefineConfig(restarts=3, rounds_phase1=10, rounds_phase2=10, seed=100)
    best, rows = factorize_hamiltonian(ham, m=3, config=cfg)
    assert len(rows) == 3
    assert [row["seed"] for row in rows] == [100, 101, 102]
    assert not any("isometrize" in row for row in rows)  # random starts
    assert best.eps_v == min(row["eps_v"] for row in rows)


def test_factorize_hamiltonian_draws_restarts_from_the_config_seed():
    ham = oracles.random_hamiltonian(2, np.random.default_rng(63))
    cfg = RefineConfig(restarts=2, rounds_phase1=5, rounds_phase2=5, seed=5)
    best, rows = factorize_hamiltonian(ham, 3, config=cfg)
    assert [row["seed"] for row in rows] == [5, 6]
    for row in rows:
        start = random_co_isometry(2, 3, row["seed"])
        assert row["eps_v"] == refine(ham, start, replace(cfg, seed=row["seed"])).eps_v
    assert best.seed in (5, 6) and best.config["seed"] == best.seed


def test_factorize_hamiltonian_stops_at_target():
    ham = oracles.random_hamiltonian(2, np.random.default_rng(61))
    cfg = RefineConfig(restarts=5, rounds_phase1=5, rounds_phase2=5, target_eps_v=np.inf)
    _, rows = factorize_hamiltonian(ham, m=3, config=cfg)
    assert len(rows) == 1


def test_factorize_hamiltonian_uses_factor_file():
    rng = np.random.default_rng(62)
    ham, u_star, _ = planted_hamiltonian(2, 3, rng)
    eta_star = rng.uniform(0.5, 1.2, size=3)
    ff = ThcFactorFile(x=u_star / np.sqrt(eta_star))
    cfg = RefineConfig(rounds_phase1=20, rounds_phase2=20, delta=0.1)
    best, rows = factorize_hamiltonian(ham, m=3, config=cfg, factor_file=ff)
    assert len(rows) == 1
    assert best.eps_v <= 1e-6  # isometrize lands on the planted exact solution
    iso = rows[0]["isometrize"]
    assert iso["converged"] is True
    assert iso["residual_norm"] <= 1e-8
    assert 0 < iso["n_iter"] <= 20000
