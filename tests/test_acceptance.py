"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each criterion runs as its own test so the verbose pytest report shows one
pass/fail line per criterion.  Printed details (measured values next to
their thresholds) appear with ``pytest -s``.
"""

import json
from importlib.resources import files

import numpy as np

import oracles
from isothc.algorithm import (
    DEFAULT_PHASES,
    StepSpec,
    _vprime_hamiltonian,
    error_budget,
    evolve,
    hartree_fock_state,
    phase_cancellation_sums,
    projection_error_measured,
    thc_bound,
)
from isothc.cli import FIT_DEFAULTS, cmd_fit, fit_loglog
from isothc.focksim import ModeLayout, basis_state
from isothc.hamiltonian import (
    ElectronicHamiltonian,
    ground_state_energy,
    parse_fcidump,
    rotate_to_h_eigenbasis,
)
from isothc.resources import MottaParams, estimate_step, motta_estimate, t_count
from isothc.thc import (
    RefineConfig,
    ThcFactorFile,
    exact_factorize,
    factorize_hamiltonian,
    loss_gradient,
    product_matrix,
    projected_interaction,
    random_co_isometry,
)

DATA = files("isothc") / "data"


def h2_hamiltonian():
    ham = parse_fcidump(str(DATA / "h2_sto6g.fcidump"))
    rotated, _ = rotate_to_h_eigenbasis(ham)
    return rotated


def h2_exact_thc(m=3, n_seeds=10):
    """Exact rank-3 factorization with the best-conditioned core.

    Every generic co-isometry is exact here, but the pseudoinverse core can
    be arbitrarily large when the product matrix is nearly singular; the
    smallest entrywise-l1 core over a few seeds keeps time steps in the
    perturbative regime.
    """
    rotated = h2_hamiltonian()
    candidates = [exact_factorize(rotated, m=m, seed=seed) for seed in range(n_seeds)]
    return rotated, min(candidates, key=lambda f: float(np.abs(f.vtilde).sum()))


def test_criterion_01_single_step_resources():
    report = estimate_step(76, 450, spinful=True, architecture="all-to-all")
    print(f"criterion 1: rotations {report.single_qubit_rotations}, "
          f"depth {report.circuit_depth}, qubits {report.qubits}")
    assert report.single_qubit_rotations == 655_496
    assert report.circuit_depth == 1_952
    assert report.qubits == 900


def test_criterion_02_double_factorization_comparison():
    step = estimate_step(76, 450, spinful=True)
    motta = motta_estimate(MottaParams(n=76, l=394, xi=51))
    rot_ratio = motta.single_qubit_rotations / step.single_qubit_rotations
    depth_ratio = motta.circuit_depth / step.circuit_depth
    print(f"criterion 2: baseline {motta.single_qubit_rotations} rotations, "
          f"{motta.circuit_depth} depth; ratios {rot_ratio:.2f}x / {depth_ratio:.2f}x")
    assert motta.single_qubit_rotations == 6_108_576
    assert motta.circuit_depth == 90_226
    assert rot_ratio >= 9.0
    assert depth_ratio >= 45.0


def test_criterion_03_rotation_synthesis_cost():
    per_rotation = t_count(1, 1e-6)
    print(f"criterion 3: {per_rotation} T gates per rotation at eps 1e-6")
    assert per_rotation == 32


def test_criterion_04_h2_exact_rank_three_from_restarts():
    rotated = h2_hamiltonian()
    best, rows = factorize_hamiltonian(
        rotated, 3, RefineConfig(restarts=10, seed=0, target_eps_v=1e-6)
    )
    print(f"criterion 4: eps_v {best.eps_v:.3e} after {len(rows)} restart(s)")
    assert len(rows) <= 10
    assert best.eps_v <= 1e-6


CRITERION_05_TAUS = [0.2, 0.1, 0.05, 0.02, 0.01]


def criterion_05_errors() -> dict:
    """Criterion 5's errors at t = 1 per variant, from ``evolve``."""
    rotated, thc = h2_exact_thc()
    psi0 = hartree_fock_state(rotated, 2, spinful=True)
    return {variant: [evolve(psi0, thc, rotated, 1.0,
                             StepSpec(tau=tau, variant=variant)).error_vs_exact
                      for tau in CRITERION_05_TAUS]
            for variant in ("basic", "improved")}


def test_criterion_05_total_error_slopes_at_unit_time():
    taus = CRITERION_05_TAUS
    errors = criterion_05_errors()
    slope_basic = fit_loglog(taus, errors["basic"]).slope
    slope_improved = fit_loglog(taus, errors["improved"]).slope
    gain = errors["basic"][-1] / errors["improved"][-1]
    print(f"criterion 5: slopes basic {slope_basic:.3f}, improved "
          f"{slope_improved:.3f}; improvement at tau=0.01: {gain:.0f}x")
    assert abs(slope_basic - 1.0) <= 0.15
    assert abs(slope_improved - 2.0) <= 0.15
    assert gain >= 10.0


def test_criterion_05_routes_against_the_long_double_values():
    # both float64 routes, the vector through K_0 (evolve's) and the density
    # as K_0 rho K_0^dagger (oracles.density_step), are measured against the extended-precision
    # reference phi, so each distance from the extended-precision errors is
    # the float64 step's own; both routes step the same compiled K_0 and G,
    # whose rounding is nearly all of it, and differ by their products' rounding
    rotated, thc = h2_exact_thc()
    psi0 = hartree_fock_state(rotated, 2, spinful=True)
    for variant in ("basic", "improved"):
        distances = {"vector": [], "density": []}
        for tau in CRITERION_05_TAUS:
            spec = StepSpec(tau=tau, variant=variant)
            n_steps = int(round(1.0 / tau))
            exact, _ = oracles.evolve_long_double(psi0, thc, rotated, n_steps, spec)
            phi = oracles.exact_evolution_long_double(psi0, rotated, n_steps * tau)
            for route, step in (("vector", oracles.step_sector_vector),
                                ("density", oracles.step_sector_density)):
                distance = oracles.distance_long_double(
                    *step(psi0, thc, rotated, n_steps, spec), phi)
                distances[route].append(float(abs(distance - exact)))
        floor = max(distances["density"])
        print(f"criterion 5 {variant}: density route (float64 floor) {floor:.3e}, "
              f"vector route {max(distances['vector']):.3e}")
        assert 0.0 < floor < 3e-15
        assert max(distances["vector"]) < 3e-15
        for vector, density in zip(distances["vector"], distances["density"]):
            assert abs(vector - density) < 1e-15


CRITERION_06_TAUS = [1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3]


def criterion_06_errors() -> dict:
    """Criterion 6's projection errors of the Hartree-Fock state per variant."""
    _, thc = h2_exact_thc()
    psi0 = hartree_fock_state(h2_hamiltonian(), 2, spinful=True)
    return {variant: [projection_error_measured(thc, psi0, StepSpec(tau=tau, variant=variant))
                      for tau in CRITERION_06_TAUS]
            for variant in ("basic", "improved")}


def test_criterion_06_projection_error_slopes():
    errors = criterion_06_errors()
    slopes = {variant: fit_loglog(CRITERION_06_TAUS, measured).slope
              for variant, measured in errors.items()}
    print(f"criterion 6: projection slopes basic {slopes['basic']:.3f}, "
          f"improved {slopes['improved']:.3f}")
    assert abs(slopes["basic"] - 2.0) <= 0.1
    assert abs(slopes["improved"] - 3.0) <= 0.15


def test_criterion_06_routes_against_the_long_double_values():
    # the measured projection error (one step of evolve under V' alone, the
    # vector route) and the density route K_0 rho K_0^dagger + tr(G rho)
    # with eigvalsh against the float64 reference, each against one step
    # and the reference in extended precision
    rotated, thc = h2_exact_thc()
    vprime = _vprime_hamiltonian(thc)
    psi0 = hartree_fock_state(rotated, 2, spinful=True)
    errors = criterion_06_errors()
    for variant in ("basic", "improved"):
        distances = {"vector": [], "density": []}
        for tau, vector in zip(CRITERION_06_TAUS, errors[variant]):
            spec = StepSpec(tau=tau, variant=variant)
            exact, _ = oracles.evolve_long_double(psi0, thc, vprime, 1, spec)
            density, _ = oracles.evolve_sector_density(psi0, thc, vprime, 1, spec)
            distances["vector"].append(float(abs(vector - exact)))
            distances["density"].append(float(abs(density - exact)))
        print(f"criterion 6 {variant}: density route {max(distances['density']):.3e}, "
              f"vector route {max(distances['vector']):.3e}")
        assert max(distances["density"]) < 1e-15
        assert max(distances["vector"]) < 1e-15


def test_criterion_07_three_term_error_decomposition():
    # first half: rank truncated to m = n (pure factorization error),
    # second half: m = 3 exact (pure splitting and projection error)
    tau = 1e-2
    worst = 0.0
    for k in range(20):
        m = 2 if k < 10 else 3
        rng = np.random.default_rng(300 + k)
        ham = oracles.random_hamiltonian(2, rng, scale=0.5)
        rotated, _ = rotate_to_h_eigenbasis(ham)
        thc = exact_factorize(rotated, m=m, seed=300 + k)
        psi = basis_state(ModeLayout(2, 0), "11")
        spec = StepSpec(tau=tau)
        measured = evolve(psi, thc, rotated, tau, spec).error_vs_exact
        # the projection term is measured on the state after the inner h
        # half-step, the state the interaction block acts on
        budget = error_budget(rotated, thc, spec, psi).total(tau)
        worst = max(worst, measured - budget)
        assert measured <= budget + 1e-9, f"instance {k}: {measured} > {budget}"
    print(f"criterion 7: 20/20 instances bounded; worst margin {worst:.3e}")


def test_criterion_08_exact_factorization_floor():
    worst = 0.0
    for case in range(50):
        n = 2 if case < 25 else 3
        rng = np.random.default_rng(1000 + case)
        ham = oracles.random_hamiltonian(n, rng)
        thc = exact_factorize(ham, seed=case)
        worst = max(worst, thc.eps_v)
        assert thc.eps_v <= 1e-10
    print(f"criterion 8: worst eps_v {worst:.3e} over 50 tensors")


def test_criterion_09_gradient_matches_finite_differences():
    # an independent random core keeps the residual away from zero, where
    # a relative comparison of near-null gradients would be meaningless
    worst = 0.0
    for case in range(10):
        rng = np.random.default_rng(40 + case)
        ham = oracles.random_hamiltonian(2, rng)
        u = random_co_isometry(2, 3, seed=40 + case)
        raw = rng.normal(size=(3, 3))
        vtilde = 0.5 * (raw + raw.T)
        grad = loss_gradient(u, ham, vtilde)

        def loss(point):
            diff = ham.eri - projected_interaction(u=point, vtilde=vtilde)
            return float(np.sum(diff * diff))

        fd = np.zeros_like(u)
        h = 1e-6
        for i in range(u.shape[0]):
            for j in range(u.shape[1]):
                probe = np.zeros_like(u)
                probe[i, j] = h
                fd[i, j] = (loss(u + probe) - loss(u - probe)) / (2 * h)
        rel = np.linalg.norm(fd - grad) / np.linalg.norm(grad)
        worst = max(worst, rel)
        assert rel <= 1e-4
    print(f"criterion 9: worst relative gradient error {worst:.3e}")


def test_criterion_10_bundled_core_norm_slope():
    output = cmd_fit({
        **FIT_DEFAULTS,
        "csv": str(DATA / "hchain_metrics.csv"),
        "x_column": "n",
        "y_column": "l1_vtilde",
        "k_last": 7,
    })
    fit = json.loads(output.report)
    print(f"criterion 10: core-norm growth slope {fit['slope']:.3f}")
    assert abs(fit["slope"] - 1.25) <= 0.05
    assert fit["points_used"] == 7


def test_criterion_11_phase_cancellation_identities():
    sums = phase_cancellation_sums(DEFAULT_PHASES)
    largest = max(abs(s) for s in sums)
    print(f"criterion 11: largest phase sum magnitude {largest:.3e}")
    assert largest < 1e-12


def test_criterion_12_desk_scale_substitutions():
    # Declared out of desk-scale reach: the published optimization wall
    # times, hydrogen-chain factorizations at n = 80, and the rank-450
    # iron-molybdenum-cofactor error curves (the external factors are not
    # bundled).  Matrix-product-state reference energies are replaced by
    # exact diagonalization on <= 6 modes.  The mechanisms those results
    # exercise are checked at desk scale below.
    declared = [
        "hydrogen-chain wall times and n=80 factorizations",
        "rank-450 cofactor error curves (external factor data)",
        "matrix-product-state references (exact diagonalization instead)",
    ]
    for item in declared:
        print(f"criterion 12: declared substitution: {item}")

    # external-factor mechanism: isometrization plus refinement stays
    # within 2x of the unconstrained-core error of the raw factors
    rng = np.random.default_rng(77)
    ham = oracles.random_hamiltonian(3, rng, scale=1.0)
    n, m = 3, 5
    x = np.abs(rng.normal(size=(n, m))) + 0.3
    pm = product_matrix(x)
    vflat = ham.eri.reshape(n * n, n * n)
    core = np.linalg.pinv(pm) @ vflat @ np.linalg.pinv(pm).T
    eps_generic = np.linalg.norm(vflat - pm @ core @ pm.T) / np.linalg.norm(vflat)
    best, _ = factorize_hamiltonian(ham, m, RefineConfig(seed=0),
                                    factor_file=ThcFactorFile(x))
    print(f"criterion 12: generic eps_v {eps_generic:.3f}, "
          f"isometric eps_v {best.eps_v:.3f}")
    assert best.eps_v <= 2.0 * eps_generic

    # energy mechanism: the ground-state shift of a truncated factorization
    # obeys the operator-norm bound used in the error budget
    rotated = h2_hamiltonian()
    thc = exact_factorize(rotated, m=2, seed=1)
    approx = ElectronicHamiltonian(
        2, rotated.core_energy, rotated.h, projected_interaction(thc.u, thc.vtilde)
    )
    shift = abs(
        ground_state_energy(rotated, 2, spinful=True)
        - ground_state_energy(approx, 2, spinful=True)
    )
    gap = thc_bound(rotated, thc, spinful=True)
    print(f"criterion 12: energy shift {shift:.3e} <= operator gap {gap:.3e}")
    assert shift <= gap + 1e-12
