import math
import tracemalloc
from importlib.resources import files

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from isothc.algorithm import (
    COMPOUND_COPIES,
    DEFAULT_PHASES,
    GRID_BYTES_PER_STATE,
    STEP_WORKING_COPIES,
    ErrorBudget,
    StepSpec,
    _givens_circuit,
    _on_sectors,
    _pure_trace_norm,
    _sectors,
    _step_bytes,
    _StepEngine,
    _vprime_hamiltonian,
    error_budget,
    evolve,
    hartree_fock_state,
    phase_cancellation_sums,
    projection_error_bound,
    projection_error_measured,
    thc_bound,
    trotter_bound,
)
from isothc.focksim import (
    FockState,
    ModeLayout,
    exact_evolution,
    givens_decompose,
)
from isothc import algorithm, hamiltonian
from isothc.hamiltonian import (
    OPERATOR_SCRATCH_BYTES,
    ElectronicHamiltonian,
    MemoryRefusal,
    _sector_list,
    _sector_offsets,
    build_many_body_operator,
    operator_memory_bytes,
    parse_fcidump,
    rotate_to_h_eigenbasis,
)
from isothc.thc import (
    ThcFactorization,
    approximation_errors,
    exact_factorize,
    projected_interaction,
    random_co_isometry,
)

import oracles

_rng = np.random.default_rng(909)


def random_sector_state(layout: ModeLayout, n_particles: int, rng) -> FockState:
    idx = oracles.sector_indices(layout.n_modes, n_particles)
    amps = np.zeros(layout.dim, dtype=complex)
    amps[idx] = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    amps /= np.linalg.norm(amps)
    return oracles.from_register(layout, amps)


def on_engine(psi: FockState, engine) -> np.ndarray:
    """The vector an engine steps: ``psi`` on the engine's sectors."""
    return _on_sectors(psi, engine.sectors).amplitudes


def system_sectors(n: int, spinful: bool) -> tuple[tuple[int, ...], ...]:
    """Every (N_up, N_down) sector of n system modes per spin: the support
    of an engine on every system state."""
    return _sector_list(n, 2 if spinful else 1)


def no_one_body(n: int) -> ElectronicHamiltonian:
    """A Hamiltonian with no one-body part: the step is the interaction alone."""
    return ElectronicHamiltonian(n, 0.0, np.zeros((n, n)), np.zeros((n, n, n, n)))


def small_instance(seed, n=2, m=3, scale=0.5):
    rng = np.random.default_rng(seed)
    ham = oracles.random_hamiltonian(n, rng, scale=scale)
    # rotate to the h eigenbasis so the step preconditions hold
    from isothc.hamiltonian import rotate_to_h_eigenbasis

    rotated, _ = rotate_to_h_eigenbasis(ham)
    thc = exact_factorize(rotated, m=m, seed=seed)
    return rotated, thc


def planted_step_instance(seed, n, m, scale=0.4):
    """Exact factorization with O(1) core norm and diagonal one-body part.

    Pseudoinverse factorizations of random tensors can have a huge core at
    small ranks, which makes timestep asymptotics unobservable; planting
    the factors keeps the step perturbative.
    """
    rng = np.random.default_rng(seed)
    u = random_co_isometry(n, m, rng)
    vtilde = rng.normal(size=(m, m)) * scale
    vtilde = 0.5 * (vtilde + vtilde.T)
    h = np.diag(rng.normal(size=n))
    ham = ElectronicHamiltonian(n, 0.0, h, projected_interaction(u=u, vtilde=vtilde))
    return ham, ThcFactorization(u=u, vtilde=vtilde)


# ---------------------------------------------------------------------------
# specs, layouts, and simple states
# ---------------------------------------------------------------------------

def test_step_spec_validation():
    with pytest.raises(ValueError, match="tau"):
        StepSpec(tau=0.0)
    with pytest.raises(ValueError, match="variant"):
        StepSpec(tau=0.1, variant="cubic")
    with pytest.raises(ValueError, match="3 phases"):
        StepSpec(tau=0.1, variant="improved", phases=(0.1, 0.2))


def test_error_budget_total():
    # the budget takes its steps at its own spec's timestep
    budget = ErrorBudget(StepSpec(tau=0.1), eps_thc_rate=0.5, eps_tr=0.01, eps_pr=0.02)
    assert budget.total(t=1.0) == pytest.approx(0.5 + 10 * 0.03)
    with pytest.raises(ValueError, match="eps_tr"):
        ErrorBudget(StepSpec(tau=0.1), eps_thc_rate=0.0, eps_tr=-1.0, eps_pr=0.0)


def test_extended_layout_counts_ancillas():
    # the step engine's register: one ancilla mode per spin for each rank
    # past the n system modes
    ham, thc = small_instance(0, n=2, m=3)
    layout = _StepEngine(thc, ham, StepSpec(tau=0.1), system_sectors(2, True), True).layout
    assert layout.n_system == 2 and layout.n_ancilla == 1 and layout.spinful
    assert layout.n_modes == 6


def test_rotation_count_stays_within_budget():
    _, thc = small_instance(1, n=3, m=6)
    seq = givens_decompose(thc.u)
    assert len(seq.rotations) <= 6 * 3 - 3 * 4 // 2
    assert_allclose(
        oracles.single_particle_matrix(seq)[:, :3].real, thc.u.T, atol=1e-8
    )


# the circuit that `isothc simulate` writes to givens_sequence.json, pinned to
# the last bit for the bundled H2 integrals
H2_GIVENS_JSON = {
    3: '{"n_modes": 3, "rotations": [{"p": 1, "q": 2, "theta": 1.2669609073349801, '
       '"phi": 0.0}, {"p": 0, "q": 1, "theta": 1.4213289552434085, "phi": 0.0}, '
       '{"p": 1, "q": 2, "theta": -0.6965636384908657, "phi": 0.0}], '
       '"residual_diagonal_phases": [0.0, 0.0, 0.0]}',
    4: '{"n_modes": 4, "rotations": [{"p": 1, "q": 2, "theta": 1.3151294595403262, '
       '"phi": 0.0}, {"p": 2, "q": 3, "theta": -1.2770957872846813, "phi": 0.0}, '
       '{"p": 0, "q": 1, "theta": 1.4897732626193898, "phi": 0.0}, '
       '{"p": 1, "q": 2, "theta": 1.1443844897158497, "phi": 0.0}, '
       '{"p": 2, "q": 3, "theta": 1.9605691537789405, "phi": 0.0}], '
       '"residual_diagonal_phases": [0.0, 0.0, 0.0, 0.0]}',
}


@pytest.mark.parametrize("m", [3, 4])
def test_h2_givens_sequence_is_pinned(m):
    fcidump = files("isothc") / "data" / "h2_sto6g.fcidump"
    ham, _ = rotate_to_h_eigenbasis(parse_fcidump(str(fcidump)))
    thc = exact_factorize(ham, m=m, seed=0)
    assert givens_decompose(thc.u).to_json() == H2_GIVENS_JSON[m]


def h2_best_exact_thc(m=3, n_seeds=10):
    """H2 integrals and the exact factorization with the smallest core, as
    the acceptance criteria and the simulate-h2 benchmark choose it."""
    fcidump = files("isothc") / "data" / "h2_sto6g.fcidump"
    ham, _ = rotate_to_h_eigenbasis(parse_fcidump(str(fcidump)))
    candidates = [exact_factorize(ham, m=m, seed=seed) for seed in range(n_seeds)]
    return ham, min(candidates, key=lambda f: float(np.abs(f.vtilde).sum()))


# projection errors of the Hartree-Fock state at criterion 6's taus and the
# bound at tau = 0.01, pinned to the last bit for the bundled H2 integrals
H2_PROJECTION_TAUS = (1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3)
H2_PROJECTION_MEASURED = {
    "basic": ["0.0020619779597079134", "0.0002064119373818432", "2.0643336741940697e-05",
              "2.0643551057991237e-06", "2.0643572493471599e-07"],
    "improved": ["2.2016705181837253e-06", "6.869931258771715e-08", "2.1632522270685887e-09",
                 "6.831602186613948e-11", "2.1594226336309705e-12"],
}
H2_PROJECTION_BOUND = {"basic": "6.158464476740255e-05", "improved": "1.2645524184018151e-08"}


@pytest.mark.parametrize("variant", ["basic", "improved"])
def test_h2_projection_errors_are_pinned(variant):
    ham, thc = h2_best_exact_thc()
    psi = hartree_fock_state(ham, 2, spinful=True)
    measured = [repr(projection_error_measured(thc, psi, StepSpec(tau=tau, variant=variant)))
                for tau in H2_PROJECTION_TAUS]
    assert measured == H2_PROJECTION_MEASURED[variant]
    bound = projection_error_bound(thc, StepSpec(tau=1e-2, variant=variant), spinful=True)
    assert repr(bound) == H2_PROJECTION_BOUND[variant]


@pytest.mark.parametrize("variant", ["basic", "improved"])
def test_h2_projection_bound_lies_within_the_float64_floor(variant):
    # the pinned bound and a fresh one against the same bound evaluated in
    # long double on every sector (U P from Leibniz minors, the ideal from a
    # Taylor exponential, each norm a Rayleigh quotient): a route that moves
    # the bound's bits must stay this close
    _, thc = h2_best_exact_thc()
    spec = StepSpec(tau=1e-2, variant=variant)
    exact = oracles.projection_bound_long_double(thc, spec)
    fresh = projection_error_bound(thc, spec, spinful=True)
    for value in (float(H2_PROJECTION_BOUND[variant]), fresh):
        assert abs(np.longdouble(value) - exact) < 1e-15


def test_hartree_fock_state_spinless_fills_lowest_modes():
    h = np.diag([3.0, 1.0, 2.0])
    ham = ElectronicHamiltonian(3, 0.0, h, np.zeros((3, 3, 3, 3)))
    state = hartree_fock_state(ham, 2, spinful=False)
    amps = np.zeros(8)
    amps[0b110] = 1.0  # modes 1 and 2 occupied
    assert state.sectors == ((2,),)
    assert_allclose(oracles.to_register(state), amps, atol=0)


def test_hartree_fock_state_spinful_pairs_orbitals():
    h = np.diag([0.5, -0.2])
    ham = ElectronicHamiltonian(2, 0.0, h, np.zeros((2, 2, 2, 2)))
    state = hartree_fock_state(ham, 2, spinful=True)
    # orbital 1 doubly occupied: modes 1 (up) and 3 (down)
    assert oracles.to_register(state)[0b1010] == 1.0
    with pytest.raises(ValueError, match="electrons"):
        hartree_fock_state(ham, 5, spinful=True)


def test_hartree_fock_state_requires_diagonal_h():
    h = np.array([[1.0, 0.2], [0.2, 2.0]])
    ham = ElectronicHamiltonian(2, 0.0, h, np.zeros((2, 2, 2, 2)))
    with pytest.raises(ValueError, match="diagonal"):
        hartree_fock_state(ham, 1)


# ---------------------------------------------------------------------------
# the compiled step against independent dense oracles
# ---------------------------------------------------------------------------

def oracle_extended_interaction(sequence, vtilde, layout) -> np.ndarray:
    """String-oracle matrix of the rotated mode-diagonal interaction."""
    t = oracles.single_particle_matrix(sequence)
    assert np.max(np.abs(t.imag)) < 1e-12
    coeff = t.real.T  # coeff[p, alpha]: physical content of rotated mode alpha
    m = layout.sector_size
    number_ops = {}
    for sector in range(layout.n_sectors):
        off = sector * m
        for alpha in range(m):
            k = np.zeros((layout.n_modes, layout.n_modes))
            k[off : off + m, off : off + m] = np.outer(coeff[:, alpha], coeff[:, alpha])
            number_ops[(alpha, sector)] = oracles.dense_quadratic(layout.n_modes, k)
    total = np.zeros((layout.dim, layout.dim), dtype=complex)
    labels = list(number_ops)
    for la in labels:
        for lb in labels:
            if la != lb:
                total += 0.5 * vtilde[la[0], lb[0]] * (number_ops[la] @ number_ops[lb])
    return total


def oracle_one_body_diagonal(h_diag, layout) -> np.ndarray:
    k = np.diag(h_diag)
    return oracles.dense_quadratic(layout.n_modes, k)


def oracle_ancilla_counter(layout) -> np.ndarray:
    k = np.zeros((layout.n_modes, layout.n_modes))
    for mode in oracles.ancilla_modes(layout):
        k[mode, mode] = 1.0
    return oracles.dense_quadratic(layout.n_modes, k)


def assert_vacuum_columns(engine, full) -> None:
    """The compiled stack [K_0; G] from the full unitary's ancilla-vacuum
    columns: K_0 their vacuum rows, G the Gram matrix of their other rows,
    both in the engine's sector-major order."""
    layout = engine.layout
    a_key, b_key = oracles.split_keys(layout)
    vacuum = np.flatnonzero(b_key == 0)
    vacuum = vacuum[np.argsort(a_key[vacuum])]
    columns = vacuum[oracles.register_order(layout.system_only(), engine.sectors)]
    leaving = full[np.ix_(b_key != 0, columns)]
    stack = engine.dense_unitary()
    assert_allclose(stack[:columns.size], full[np.ix_(columns, columns)], atol=1e-15)
    assert_allclose(stack[columns.size:], leaving.conj().T @ leaving, atol=1e-15)


@pytest.mark.parametrize("spinful", [False, True])
def test_basic_step_unitary_matches_string_oracle(spinful):
    ham, thc = small_instance(7, n=2, m=3)
    tau = 0.37
    engine = _StepEngine(thc, ham, StepSpec(tau=tau), system_sectors(2, spinful), spinful)
    layout = engine.layout
    full = oracles.full_step_unitary(engine)
    assert_vacuum_columns(engine, full)

    v_ext = oracle_extended_interaction(_givens_circuit(thc), thc.vtilde, layout)
    h_diag = np.zeros(layout.n_modes)
    for sector in range(layout.n_sectors):
        off = sector * layout.sector_size
        h_diag[off : off + 2] = np.diag(ham.h)
    h_ext = oracle_one_body_diagonal(h_diag, layout)
    half = scipy.linalg.expm(-1j * tau / 2 * h_ext)
    expected = half @ scipy.linalg.expm(-1j * tau * v_ext) @ half
    assert_allclose(full, expected, atol=1e-10)


def test_improved_step_unitary_matches_string_oracle():
    ham, thc = small_instance(8, n=2, m=3)
    tau = 0.21
    spec = StepSpec(tau=tau, variant="improved")
    engine = _StepEngine(thc, ham, spec, system_sectors(2, False), False)
    layout = engine.layout
    full = oracles.full_step_unitary(engine)
    assert_vacuum_columns(engine, full)

    v_ext = oracle_extended_interaction(_givens_circuit(thc), thc.vtilde, layout)
    quarter = scipy.linalg.expm(-1j * tau / 4 * v_ext)
    n_b = oracle_ancilla_counter(layout)
    p1, p2, p3 = spec.phases
    block = quarter
    for phi in (p3, p2, p1):  # rightmost factor acts first
        block = scipy.linalg.expm(1j * phi * n_b) @ block
        block = quarter @ block
    h_ext = oracle_one_body_diagonal(
        np.concatenate([np.diag(ham.h), np.zeros(1)]), layout
    )
    half = scipy.linalg.expm(-1j * tau / 2 * h_ext)
    expected = half @ block @ half
    assert_allclose(full, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# step behaviour
# ---------------------------------------------------------------------------

def sector_engine(thc, ham, spec, psi) -> _StepEngine:
    """The step engine ``evolve`` builds for ``psi``: on its sectors only."""
    return _StepEngine(thc, ham, spec, _sectors(psi), psi.layout.spinful)


def test_zero_interaction_zero_h_is_identity_channel():
    n, m = 2, 3
    u = exact_factorize(
        oracles.random_hamiltonian(n, np.random.default_rng(3)), m=m, seed=0
    ).u
    thc = ThcFactorization(u=u, vtilde=np.zeros((m, m)))
    ham = ElectronicHamiltonian(n, 0.0, np.zeros((n, n)), np.zeros((n, n, n, n)))
    psi = random_sector_state(ModeLayout(n, 0), 1, _rng)
    engine = sector_engine(thc, ham, StepSpec(tau=0.3), psi)
    out, leaked = engine.step(on_engine(psi, engine))
    assert_allclose(out, on_engine(psi, engine), atol=1e-12)
    assert leaked == pytest.approx(0.0, abs=1e-12)
    assert evolve(psi, thc, ham, t=0.3, spec=StepSpec(tau=0.3)).error_vs_exact <= 1e-12


def test_step_channel_rejects_leaked_input():
    ham, thc = small_instance(4)
    layout = ModeLayout(thc.n, thc.m - thc.n)
    amps = np.zeros(layout.dim, dtype=complex)
    amps[1 << oracles.ancilla_modes(layout)[0]] = 1.0  # ancilla occupied
    # the step takes system states only; an extended one is refused
    with pytest.raises(ValueError, match="system-only"):
        evolve(oracles.from_register(layout, amps), thc, ham, t=0.1, spec=StepSpec(tau=0.1))
    vacuum = np.zeros(layout.dim, dtype=complex)
    vacuum[1 << oracles.system_modes(layout)[0]] = 1.0  # every ancilla empty
    with pytest.raises(ValueError, match="system-only"):
        evolve(oracles.from_register(layout, vacuum), thc, ham, t=0.1, spec=StepSpec(tau=0.1))
    wrong_size = random_sector_state(ModeLayout(3, 0), 1, _rng)
    with pytest.raises(ValueError, match="factorization size"):
        evolve(wrong_size, thc, ham, t=0.1, spec=StepSpec(tau=0.1))


def test_step_channel_requires_diagonal_h():
    rng = np.random.default_rng(13)
    ham = oracles.random_hamiltonian(2, rng)
    thc = exact_factorize(ham, m=3, seed=0)
    psi = random_sector_state(ModeLayout(2, 0), 1, rng)
    with pytest.raises(ValueError, match="diagonal"):
        evolve(psi, thc, ham, t=0.1, spec=StepSpec(tau=0.1))


def test_one_basic_step_close_to_exact():
    ham, thc = small_instance(5, n=2, m=4)  # exact factorization at m = n^2
    tau = 1e-3
    psi = random_sector_state(ModeLayout(2, 0), 2, np.random.default_rng(2))
    assert evolve(psi, thc, ham, t=tau, spec=StepSpec(tau=tau)).error_vs_exact <= 1e-5


def test_improved_with_zero_phases_equals_basic():
    # the compiled [K_0; G] on every system state
    ham, thc = small_instance(6)
    basic = _StepEngine(thc, ham, StepSpec(tau=0.05), system_sectors(2, False), False)
    improved = _StepEngine(
        thc, ham, StepSpec(tau=0.05, variant="improved", phases=(0.0, 0.0, 0.0)),
        system_sectors(2, False), False
    )
    assert np.max(np.abs(basic.dense_unitary() - improved.dense_unitary())) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 3),
    extra=st.integers(0, 2),
    spinful=st.booleans(),
    variant=st.sampled_from(["basic", "improved"]),
    with_h=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kraus_step_matches_full_fock_oracle(n, extra, spinful, variant, with_h, seed):
    rng = np.random.default_rng(seed)
    m = n + extra
    u = random_co_isometry(n, m, rng)
    vtilde = rng.normal(size=(m, m)) * 0.5
    thc = ThcFactorization(u=u, vtilde=0.5 * (vtilde + vtilde.T))
    h = np.diag(rng.normal(size=n)) if with_h else np.zeros((n, n))
    ham = ElectronicHamiltonian(n, 0.0, h, np.zeros((n, n, n, n)))
    spec = StepSpec(tau=float(rng.uniform(0.05, 0.5)), variant=variant)
    engine = _StepEngine(thc, ham, spec, system_sectors(n, spinful), spinful)
    layout = engine.layout

    # every system sector, so the support is every system state, in
    # sector-major order
    stack = engine.dense_unitary()
    size = layout.system_only().dim
    assert stack.shape == (2 * size, size)
    full = oracles.full_step_unitary(engine)
    a_key, b_key = oracles.split_keys(layout)
    vacuum = np.flatnonzero(b_key == 0)
    assert np.array_equal(a_key[vacuum], np.arange(size))
    vacuum = vacuum[oracles.register_order(layout.system_only())]
    leaving = full[np.ix_(b_key != 0, vacuum)]
    assert_allclose(stack[:size], full[np.ix_(vacuum, vacuum)], rtol=0, atol=1e-12)
    assert_allclose(stack[size:], leaving.conj().T @ leaving, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["basic", "improved"])
def test_fused_and_sequential_paths_agree(variant):
    # the step compiles U P on each sector's string grid; the reference
    # applies the step gate by gate to every basis column of the extended
    # register and resets the ancillas in the occupation basis
    ham, thc = small_instance(9)
    psi = random_sector_state(ModeLayout(thc.n, 0), 2, np.random.default_rng(9))
    spec = StepSpec(tau=0.08, variant=variant)
    engine = sector_engine(thc, ham, spec, psi)
    layout = engine.layout
    fused, leaked = engine.step(on_engine(psi, engine))
    full = oracles.full_step_unitary(engine)
    extended = oracles.embed_in_ancilla_vacuum(oracles.density(oracles.to_register(psi)),
                                               layout)
    gates, oracle_leaked = oracles.full_fock_step(full, extended, layout)
    gates = oracles.system_density(gates, layout)
    support = oracles.register_order(layout.system_only(), engine.sectors)
    on_support = gates[np.ix_(support, support)]
    assert np.max(np.abs(oracles.density(fused) - on_support)) < 1e-12
    assert leaked == pytest.approx(oracle_leaked, abs=1e-12)


def test_step_channel_preserves_trace_and_vacuum_support():
    ham, thc = small_instance(10)
    psi = random_sector_state(ModeLayout(2, 0), 1, np.random.default_rng(1))
    engine = sector_engine(thc, ham, StepSpec(tau=0.2, variant="improved"), psi)
    out, leaked = engine.step(on_engine(psi, engine))
    # the ancillas are back in the vacuum: the state stays on the system support
    assert out.shape == (engine.col_offsets[-1],)
    assert float(np.vdot(out, out).real) + leaked == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_zero_time_is_exact():
    ham, thc = small_instance(11)
    psi = random_sector_state(ModeLayout(2, 0), 1, np.random.default_rng(4))
    result = evolve(psi, thc, ham, t=0.0, spec=StepSpec(tau=0.1))
    assert result.n_steps == 0
    assert result.error_vs_exact == 0.0
    assert result.t_simulated == 0.0


def test_evolve_counts_and_rounds_steps():
    ham, thc = small_instance(12)
    psi = random_sector_state(ModeLayout(2, 0), 1, np.random.default_rng(5))
    result = evolve(psi, thc, ham, t=1.0, spec=StepSpec(tau=0.3))
    assert result.n_steps == 3
    assert result.leaked_weight.shape == (3,)
    assert np.all(result.leaked_weight >= -1e-15)
    assert result.t_simulated == pytest.approx(0.9)


def commuting_diagonal_instance(n=3, seed=14):
    """Diagonal eri and diagonal h: u = identity is an exact rank-n
    factorization, there are no ancillas, and h commutes with V'."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, n))
    w = 0.5 * (w + w.T)
    eri = np.zeros((n, n, n, n))
    for a in range(n):
        for b in range(n):
            eri[a, a, b, b] = w[a, b]
    h = np.diag(rng.normal(size=n))
    ham = ElectronicHamiltonian(n, 0.0, h, eri)
    thc = ThcFactorization(u=np.eye(n), vtilde=w, htilde=np.diag(h))
    return ham, thc, random_sector_state(ModeLayout(n, 0), 2, rng)


def test_evolve_commuting_diagonal_instance_is_exact():
    ham, thc, psi = commuting_diagonal_instance()
    result = evolve(psi, thc, ham, t=1.0, spec=StepSpec(tau=0.2))
    assert result.error_vs_exact <= 1e-8


def test_evolve_leak_is_read_from_the_leaving_rows():
    # with no ancillas no row leaves the vacuum, so every step leaks exactly
    # 0, while float64 rounding moves the stepped norm, which 1 - ||psi||^2
    # would count as leakage
    ham, thc, psi0 = commuting_diagonal_instance()
    spec = StepSpec(tau=0.2)
    assert np.all(evolve(psi0, thc, ham, t=2.0, spec=spec).leaked_weight == 0.0)
    engine = _StepEngine(thc, ham, spec, _sectors(psi0), False)
    psi = on_engine(psi0, engine)
    drift = []
    for _ in range(10):
        psi, leaked = engine.step(psi)
        assert leaked == 0.0
        drift.append(1.0 - float(np.vdot(psi, psi).real))
    assert any(d != 0.0 for d in drift)


def rank_two_pair(rng, size, kind):
    phi = rng.normal(size=size) + 1j * rng.normal(size=size)
    phi /= np.linalg.norm(phi)
    noise = rng.normal(size=size) + 1j * rng.normal(size=size)
    if kind == "random":
        return rng.uniform(0.2, 1.0) * noise / np.linalg.norm(noise), phi
    scale = np.sqrt(1.0 - rng.uniform(0.0, 1e-6)) if kind == "unit" else 1.0
    # psi nearly parallel to phi, up to a phase and a norm a close to 1
    return scale * np.exp(1j * rng.uniform(0, 2 * np.pi)) * (phi + 1e-7 * noise), phi


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 12), kind=st.sampled_from(["random", "parallel", "unit"]),
       seed=st.integers(0, 2**32 - 1))
def test_pure_trace_norm_matches_eigvalsh(size, kind, seed):
    psi, phi = rank_two_pair(np.random.default_rng(seed), size, kind)
    diff = np.outer(psi, psi.conj()) - np.outer(phi, phi.conj())
    want = float(np.abs(np.linalg.eigvalsh(diff)).sum())
    assert _pure_trace_norm(psi, phi) == pytest.approx(want, rel=1e-9, abs=1e-14)


def test_evolve_error_shrinks_with_tau():
    # n = 3 with two particles: the smallest spinless system where the
    # interaction acts nontrivially inside a particle-number sector
    ham, thc = planted_step_instance(15, n=3, m=5)
    psi = random_sector_state(ModeLayout(3, 0), 2, np.random.default_rng(7))
    coarse = evolve(psi, thc, ham, t=0.8, spec=StepSpec(tau=0.2)).error_vs_exact
    fine = evolve(psi, thc, ham, t=0.8, spec=StepSpec(tau=0.025)).error_vs_exact
    assert coarse > 1e-8
    assert fine < 0.5 * coarse


def random_definite_state(layout: ModeLayout, rng, one_spin_sector: bool):
    """Random amplitudes on every state of one particle number N, or of one
    (N_up, N_down) sector; returns the state and the indices it occupies."""
    states = np.arange(layout.dim)
    low = (1 << layout.sector_size) - 1
    n_up = np.array([bin(x & low).count("1") for x in states])
    total = np.array([bin(x).count("1") for x in states])
    n_total = int(rng.integers(1, layout.n_modes + 1))
    chosen = total == n_total
    if one_spin_sector and layout.spinful:
        ups = np.unique(n_up[chosen])
        chosen &= n_up == rng.choice(ups)
    idx = np.flatnonzero(chosen)
    amps = np.zeros(layout.dim, dtype=complex)
    amps[idx] = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    return oracles.from_register(layout, amps / np.linalg.norm(amps)), idx


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    extra=st.integers(0, 2),
    spinful=st.booleans(),
    variant=st.sampled_from(["basic", "improved"]),
    with_h=st.booleans(),
    one_spin_sector=st.booleans(),
    n_steps=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_sector_evolve_matches_full_density_oracle(
    n, extra, spinful, variant, with_h, one_spin_sector, n_steps, seed
):
    rng = np.random.default_rng(seed)
    m = n + extra
    u = random_co_isometry(n, m, rng)
    vtilde = rng.normal(size=(m, m)) * 0.5
    thc = ThcFactorization(u=u, vtilde=0.5 * (vtilde + vtilde.T))
    h = np.diag(rng.normal(size=n)) if with_h else np.zeros((n, n))
    ham = ElectronicHamiltonian(n, 0.0, h, projected_interaction(thc.u, thc.vtilde))
    tau = float(rng.uniform(0.05, 0.5))
    spec = StepSpec(tau=tau, variant=variant)
    psi, support = random_definite_state(ModeLayout(n, 0, spinful), rng, one_spin_sector)

    result = evolve(psi, thc, ham, t=n_steps * tau, spec=spec)
    error, rho = oracles.evolve_full_density(psi, thc, ham, n_steps, spec)
    outside = float(np.delete(np.diag(rho).real, support).sum())
    sector_error, sector_lost = oracles.evolve_sector_density(psi, thc, ham, n_steps, spec)
    assert result.n_steps == n_steps
    for want_error, want_lost in ((error, outside), (sector_error, sector_lost)):
        assert result.error_vs_exact == pytest.approx(want_error, abs=1e-12)
        assert result.leaked_weight.sum() == pytest.approx(want_lost, abs=1e-12)

    # the sector engine's [K_0; G] is bit for bit the block on S of the
    # engine on every system sector, which vanishes off S in the columns of S
    sector = _StepEngine(thc, ham, spec, _sectors(psi), spinful)
    full = _StepEngine(thc, ham, spec, system_sectors(n, spinful), spinful)
    layout = full.layout
    columns = oracles.register_order(layout.system_only(), sector.sectors)
    assert np.array_equal(np.sort(columns), support)
    at = oracles.register_positions(layout.system_only())[columns]
    k0, g = np.split(full.dense_unitary()[:, at], 2)
    assert sector.dense_unitary().shape == (2 * support.size, support.size)
    assert np.array_equal(sector.dense_unitary(), np.concatenate([k0[at], g[at]]))
    assert not np.any(np.delete(k0, at, axis=0)) and not np.any(np.delete(g, at, axis=0))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    spinful=st.booleans(),
    variant=st.sampled_from(["basic", "improved"]),
    support=st.sampled_from(["one sector", "one particle number", "every sector"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_grid_compile_matches_the_gate_route(n, spinful, variant, support, seed, data):
    # the stack [K_0; G] compiled sector by sector on each string grid from
    # compound matrices, against the same columns of U P stepped one Givens
    # gate at a time: their vacuum rows, and the Gram matrix of their other
    # rows.  Supports of one (N_up, N_down) sector, of every sector of one
    # particle number, and of every system sector
    m = data.draw(st.integers(n, 5))
    rng = np.random.default_rng(seed)
    vtilde = rng.normal(size=(m, m))
    thc = ThcFactorization(u=random_co_isometry(n, m, rng), vtilde=0.5 * (vtilde + vtilde.T))
    ham = ElectronicHamiltonian(n, 0.0, np.diag(rng.normal(size=n)), np.zeros((n,) * 4))
    spec = StepSpec(tau=float(rng.uniform(0.05, 0.5)), variant=variant,
                    phases=tuple(rng.uniform(-np.pi, np.pi, size=3)))
    psi, _ = random_definite_state(ModeLayout(n, 0, spinful), rng,
                                   one_spin_sector=support == "one sector")
    engine = _StepEngine(thc, ham, spec,
                         system_sectors(n, spinful) if support == "every sector" else _sectors(psi),
                         spinful)
    layout = engine.layout
    up = oracles.gate_dense_unitary(engine)
    rows = oracles.register_order(layout, engine.sectors)
    columns = oracles.register_order(layout.system_only(), engine.sectors)
    # the extended state of each column, its system state with every ancilla
    # empty: the down half moves from bit n to bit m
    vacuum = ((columns & ((1 << n) - 1)) | ((columns >> n) << m))
    at = np.argmax(rows[:, None] == vacuum, axis=0)
    leaving = np.delete(up, at, axis=0)
    stack = engine.dense_unitary()
    assert stack.shape == (2 * columns.size, columns.size)
    assert_allclose(stack[:columns.size], up[at], rtol=0, atol=1e-14)
    assert_allclose(stack[columns.size:], leaving.conj().T @ leaving, rtol=0, atol=1e-14)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_compound_matrix_is_the_gate_kernel_on_the_identity(m, seed, data):
    # C_k run on the string tables against the row kernel run on the
    # identity over the k-particle strings, bit for bit, and against the
    # k x k minors of the circuit's single-particle matrix Q, which share
    # no gate kernel with either
    n = data.draw(st.integers(1, m))
    k = data.draw(st.integers(0, m))
    u = random_co_isometry(n, m, np.random.default_rng(seed))
    c, c_h = algorithm._compound(u.tobytes(), u.shape, k)
    sequence = givens_decompose(u)
    strings = oracles.sector_indices(m, k)
    identity = oracles.RowState(ModeLayout(m, 0), np.eye(strings.size, dtype=complex), strings)
    kernel = oracles.apply_basis_rotation(identity, sequence, oracles.RowTables(identity))
    assert np.array_equal(c, kernel.amplitudes)
    assert np.array_equal(c_h, c.T.conj())
    modes = np.array([np.flatnonzero((s >> np.arange(m)) & 1) for s in strings],
                     dtype=int).reshape(strings.size, k)
    q = oracles.single_particle_matrix(sequence)
    minors = np.linalg.det(q[modes[:, None, :, None], modes[None, :, None, :]])
    assert_allclose(c, minors, rtol=0, atol=1e-14)


def per_spin_counts(states: np.ndarray, layout: ModeLayout) -> list[tuple[int, ...]]:
    low = (1 << layout.sector_size) - 1
    return [tuple(bin((int(x) >> (spin * layout.sector_size)) & low).count("1")
                  for spin in range(layout.n_sectors)) for x in states]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    extra=st.integers(0, 3),
    spinful=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sector_rows_are_the_extended_states_of_the_support_sectors(n, extra, spinful, seed):
    rng = np.random.default_rng(seed)
    m = n + extra
    thc = ThcFactorization(u=random_co_isometry(n, m, rng), vtilde=np.eye(m))
    system = ModeLayout(n, 0, spinful)
    # a random nonempty set of system states at one total particle number
    totals = np.array([bin(x).count("1") for x in range(system.dim)])
    candidates = np.flatnonzero(totals == rng.integers(0, system.n_modes + 1))
    occupied = rng.choice(candidates, size=rng.integers(1, candidates.size + 1),
                          replace=False)
    amps = np.zeros(system.dim, dtype=complex)
    amps[occupied] = 1.0
    psi = oracles.from_register(system, amps / np.linalg.norm(amps))

    engine = _StepEngine(thc, no_one_body(n), StepSpec(tau=0.1), _sectors(psi), spinful)
    layout = engine.layout
    counts = set(per_spin_counts(occupied, system))
    assert engine.sectors == tuple(sorted(counts))
    states = np.arange(system.dim)
    support = states[[c in counts for c in per_spin_counts(states, system)]]
    columns = oracles.register_order(system, engine.sectors)
    assert np.array_equal(np.sort(columns), support) and engine.col_offsets[-1] == support.size
    assert engine.dense_unitary().shape == (2 * support.size, support.size)
    # the memory estimate counts without listing them each sector's rows,
    # its extended states, and columns, its system states, and charges the
    # largest sector block, the stack [K_0; G] on the support with one
    # copy of a half, and the compound matrix of each spin's particle count
    rows = per_spin_counts(np.arange(layout.dim), layout)
    block = max((STEP_WORKING_COPIES * 16 * per_spin_counts(support, system).count(c)
                 + GRID_BYTES_PER_STATE) * rows.count(c) for c in counts)
    compounds = sum(math.comb(m, k) ** 2 for k in {k for c in counts for k in c})
    assert _step_bytes(n, m, _sectors(psi)) == (
        block + 3 * 16 * support.size**2 + COMPOUND_COPIES * 16 * compounds)


def traced_step_peak(n, m, electrons, every=False, variant="basic"):
    """A spinful step engine on random factors, on the sectors of a
    Hartree-Fock state (``_step_bytes`` of its sectors estimates it) or
    on every system sector; its estimate; and the tracemalloc peak of
    building it and taking three steps of the vector through ``step`` or,
    on every system sector, of compiling [K_0; G] and taking the norms of
    its two halves as ``projection_error_bound`` does."""
    rng = np.random.default_rng(29)
    vtilde = rng.normal(size=(m, m))
    thc = ThcFactorization(u=random_co_isometry(n, m, rng), vtilde=0.5 * (vtilde + vtilde.T))
    ham = ElectronicHamiltonian(n, 0.0, np.diag(rng.normal(size=n)), np.zeros((n,) * 4))
    psi = hartree_fock_state(ham, electrons, spinful=True)
    sectors = system_sectors(n, True) if every else _sectors(psi)
    tracemalloc.start()
    try:
        engine = _StepEngine(thc, ham, StepSpec(tau=0.1, variant=variant), sectors, True)
        if every:
            for half in np.split(engine.dense_unitary(), 2):
                np.linalg.norm(half, 2)
        else:
            vector = on_engine(psi, engine)
            for _ in range(3):
                vector, _ = engine.step(vector)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = _step_bytes(n, m, sectors)
    return engine, estimate, peak


def largest_block(engine) -> tuple[int, int]:
    """The (rows, columns) of an engine's largest sector block of U P."""
    layout = engine.layout
    return max(((_sector_offsets(layout.sector_size, [c])[-1],
                 _sector_offsets(layout.n_system, [c])[-1]) for c in engine.sectors),
               key=math.prod)


def test_step_memory_estimate_bounds_the_traced_peak():
    # one column (2 + 2 electrons) over C(24, 2)^2 = 76 176 extended rows:
    # the per-row arrays of the grid compile (per-cell phases and chunk
    # columns) are nearly all of the engine's memory
    engine, estimate, peak = traced_step_peak(2, 24, 4)
    assert largest_block(engine) == (76_176, 1)
    assert peak <= estimate


@pytest.mark.parametrize("variant", ["basic", "improved"])
@pytest.mark.parametrize("n, m, electrons, every, block", [
    # many columns (3 + 2 electrons): the sector's U P and its working
    # copies dominate
    pytest.param(5, 8, 5, False, (1568, 100), id="sectors"),
    # every system sector (256 states), [K_0; G] compiled and read by the
    # projection bound; the (3, 3) sector's block is the largest
    pytest.param(4, 9, 4, True, (7056, 16), id="every-sector"),
])
def test_step_memory_estimate_bounds_the_traced_peak_of_large_blocks(
        variant, n, m, electrons, every, block):
    # sector blocks of U P of 1 MiB and more, where the working copies of
    # the block, not the per-row arrays, set the peak
    engine, estimate, peak = traced_step_peak(n, m, electrons, every, variant)
    assert largest_block(engine) == block
    assert 16 * math.prod(block) >= 2**20
    assert peak <= estimate


def test_every_step_engine_is_admitted_by_its_estimate(monkeypatch):
    # 12 extended modes: the step on every system sector, whose stack
    # [K_0; G] holds 2 x 1024^2 amplitudes, outgrows evolve's sector step
    # plus its exact reference, whose estimate has a floor of a few MiB
    ham, thc = planted_step_instance(27, n=5, m=6)
    psi = hartree_fock_state(ham, 5, spinful=True)
    every = _step_bytes(5, 6, system_sectors(5, True))
    assert operator_memory_bytes(_sector_offsets(5, _sectors(psi))[-1]) < every
    # the projection bound compiles every system sector
    monkeypatch.setattr(hamiltonian, "_physical_memory_bytes", lambda: every - 1)
    with pytest.raises(ValueError, match="the step on 12 modes"):
        projection_error_bound(thc, StepSpec(tau=0.1), spinful=True)
    # evolve, and the measured projection error (one step of it), compile
    # the sectors of their input only, which fit
    assert evolve(psi, thc, ham, t=0.1, spec=StepSpec(tau=0.1)).n_steps == 1
    assert projection_error_measured(thc, psi, StepSpec(tau=0.1)) >= 0.0
    monkeypatch.setattr(hamiltonian, "_physical_memory_bytes",
                        lambda: _step_bytes(5, 6, _sectors(psi)) - 1)
    with pytest.raises(ValueError, match="the step on 12 modes"):
        evolve(psi, thc, ham, t=0.1, spec=StepSpec(tau=0.1))


def refuse_to_compile(monkeypatch):
    def no_compile(*args, **kwargs):
        raise AssertionError("a refused call compiled or ran a step")

    monkeypatch.setattr(_StepEngine, "dense_unitary", no_compile)
    monkeypatch.setattr(_StepEngine, "step", no_compile)


def test_evolve_refuses_a_reference_past_memory_before_it_compiles(monkeypatch):
    # the step fits and the exact reference does not: the engine is built
    # (and admitted), the reference is refused, and nothing compiles
    ham, thc = small_instance(27, n=2, m=3)
    psi = hartree_fock_state(ham, 2, spinful=True)
    step = _step_bytes(2, 3, _sectors(psi))
    assert step < operator_memory_bytes(_sector_offsets(2, _sectors(psi))[-1])
    monkeypatch.setattr(hamiltonian, "_physical_memory_bytes", lambda: step)
    refuse_to_compile(monkeypatch)
    with pytest.raises(MemoryRefusal, match="many-body operator on 4 modes"):
        evolve(psi, thc, ham, t=0.1, spec=StepSpec(tau=0.1))


def test_evolve_refuses_a_step_past_memory_before_it_builds_the_reference(monkeypatch):
    ham, thc = small_instance(27, n=2, m=3)
    psi = hartree_fock_state(ham, 2, spinful=True)
    step = _step_bytes(2, 3, _sectors(psi))
    monkeypatch.setattr(hamiltonian, "_physical_memory_bytes", lambda: step - 1)

    def no_build(*args, **kwargs):
        raise AssertionError("the reference was built for a refused step")

    monkeypatch.setattr(algorithm, "build_many_body_operator", no_build)
    refuse_to_compile(monkeypatch)
    with pytest.raises(MemoryRefusal, match="the step on 6 modes"):
        evolve(psi, thc, ham, t=0.1, spec=StepSpec(tau=0.1))


def projection_bound_instance():
    """Random factors at n = 5, m = 6 spinful (12 modes), where the
    projection bound holds the stack [K_0; G] on the 1024 system states
    beside the ideal propagator on them, and the bound's estimate: the sum
    of the step's and the operator's."""
    rng = np.random.default_rng(29)
    n, m = 5, 6
    vtilde = rng.normal(size=(m, m))
    thc = ThcFactorization(u=random_co_isometry(n, m, rng), vtilde=0.5 * (vtilde + vtilde.T))
    sectors = system_sectors(n, True)
    step = _step_bytes(n, m, sectors)
    return thc, step, operator_memory_bytes(_sector_offsets(n, sectors)[-1])


def test_projection_bound_estimate_bounds_the_traced_peak():
    # the stack and the ideal are alive at once, so the peak passes either
    # estimate alone and stays within their sum
    thc, step, operator = projection_bound_instance()
    tracemalloc.start()
    try:
        projection_error_bound(thc, StepSpec(tau=0.1), spinful=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(step, operator) < peak <= step + operator


def test_projection_bound_refuses_its_stack_and_ideal_together(monkeypatch):
    # memory one byte short of the sum holds either alone: the bound is
    # refused before it compiles the stack or builds the ideal
    thc, step, operator = projection_bound_instance()
    monkeypatch.setattr(hamiltonian, "_physical_memory_bytes", lambda: step + operator - 1)

    def no_build(*args, **kwargs):
        raise AssertionError("the ideal was built for a refused bound")

    monkeypatch.setattr(algorithm, "build_many_body_operator", no_build)
    refuse_to_compile(monkeypatch)
    with pytest.raises(MemoryRefusal, match="the projection bound on 12 modes"):
        projection_error_bound(thc, StepSpec(tau=0.1), spinful=True)


def test_memory_refusal_is_a_value_error():
    # the CLI maps ValueError to exit code 1
    assert issubclass(MemoryRefusal, ValueError)


def test_reference_of_twenty_four_extended_modes_fits_in_64_mib(monkeypatch):
    # n = 6, m = 12 spinful is a 24-mode register, and the Hartree-Fock
    # state's (3, 3) sector holds 400 of the 4096 system states: evolve's
    # exact reference is built on those, where the dense operator on every
    # system state would need 1.5 GiB
    ham, _ = rotate_to_h_eigenbasis(oracles.random_hamiltonian(6, np.random.default_rng(30)))
    psi = hartree_fock_state(ham, 6, spinful=True)
    sectors = _sectors(psi)
    size = _sector_offsets(6, sectors)[-1]
    estimate = operator_memory_bytes(size)
    assert size == 400 and estimate == 6 * 16 * 400**2 + OPERATOR_SCRATCH_BYTES
    monkeypatch.setattr(hamiltonian, "_physical_memory_bytes", lambda: 64 * 2**20)
    with pytest.raises(ValueError, match="12 modes .* physical memory"):
        build_many_body_operator(ham, spinful=True)
    hamiltonian._string_tables.cache_clear()  # trace a cold build
    tracemalloc.start()
    try:
        op = build_many_body_operator(ham, spinful=True, sectors=sectors)
        phi = exact_evolution(op, _on_sectors(psi, sectors), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimate
    assert phi.norm() == pytest.approx(1.0, abs=1e-12)
    assert phi.sectors == tuple(sectors) and phi.amplitudes.size == size


@pytest.mark.parametrize("n, size", [(2, 4), (3, 9), (4, 36), (5, 100)])
def test_reference_estimate_bounds_the_traced_peak_of_small_blocks(n, size):
    # the Hartree-Fock blocks of n = 2-5 spinful orbitals (n = 6 is the test
    # above), where the build's scratch floor, not the dense copies, sets
    # the peak
    ham, _ = rotate_to_h_eigenbasis(oracles.random_hamiltonian(n, np.random.default_rng(30)))
    psi = hartree_fock_state(ham, n, spinful=True)
    sectors = _sectors(psi)
    assert _sector_offsets(n, sectors)[-1] == size
    hamiltonian._string_tables.cache_clear()  # trace a cold build
    tracemalloc.start()
    try:
        op = build_many_body_operator(ham, spinful=True, sectors=sectors)
        exact_evolution(op, _on_sectors(psi, sectors), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= operator_memory_bytes(size)


def test_two_electrons_in_eighteen_spinful_orbitals():
    # 36 system modes, 38 extended: the Hartree-Fock state is one cell of its
    # (1, 1) sector's 18 x 18 grid, and the step compiles the 19^2 = 361
    # extended cells of that sector for its 324 columns, where a vector on
    # every basis state would hold 2^36 amplitudes
    rng = np.random.default_rng(36)
    n, m = 18, 19
    vtilde = rng.normal(size=(m, m))
    thc = ThcFactorization(u=random_co_isometry(n, m, rng), vtilde=0.5 * (vtilde + vtilde.T))
    ham = ElectronicHamiltonian(n, 0.0, np.diag(np.sort(rng.normal(size=n))),
                                projected_interaction(thc.u, thc.vtilde))
    tracemalloc.start()
    try:
        psi = hartree_fock_state(ham, 2, spinful=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert psi.sectors == ((1, 1),) and psi.amplitudes.shape == (324,)
    engine = _StepEngine(thc, ham, StepSpec(tau=0.1), _sectors(psi), True)
    assert _sector_offsets(m, engine.sectors)[-1] == 361
    assert engine.dense_unitary().shape == (2 * 324, 324)
    result = evolve(psi, thc, ham, t=0.2, spec=StepSpec(tau=0.1))
    assert result.n_steps == 2
    assert 0.0 < result.error_vs_exact < 1.0


def test_evolve_takes_an_input_on_listed_rows():
    ham, thc = small_instance(31, n=2, m=3)
    listed = hartree_fock_state(ham, 2, spinful=True)  # on its one sector
    psi = oracles.from_register(listed.layout, oracles.to_register(listed))  # on every sector
    full, short = (evolve(state, thc, ham, t=0.2, spec=StepSpec(tau=0.1))
                   for state in (psi, listed))
    assert short.error_vs_exact == full.error_vs_exact
    assert np.array_equal(short.leaked_weight, full.leaked_weight)


def test_one_givens_circuit_per_factorization(monkeypatch):
    ham, thc = small_instance(32, n=2, m=3)
    calls = []

    def counted(u):
        calls.append(u)
        return givens_decompose(u)

    monkeypatch.setattr(algorithm, "givens_decompose", counted)
    algorithm._decompose.cache_clear()
    psi = hartree_fock_state(ham, 2, spinful=True)
    for variant in ("basic", "improved"):
        for tau in (0.1, 0.05):
            evolve(psi, thc, ham, t=0.2, spec=StepSpec(tau=tau, variant=variant))
    copy = ThcFactorization.from_json(thc.to_json())
    assert _givens_circuit(copy) is _givens_circuit(thc)
    assert len(calls) == 1
    assert _givens_circuit(thc).to_json() == givens_decompose(thc.u).to_json()


@pytest.mark.parametrize("spinful", [False, True])
def test_evolve_rejects_mixed_particle_numbers(spinful):
    ham, thc = small_instance(16)
    layout = ModeLayout(2, 0, spinful)
    amps = np.zeros(layout.dim, dtype=complex)
    amps[[0b0001, 0b0011]] = 1 / np.sqrt(2)  # one and two particles
    with pytest.raises(ValueError, match="one particle number"):
        evolve(oracles.from_register(layout, amps), thc, ham, t=0.2, spec=StepSpec(tau=0.1))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_trotter_bound_zero_for_commuting_terms():
    n = 2
    h = np.diag([0.4, -1.1])
    eri = np.zeros((n, n, n, n))
    eri[0, 0, 1, 1] = eri[1, 1, 0, 0] = 0.7
    ham = ElectronicHamiltonian(n, 0.0, h, eri)
    thc = ThcFactorization(u=np.eye(n), vtilde=np.array([[0.0, 0.7], [0.7, 0.0]]))
    assert trotter_bound(ham, thc, StepSpec(tau=0.1)) == pytest.approx(0.0, abs=1e-12)


def test_trotter_bound_is_cubic_in_tau():
    # needs n >= 3: on two spinless modes every two-body operator is
    # diagonal and commutes with a diagonal h
    ham, thc = planted_step_instance(16, n=3, m=4)
    b1 = trotter_bound(ham, thc, StepSpec(tau=0.1))
    b2 = trotter_bound(ham, thc, StepSpec(tau=0.05))
    assert b1 == pytest.approx(8 * b2, rel=1e-12)
    assert b1 > 0


def test_trotter_bound_dominates_measured_splitting_error():
    ham, thc = planted_step_instance(17, n=3, m=4)
    tau = 1e-2
    h_only = ElectronicHamiltonian(3, 0.0, ham.h, np.zeros((3, 3, 3, 3)))
    a = build_many_body_operator(h_only).matrix
    b = build_many_body_operator(_vprime_hamiltonian(thc)).matrix
    split = (
        scipy.linalg.expm(-1j * tau / 2 * a)
        @ scipy.linalg.expm(-1j * tau * b)
        @ scipy.linalg.expm(-1j * tau / 2 * a)
    )
    exact = scipy.linalg.expm(-1j * tau * (a + b))
    measured = np.linalg.norm(split - exact, 2)
    assert measured <= trotter_bound(ham, thc, StepSpec(tau=tau))


def interaction_gap(ham, thc, spinful=False) -> float:
    """The dense operator norm ||V_op - V'_op|| on every system state."""
    n = ham.n_orbitals
    diff = ElectronicHamiltonian(n, 0.0, np.zeros((n, n)),
                                 ham.eri - projected_interaction(thc.u, thc.vtilde))
    return float(np.linalg.norm(build_many_body_operator(diff, spinful=spinful).matrix, 2))


def frobenius_rate(ham, thc) -> float:
    """The element-wise expression N^2 ||V||_2 eps_v."""
    eps_v, _ = approximation_errors(ham, thc)
    return float(ham.n_orbitals**2 * np.linalg.norm(ham.eri.reshape(-1)) * eps_v)


def test_thc_bound_zero_for_exact_factorization():
    ham, _ = small_instance(18)
    thc = exact_factorize(ham, seed=1)  # m = n^2, exact
    assert thc_bound(ham, thc) <= 1e-9


def test_thc_bound_exact_branch_below_frobenius():
    ham = oracles.random_hamiltonian(2, np.random.default_rng(19))
    thc = exact_factorize(ham, m=2, seed=1)  # truncated, inexact
    bound = thc_bound(ham, thc)
    assert bound == pytest.approx(interaction_gap(ham, thc), rel=1e-12)
    assert bound <= frobenius_rate(ham, thc)


def test_thc_bound_falls_back_to_frobenius_past_memory(monkeypatch):
    ham = oracles.random_hamiltonian(2, np.random.default_rng(19))
    thc = exact_factorize(ham, m=2, seed=1)
    exact = thc_bound(ham, thc)
    monkeypatch.setattr(hamiltonian, "_physical_memory_bytes",
                        lambda: operator_memory_bytes(1 << 2) - 1)
    bound = thc_bound(ham, thc)
    assert bound == frobenius_rate(ham, thc)
    assert exact < bound


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), extra=st.integers(0, 3), truncated=st.booleans(),
       spinful=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_thc_bound_is_the_operator_norm_below_the_frobenius_expression(
        n, extra, truncated, spinful, seed):
    # truncated exact factorizations (rank n ... n(n+1)/2 - 1), and random
    # factors: the admitted bound is the dense norm of the interaction
    # difference, and the element-wise expression it falls back to is never
    # below it, so taking the smaller of the two would never pick the latter
    # (one spinful orbital has the one term V_0000 n_up n_down, where the
    # two are equal, so they are compared up to roundoff)
    rng = np.random.default_rng(seed)
    ham = oracles.random_hamiltonian(n, rng)
    if truncated and n > 1:
        thc = exact_factorize(ham, m=n + extra % (n * (n + 1) // 2 - n), seed=seed % 1000)
    else:
        vtilde = rng.normal(size=(n + extra, n + extra))
        thc = ThcFactorization(u=random_co_isometry(n, n + extra, rng),
                               vtilde=0.5 * (vtilde + vtilde.T))
    bound = thc_bound(ham, thc, spinful)
    assert bound == pytest.approx(interaction_gap(ham, thc, spinful), rel=1e-12)
    assert bound <= frobenius_rate(ham, thc) * (1 + 1e-12)


def test_thc_bound_linear_in_time():
    # the bound is a rate per unit time, and the error budget charges it
    # linearly in the evolution time
    ham = oracles.random_hamiltonian(2, np.random.default_rng(20))
    thc = exact_factorize(ham, m=2, seed=2)
    bound = thc_bound(ham, thc)
    assert bound > 0.0
    budget = ErrorBudget(StepSpec(tau=0.1), eps_thc_rate=bound, eps_tr=0.0, eps_pr=0.0)
    assert budget.total(t=2.0) == pytest.approx(2 * budget.total(t=1.0))


# ---------------------------------------------------------------------------
# projection error
# ---------------------------------------------------------------------------

def test_projection_error_vanishes_without_ancillas():
    ham, _ = small_instance(21)
    thc = exact_factorize(ham, m=2, seed=3)  # square u: no ancilla modes
    rho = random_sector_state(ModeLayout(2, 0), 1, np.random.default_rng(8))
    assert projection_error_measured(thc, rho, StepSpec(tau=0.3)) <= 1e-12


@pytest.mark.parametrize("variant,power", [("basic", 2), ("improved", 3)])
def test_projection_error_scaling_ratio_is_stable(variant, power):
    # needs a multi-dimensional interacting sector: in a one-dimensional
    # sector the coherent part of the mismatch is an unobservable phase
    ham, thc = planted_step_instance(22, n=3, m=5)
    rho = random_sector_state(ModeLayout(3, 0), 2, np.random.default_rng(10))
    taus = (0.05, 0.005)
    scaled = [
        projection_error_measured(thc, rho, StepSpec(tau=tau, variant=variant)) / tau**power
        for tau in taus
    ]
    assert scaled[1] == pytest.approx(scaled[0], rel=0.2)


def test_projection_error_bound_dominates_measured():
    ham, thc = small_instance(23, n=2, m=3)
    rng = np.random.default_rng(11)
    for variant in ("basic", "improved"):
        for tau in (0.05, 0.01):
            spec = StepSpec(tau=tau, variant=variant)
            bound = projection_error_bound(thc, spec)
            for n_particles in (1, 2):
                rho = random_sector_state(ModeLayout(2, 0), n_particles, rng)
                measured = projection_error_measured(thc, rho, spec)
                assert measured <= bound + 1e-12


def test_projection_error_methods_agree():
    # the interaction-only step through the Kraus map and through the
    # gate-by-gate full-Fock reference give the same projection error
    _, thc = small_instance(24, n=2, m=3)
    # two particles: one alone feels no two-body phase and never leaks
    rho = random_sector_state(ModeLayout(2, 0), 2, np.random.default_rng(12))
    tau = 0.07
    fused = projection_error_measured(thc, rho, StepSpec(tau=tau))

    v_only = ElectronicHamiltonian(2, 0.0, np.zeros((2, 2)),
                                   projected_interaction(thc.u, thc.vtilde))
    engine = _StepEngine(thc, v_only, StepSpec(tau=tau), system_sectors(2, False), False)
    layout = engine.layout
    start = oracles.density(oracles.to_register(rho))
    extended = oracles.embed_in_ancilla_vacuum(start, layout)
    stepped, _ = oracles.full_fock_step(oracles.full_step_unitary(engine), extended, layout)
    ideal = oracles.evolve_density(build_many_body_operator(v_only, spinful=False), start, tau)
    gates = oracles.trace_distance(oracles.system_density(stepped, layout), ideal)
    assert fused == pytest.approx(gates, abs=1e-12)


# ---------------------------------------------------------------------------
# the three-error decomposition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [101, 102, 103])
def test_one_step_error_within_three_error_budget(seed):
    ham, thc = small_instance(seed, n=2, m=2)  # truncated rank: real THC error
    tau = 1e-2
    psi = random_sector_state(ModeLayout(2, 0), 2, np.random.default_rng(seed))
    spec = StepSpec(tau=tau)
    measured = evolve(psi, thc, ham, t=tau, spec=spec).error_vs_exact
    assert measured <= error_budget(ham, thc, spec, psi=psi).total(tau) + 1e-9


def test_error_budget_measures_the_projection_after_the_one_body_half_step():
    # the interaction block acts on e^{-i h tau/2} psi: measured on psi
    # itself, the projection term leaves this budget at 7.450e-3, below the
    # one-step error of 8.234e-3
    ham, thc = planted_step_instance(4, n=3, m=5)
    psi = random_sector_state(ModeLayout(3, 0), 2, np.random.default_rng(4))
    spec = StepSpec(tau=0.3)
    measured = evolve(psi, thc, ham, t=0.3, spec=spec).error_vs_exact
    budget = error_budget(ham, thc, spec, psi=psi)
    assert measured <= budget.total(0.3)
    assert measured == pytest.approx(8.234e-3, rel=1e-3)
    assert budget.total(0.3) == pytest.approx(8.474e-3, rel=1e-3)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 3), extra=st.integers(0, 2), spinful=st.booleans(),
       variant=st.sampled_from(["basic", "improved"]), seed=st.integers(0, 2**32 - 1))
def test_error_budget_half_step_matches_the_register_oracle(n, extra, spinful, variant, seed):
    # the budget's half-step phases, the step engine's per-cell one-body
    # phases, against the register kernel of the test oracles
    ham, thc = planted_step_instance(seed, n, n + extra)
    system = ModeLayout(n, 0, spinful)
    rng = np.random.default_rng(seed)
    psi = random_sector_state(system, int(rng.integers(1, system.n_modes + 1)), rng)
    spec = StepSpec(tau=float(rng.uniform(0.01, 0.5)), variant=variant)
    budget = error_budget(ham, thc, spec, psi=psi, spinful=spinful)
    half = oracles.diagonal_one_body(psi, np.tile(np.diag(ham.h), system.n_sectors), spec.tau / 2)
    assert budget.eps_pr == pytest.approx(projection_error_measured(thc, half, spec),
                                          rel=1e-9, abs=1e-14)


def test_error_budget_refuses_a_state_of_the_other_spin_layout():
    # a spinful state with the spinless default would bound the Trotter
    # error on the wrong register (0.0 for H2, against 2.68e-5 spinful)
    ham, thc = h2_best_exact_thc()
    psi = hartree_fock_state(ham, 2, spinful=True)
    with pytest.raises(ValueError, match="spinful"):
        error_budget(ham, thc, StepSpec(tau=0.1), psi=psi)
    budget = error_budget(ham, thc, StepSpec(tau=0.1), psi=psi, spinful=True)
    assert budget.eps_tr == pytest.approx(2.68e-5, rel=1e-2)


def test_error_budget_refuses_a_hamiltonian_of_another_size():
    ham, thc = small_instance(25, n=2, m=3)
    with pytest.raises(ValueError, match="does not match the factorization"):
        error_budget(oracles.random_hamiltonian(3, np.random.default_rng(0)), thc,
                     StepSpec(tau=0.05))


def test_error_budget_assembles_components():
    ham, thc = small_instance(25, n=2, m=3)
    spec = StepSpec(tau=0.05)
    psi = random_sector_state(ModeLayout(2, 0), 1, np.random.default_rng(13))
    with_state = error_budget(ham, thc, spec, psi=psi)
    without = error_budget(ham, thc, spec)
    assert with_state.spec == without.spec == spec
    assert with_state.eps_tr == pytest.approx(without.eps_tr)
    assert with_state.eps_thc_rate == pytest.approx(without.eps_thc_rate)
    assert with_state.eps_pr <= without.eps_pr + 1e-12  # measured below the bound


# ---------------------------------------------------------------------------
# phase identities
# ---------------------------------------------------------------------------

def test_phase_cancellation_sums_vanish_at_default_phases():
    sums = phase_cancellation_sums(DEFAULT_PHASES)
    assert len(sums) == 4
    for value in sums:
        assert abs(value) < 1e-12


def test_phase_cancellation_sums_nonzero_for_generic_phases():
    sums = phase_cancellation_sums((0.3, 0.4, 0.5))
    assert all(abs(value) > 1e-3 for value in sums)
