import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from isothc.focksim import (
    FockState,
    GivensRotation,
    ModeLayout,
    basis_state,
    exact_evolution,
    givens_decompose,
)
from isothc.hamiltonian import ManyBodyOperator, build_many_body_operator

import oracles
from oracles import (
    RowState,
    RowTables,
    apply_basis_rotation,
    apply_diagonal_one_body,
    apply_diagonal_two_body,
    density,
    phase_on_ancillas,
    reset_ancillas,
    trace_distance,
)

_rng = np.random.default_rng(77)


def rotate(state, seq, inverse=False):
    return apply_basis_rotation(state, seq, RowTables(state), inverse=inverse)


def random_orthogonal(m: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(m, m)))
    return q * np.sign(np.diag(r))


def random_pure_density(layout: ModeLayout, rng) -> np.ndarray:
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    amps /= np.linalg.norm(amps)
    return density(amps)


# ---------------------------------------------------------------------------
# layouts and states
# ---------------------------------------------------------------------------

def test_spinful_layout_mode_placement():
    layout = ModeLayout(n_system=2, n_ancilla=1, spinful=True)
    assert layout.n_modes == 6
    assert oracles.system_modes(layout) == (0, 1, 3, 4)
    assert oracles.ancilla_modes(layout) == (2, 5)


def test_mode_caps():
    # the state types carry no fixed mode cap; register size is admitted by
    # estimated memory where the large arrays are built
    state = FockState(ModeLayout(21, 0), np.zeros(1 << 21, dtype=complex))
    assert state.amplitudes.shape == (1 << 21,)
    # the shape check stays
    with pytest.raises(ValueError, match="does not match"):
        FockState(ModeLayout(21, 0), np.zeros(1))


def test_basis_state_bit_order():
    layout = ModeLayout(3, 0)
    state = basis_state(layout, "110")
    assert oracles.to_register(state)[0b011] == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2), st.booleans(), st.data())
def test_basis_state_is_one_cell_of_its_sector(n_system, n_ancilla, spinful, data):
    # the closed-form colex rank against the cell the register embedding
    # lists for the same basis index, with no 2^M array
    layout = ModeLayout(n_system, n_ancilla, spinful)
    occupations = data.draw(st.lists(st.integers(0, 1), min_size=layout.n_modes,
                                     max_size=layout.n_modes))
    state = basis_state(layout, occupations)
    m = layout.sector_size
    counts = tuple(sum(occupations[s * m:(s + 1) * m]) for s in range(layout.n_sectors))
    assert state.sectors == (counts,)
    index = sum(bit << k for k, bit in enumerate(occupations))
    expected = (oracles.register_order(layout, [counts]) == index).astype(complex)
    assert np.array_equal(state.amplitudes, expected)


def test_embed_and_restrict_round_trip():
    layout = ModeLayout(2, 1, spinful=True)
    rho_sys = random_pure_density(layout.system_only(), _rng)
    rho_ext = oracles.embed_in_ancilla_vacuum(rho_sys, layout)
    assert np.trace(rho_ext).real == pytest.approx(1.0)
    back = oracles.system_density(rho_ext, layout)
    assert_allclose(back, rho_sys, atol=1e-12)


# ---------------------------------------------------------------------------
# Givens decomposition
# ---------------------------------------------------------------------------

def test_givens_decompose_rejects_bad_rows():
    with pytest.raises(ValueError, match="orthonormal"):
        givens_decompose(np.array([[1.0, 1.0, 0.0]]))
    with pytest.raises(ValueError, match="n <= m"):
        givens_decompose(np.eye(3)[:, :2])


def test_givens_decompose_identity_is_empty():
    seq = givens_decompose(np.eye(4)[:2])
    assert len(seq.rotations) == 0
    assert_allclose(seq.diagonal_phases, 0.0)


@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (2, 4), (3, 5), (4, 4)])
def test_givens_decompose_reconstructs_block(n, m):
    w = random_orthogonal(m, _rng)
    seq = givens_decompose(w[:n])
    assert len(seq.rotations) <= m * (m - 1) // 2 - (m - n) * (m - n - 1) // 2
    for r in seq.rotations:
        assert r.q == r.p + 1
    q = oracles.single_particle_matrix(seq)
    assert_allclose(q[:, :n], w[:n, :].T, atol=1e-8)
    assert_allclose(q @ q.conj().T, np.eye(m), atol=1e-10)


def test_givens_sequence_json_round_trip():
    w = random_orthogonal(4, _rng)
    seq = givens_decompose(w[:2])
    back = oracles.givens_sequence_from_json(seq.to_json())
    assert back.rotations == seq.rotations
    assert_allclose(back.diagonal_phases, seq.diagonal_phases)


def test_givens_rotation_requires_adjacent_modes():
    with pytest.raises(ValueError, match="adjacent"):
        GivensRotation(0, 2, 0.3)


# ---------------------------------------------------------------------------
# applying rotations
# ---------------------------------------------------------------------------

def test_rotation_single_particle_action_matches_matrix():
    m = 4
    w = random_orthogonal(m, _rng)
    seq = givens_decompose(w)
    layout = ModeLayout(m, 0)
    q = oracles.single_particle_matrix(seq)
    for p in range(m):
        state = oracles.register_state(basis_state(layout, [1 if k == p else 0 for k in range(m)]))
        rotated = rotate(state, seq)
        amps = np.array([rotated.amplitudes[1 << k] for k in range(m)])
        assert_allclose(amps, q[:, p], atol=1e-10)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_rotation_matches_exponentiated_generator(m):
    # circuit versus exp(sum_pq log(Q)_pq a+_p a_q) built by the string oracle
    w = random_orthogonal(m, _rng)
    seq = givens_decompose(w)
    q = oracles.single_particle_matrix(seq)
    generator = scipy.linalg.logm(q)
    big_u = scipy.linalg.expm(oracles.dense_quadratic(m, generator))
    layout = ModeLayout(m, 0)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    amps /= np.linalg.norm(amps)
    state = RowState(layout, amps)
    rotated = rotate(state, seq)
    assert_allclose(rotated.amplitudes, big_u @ amps, atol=1e-9)


def test_rotation_swap_exchanges_occupations():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    seq = givens_decompose(w[:2])
    layout = ModeLayout(2, 0)
    out = rotate(oracles.register_state(basis_state(layout, "10")), seq)
    assert abs(out.amplitudes[0b10]) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rotation_unitary_and_invertible(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    seq = givens_decompose(random_orthogonal(m, rng)[: m - 1])
    layout = ModeLayout(m - 1, 1)
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    amps /= np.linalg.norm(amps)
    state = RowState(layout, amps)
    rotated = rotate(state, seq)
    assert rotated.norm() == pytest.approx(1.0, abs=1e-12)
    undone = rotate(rotated, seq, inverse=True)
    assert_allclose(undone.amplitudes, amps, atol=1e-10)


def test_kernels_act_column_by_column_on_blocks():
    # a square block, where broadcasting along the wrong axis would not raise
    layout = ModeLayout(2, 1, spinful=True)
    rng = np.random.default_rng(31)
    block = rng.normal(size=(layout.dim, layout.dim)) + 0j
    seq = givens_decompose(random_orthogonal(3, rng)[:2])
    vtilde = rng.normal(size=(3, 3))
    kernels = [
        lambda s: rotate(s, seq),
        lambda s: rotate(s, seq, inverse=True),
        lambda s: apply_diagonal_one_body(s, np.linspace(-0.5, 0.5, 6), 0.7),
        lambda s: apply_diagonal_two_body(s, vtilde, 0.4),
        lambda s: phase_on_ancillas(s, 0.9),
    ]
    for kernel in kernels:
        together = kernel(RowState(layout, block)).amplitudes
        apart = [kernel(RowState(layout, block[:, j])).amplitudes
                 for j in range(block.shape[1])]
        assert_allclose(together, np.stack(apart, axis=1), atol=1e-12)


def test_kernels_on_sector_rows_match_full_basis():
    # a block listing only the rows of one (N_up, N_down) sector gets, bit
    # for bit, the rows of the same block on every basis state, which stays
    # zero elsewhere because every kernel conserves each spin's particle number
    layout = ModeLayout(2, 2, spinful=True)
    rng = np.random.default_rng(32)
    rows = np.array([x for x in range(layout.dim)
                     if bin(x & 0b1111).count("1") == 2 and bin(x >> 4).count("1") == 1])
    block = np.zeros((layout.dim, 3), dtype=complex)
    block[rows] = rng.normal(size=(rows.size, 3)) + 1j * rng.normal(size=(rows.size, 3))
    seq = givens_decompose(random_orthogonal(4, rng)[:2])
    vtilde = rng.normal(size=(4, 4))
    kernels = [
        lambda s: rotate(s, seq),
        lambda s: rotate(s, seq, inverse=True),
        lambda s: apply_diagonal_one_body(s, np.linspace(-0.5, 0.5, 8), 0.7),
        lambda s: apply_diagonal_two_body(s, vtilde, 0.4),
        lambda s: phase_on_ancillas(s, 0.9),
    ]
    for kernel in kernels:
        full = kernel(RowState(layout, block)).amplitudes
        sector = kernel(RowState(layout, block[rows], rows))
        assert np.array_equal(sector.rows, rows)
        assert np.array_equal(sector.amplitudes, full[rows])
        assert not np.any(np.delete(full, rows, axis=0))
    with pytest.raises(ValueError, match="ascending"):
        RowState(layout, block[rows[::-1]], rows[::-1])
    with pytest.raises(ValueError, match="closed"):
        rotate(RowState(layout, block[rows[1:]], rows[1:]), seq)


def test_row_tables_serve_a_chain_of_kernels_and_refuse_other_rows(monkeypatch):
    layout = ModeLayout(2, 2, spinful=True)
    rng = np.random.default_rng(33)
    seq = givens_decompose(random_orthogonal(4, rng)[:2])
    vtilde = rng.normal(size=(4, 4))
    state = RowState(layout, rng.normal(size=layout.dim) + 0j)
    tables = RowTables(state)
    lookups = []
    pair_indices = oracles._pair_indices
    monkeypatch.setattr(oracles, "_pair_indices",
                        lambda rows, p, q: lookups.append((p, q)) or pair_indices(rows, p, q))
    out = apply_basis_rotation(state, seq, tables)
    out = apply_diagonal_two_body(out, vtilde, 0.4)
    out = apply_basis_rotation(out, seq, tables, inverse=True)
    # each mode pair of either spin is looked up once over both rotations
    pairs = {(r.p + off, r.q + off) for r in seq.rotations for off in (0, 4)}
    assert sorted(lookups) == sorted(pairs)
    untabled = apply_diagonal_two_body(rotate(state, seq), vtilde, 0.4)
    assert np.array_equal(out.amplitudes, rotate(untabled, seq, inverse=True).amplitudes)
    # equal rows of another state still need their own tables
    other = RowState(layout, state.amplitudes)
    with pytest.raises(ValueError, match="another state"):
        apply_basis_rotation(other, seq, tables)


# ---------------------------------------------------------------------------
# diagonal evolutions
# ---------------------------------------------------------------------------

def test_one_body_phase_on_occupied_mode():
    layout = ModeLayout(1, 0)
    state = oracles.register_state(basis_state(layout, "1"))
    out = apply_diagonal_one_body(state, np.array([0.7]), tau=2.0)
    assert out.amplitudes[1] == pytest.approx(np.exp(-1.4j), abs=1e-12)


def test_two_body_phase_single_pair_spinless():
    layout = ModeLayout(2, 0)
    vtilde = np.array([[0.0, 0.3], [0.3, 0.0]])
    out = apply_diagonal_two_body(oracles.register_state(basis_state(layout, "11")), vtilde,
                                  tau=1.0)
    assert out.amplitudes[0b11] == pytest.approx(np.exp(-0.3j), abs=1e-12)
    single = apply_diagonal_two_body(oracles.register_state(basis_state(layout, "10")), vtilde,
                                     tau=1.0)
    assert single.amplitudes[0b01] == pytest.approx(1.0, abs=1e-12)


def test_two_body_phase_diagonal_entry_spinful_only():
    vtilde = np.array([[0.4]])
    spinless = apply_diagonal_two_body(
        oracles.register_state(basis_state(ModeLayout(1, 0), "1")), vtilde, tau=1.0
    )
    assert spinless.amplitudes[1] == pytest.approx(1.0, abs=1e-12)
    doubly = apply_diagonal_two_body(
        oracles.register_state(basis_state(ModeLayout(1, 0, spinful=True), "11")), vtilde,
        tau=1.0
    )
    assert doubly.amplitudes[0b11] == pytest.approx(np.exp(-0.4j), abs=1e-12)


@pytest.mark.parametrize("spinful", [False, True])
def test_two_body_phase_matches_string_oracle(spinful):
    layout = ModeLayout(2, 1, spinful=spinful)
    m = layout.sector_size
    a = _rng.normal(size=(m, m))
    vtilde = 0.5 * (a + a.T)
    pair_coefficients = {}
    modes_of = lambda a_, s_: a_ + s_ * m
    for a_ in range(m):
        for b_ in range(m):
            for s_ in range(layout.n_sectors):
                for t_ in range(layout.n_sectors):
                    if (a_, s_) == (b_, t_):
                        continue
                    key = (modes_of(a_, s_), modes_of(b_, t_))
                    pair_coefficients[key] = pair_coefficients.get(key, 0.0) + 0.5 * vtilde[a_, b_]
    dense = oracles.dense_mode_diagonal_interaction(layout.n_modes, pair_coefficients)
    tau = 0.37
    expected = scipy.linalg.expm(-1j * tau * dense)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    amps /= np.linalg.norm(amps)
    out = apply_diagonal_two_body(RowState(layout, amps), vtilde, tau)
    assert_allclose(out.amplitudes, expected @ amps, atol=1e-10)


def test_phase_on_ancillas_counts_occupations():
    layout = ModeLayout(1, 1, spinful=True)  # modes: a0, b0, a1, b1
    state = oracles.register_state(basis_state(layout, "0101"))
    out = phase_on_ancillas(state, 0.25)
    assert out.amplitudes[0b1010] == pytest.approx(np.exp(0.5j), abs=1e-12)


# ---------------------------------------------------------------------------
# ancilla reset
# ---------------------------------------------------------------------------

def test_reset_sends_occupied_ancilla_to_vacuum():
    layout = ModeLayout(1, 1)
    rho = density(oracles.to_register(basis_state(layout, "11")))
    out = reset_ancillas(rho, layout)
    expected = density(oracles.to_register(basis_state(layout, "10")))
    assert_allclose(out, expected, atol=1e-12)


def test_reset_is_identity_on_vacuum_supported_states():
    layout = ModeLayout(2, 1, spinful=True)
    rho_a = random_pure_density(layout.system_only(), _rng)
    rho = oracles.embed_in_ancilla_vacuum(rho_a, layout)
    out = reset_ancillas(rho, layout)
    assert_allclose(out, rho, atol=1e-12)


def test_reset_matches_product_state_partial_trace():
    layout = ModeLayout(1, 1, spinful=True)
    rng = np.random.default_rng(11)
    rho_a = random_pure_density(ModeLayout(1, 0, spinful=True), rng)
    diag_b = rng.uniform(size=4)
    diag_b /= diag_b.sum()
    # assemble rho_a x rho_b respecting the interleaved mode placement
    full = np.zeros((16, 16), dtype=complex)
    for xa in range(4):
        for ya in range(4):
            for xb in range(4):
                scatter = lambda a, b: (a & 1) | ((b & 1) << 1) | ((a >> 1) << 2) | ((b >> 1) << 3)
                full[scatter(xa, xb), scatter(ya, xb)] += rho_a[xa, ya] * diag_b[xb]
    # a generic rho_a mixes particle parities, so silence the diagnostic
    out = reset_ancillas(full, layout, parity_check=False)
    expected = oracles.embed_in_ancilla_vacuum(rho_a, layout)
    assert_allclose(out, expected, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reset_preserves_trace_and_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    layout = ModeLayout(2, 1)
    # number-conserving random mixture, the regime the channel is used in
    rho = np.zeros((layout.dim, layout.dim), dtype=complex)
    for n_particles in range(layout.n_modes + 1):
        sector = oracles.sector_indices(layout.n_modes, n_particles)
        vec = rng.normal(size=layout.dim) * np.isin(np.arange(layout.dim), sector)
        vec = vec + 0j
        if np.linalg.norm(vec) > 0:
            vec /= np.linalg.norm(vec)
            rho += rng.uniform() * np.outer(vec, vec.conj())
    rho /= np.trace(rho).real
    out = reset_ancillas(rho, layout)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
    again = reset_ancillas(out, layout)
    assert_allclose(again, out, atol=1e-12)


def test_reset_warns_on_parity_mixing_coherence():
    layout = ModeLayout(1, 1)
    amps = np.zeros(4, dtype=complex)
    # (|0> + |1>)_a |1>_b: a-coherence across parities with the ancilla occupied,
    # where the occupation-basis trace and the fermionic channel disagree
    amps[0b10] = 1 / np.sqrt(2)
    amps[0b11] = 1 / np.sqrt(2)
    with pytest.warns(UserWarning, match="parity"):
        reset_ancillas(density(amps), layout)


def test_reset_silent_on_ancilla_diagonal_coherence():
    layout = ModeLayout(1, 1)
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = 1 / np.sqrt(2)  # vacuum
    amps[0b11] = 1 / np.sqrt(2)  # one particle in a, one in b
    # the only cross terms connect different ancilla configurations, which
    # both trace conventions discard identically
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = reset_ancillas(density(amps), layout)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# distances and exact evolution
# ---------------------------------------------------------------------------

def test_trace_distance_extremes():
    layout = ModeLayout(2, 0)
    a = density(oracles.to_register(basis_state(layout, "10")))
    b = density(oracles.to_register(basis_state(layout, "01")))
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
)
def test_trace_distance_two_level_formula(p, q):
    rho = np.diag([p, 1 - p]).astype(complex)
    sigma = np.diag([q, 1 - q]).astype(complex)
    assert trace_distance(rho, sigma) == pytest.approx(abs(p - q), abs=1e-12)


def test_trace_distance_dimension_mismatch():
    with pytest.raises(ValueError, match="register"):
        trace_distance(density(oracles.to_register(basis_state(ModeLayout(1, 0), "1"))),
                       density(oracles.to_register(basis_state(ModeLayout(2, 0), "10"))))


def test_exact_evolution_single_mode_phase():
    layout = ModeLayout(1, 0)
    op = ManyBodyOperator(1, False, np.diag([0.0, 0.9]).astype(complex))
    state = oracles.from_register(layout, oracles.to_register(basis_state(layout, "1")))
    out = exact_evolution(op, state, t=2.0)
    assert out.amplitudes[1] == pytest.approx(np.exp(-1.8j), abs=1e-12)


def test_exact_evolution_matches_expm():
    H = oracles.random_hamiltonian(3, _rng)
    dense = oracles.dense_hamiltonian(H, spinful=False)
    layout = ModeLayout(3, 0)
    order = oracles.register_order(layout)
    op = ManyBodyOperator(3, False, dense[np.ix_(order, order)])
    rng = np.random.default_rng(2)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    out = exact_evolution(op, oracles.from_register(layout, amps), t=0.83)
    expected = scipy.linalg.expm(-0.83j * dense) @ amps
    assert_allclose(oracles.to_register(out), expected, atol=1e-10)
    rho_out = oracles.evolve_density(op, density(amps), t=0.83)
    assert_allclose(rho_out, density(expected), atol=1e-10)


def test_exact_evolution_dimension_mismatch():
    op = ManyBodyOperator(2, False, np.zeros((4, 4), dtype=complex))
    with pytest.raises(ValueError, match="modes"):
        exact_evolution(op, basis_state(ModeLayout(1, 0), "1"), 1.0)


def test_exact_evolution_refuses_a_state_on_other_rows():
    H = oracles.random_hamiltonian(2, _rng)
    layout = ModeLayout(2, 0, spinful=True)
    one_each = [(1, 1)]  # one electron per spin
    op = build_many_body_operator(H, spinful=True, sectors=one_each)
    state = FockState(layout, np.eye(4)[0], one_each)
    out = exact_evolution(op, state, 0.3)
    assert out.sectors == ((1, 1),)
    every = oracles.from_register(layout, oracles.to_register(basis_state(layout, "1010")))
    full = exact_evolution(build_many_body_operator(H, spinful=True), every, 0.3)
    assert_allclose(out.amplitudes,
                    oracles.to_register(full)[[0b0101, 0b0110, 0b1001, 0b1010]], atol=1e-12)
    # the basis state of the sector's first cell lives on that sector alone
    assert np.array_equal(exact_evolution(op, basis_state(layout, "1010"), 0.3).amplitudes,
                          out.amplitudes)
    # four cells of other sectors, and every sector
    other_sectors = FockState(layout, np.eye(4)[0], [(0, 1), (1, 0)])
    for other in (other_sectors, every):
        with pytest.raises(ValueError, match="operator's sectors"):
            exact_evolution(op, other, 0.3)
    with pytest.raises(ValueError, match="operator's sectors"):
        exact_evolution(build_many_body_operator(H, spinful=True), state, 0.3)
