import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from isothc import hamiltonian
from isothc.focksim import ModeLayout
from isothc.hamiltonian import (
    ElectronicHamiltonian,
    FcidumpError,
    build_many_body_operator,
    ground_state_energy,
    operator_memory_bytes,
    parse_fcidump,
    rotate_to_h_eigenbasis,
    write_fcidump,
)

import oracles

_rng = np.random.default_rng(20240811)


def test_single_orbital_spinful_matrix():
    e, v = -0.7, 0.4
    H = ElectronicHamiltonian(1, 0.0, np.array([[e]]), np.full((1, 1, 1, 1), v))
    op = build_many_body_operator(H, spinful=True)
    assert op.n_modes == 2
    expected = np.diag([0.0, e, e, 2 * e + v])
    assert_allclose(op.matrix, expected, atol=1e-12)


def test_two_level_one_electron_ground_state():
    h = np.diag([-1.0, 1.0])
    H = ElectronicHamiltonian(2, 0.0, h, np.zeros((2, 2, 2, 2)))
    assert ground_state_energy(H, n_electrons=1) == pytest.approx(-1.0, abs=1e-12)


# n = 4 spinful and n = 5 spinless hold strings of two or more particles
# whose itertools.combinations order is not ascending
@pytest.mark.parametrize("n,spinful", [(1, False), (2, False), (3, False), (2, True),
                                       (4, True), (5, False)])
def test_operator_matches_string_oracle(n, spinful):
    H = oracles.random_hamiltonian(n, _rng)
    op = build_many_body_operator(H, spinful=spinful)
    assert_allclose(op.matrix, oracles.dense_hamiltonian(H, spinful), atol=1e-10)


@pytest.mark.parametrize("n,n_elec,spinful", [(3, 2, False), (2, 2, True), (3, 1, False)])
def test_ground_state_matches_full_ci_oracle(n, n_elec, spinful):
    H = oracles.random_hamiltonian(n, _rng)
    expected = oracles.full_ci_ground_energy(H, n_elec, spinful)
    assert ground_state_energy(H, n_elec, spinful=spinful) == pytest.approx(
        expected, abs=1e-10
    )


def test_registers_past_63_modes_are_refused_by_their_mode_count():
    # int64 basis indices hold modes 0 .. 62: mode 63's bit would wrap to -2**63
    limit = "64 modes exceed the 63-mode limit of int64 basis indices"
    with pytest.raises(ValueError, match=limit):
        ground_state_energy(oracles.random_hamiltonian(32, np.random.default_rng(0)), 1,
                            spinful=True)
    with pytest.raises(ValueError, match=limit):
        hamiltonian._sector_states(32, [(1, 0)])
    for layout in ((32, 0, True), (31, 1, True), (60, 4, False)):
        with pytest.raises(ValueError, match=limit):
            ModeLayout(*layout)
    assert ModeLayout(62, 1).n_modes == hamiltonian.MAX_MODES == 63
    top = hamiltonian._sector_states(63, [(1,)])
    assert top.size == 63 and top[-1] == 1 << 62


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_operator_is_hermitian_and_number_conserving(n, seed):
    H = oracles.random_hamiltonian(n, np.random.default_rng(seed))
    op = build_many_body_operator(H)
    assert_allclose(op.matrix, op.matrix.conj().T, atol=1e-12)
    weights = np.array([bin(x).count("1") for x in range(2**n)])
    number = np.diag(weights.astype(float))
    assert_allclose(op.matrix @ number, number @ op.matrix, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_operator_matches_string_oracle_with_core_energy(spinful, n, seed):
    n = min(n, 3) if spinful else n
    rng = np.random.default_rng(seed)
    drawn = oracles.random_hamiltonian(n, rng)
    core = float(rng.uniform(-2.0, 2.0)) or 1.0
    H = ElectronicHamiltonian(n, core, drawn.h, drawn.eri)
    op = build_many_body_operator(H, spinful=spinful)
    assert op.matrix.dtype == complex
    assert_allclose(op.matrix, oracles.dense_hamiltonian(H, spinful), rtol=0, atol=1e-12)


def test_mode_cap_enforced(monkeypatch):
    # the register-size rule: estimated bytes against physical memory, charged
    # on the basis states the operator is built on: all 16 of 4 modes, or the
    # 6 of two electrons for the ground state
    H = oracles.random_hamiltonian(2, _rng)
    full, pairs = operator_memory_bytes(16), operator_memory_bytes(6)

    def no_build(n, k):
        raise AssertionError("string tables built for a refused register")

    monkeypatch.setattr(hamiltonian, "_string_tables", no_build)
    monkeypatch.setattr(hamiltonian, "_physical_memory_bytes", lambda: pairs - 1)
    with pytest.raises(ValueError, match="4 modes .* physical memory"):
        build_many_body_operator(H, spinful=True)
    with pytest.raises(ValueError, match="4 modes .* physical memory"):
        ground_state_energy(H, 2, spinful=True)
    monkeypatch.undo()
    # the two-electron block fits where the full operator does not
    monkeypatch.setattr(hamiltonian, "_physical_memory_bytes", lambda: full - 1)
    with pytest.raises(ValueError, match="4 modes .* physical memory"):
        build_many_body_operator(H, spinful=True)
    assert ground_state_energy(H, 2, spinful=True) == pytest.approx(
        oracles.full_ci_ground_energy(H, 2, True), abs=1e-10)
    monkeypatch.setattr(hamiltonian, "_physical_memory_bytes", lambda: full)
    op = build_many_body_operator(H, spinful=True)
    assert_allclose(op.matrix, oracles.dense_hamiltonian(H, spinful=True), atol=1e-10)


@pytest.mark.parametrize("n, n_electrons, size", [(8, 2, 120), (12, 2, 276), (16, 2, 496),
                                                  (16, 1, 32)])
def test_operator_estimate_bounds_the_traced_peak_of_many_modes(n, n_electrons, size):
    # few electrons in many modes: each string has many excitations, so the
    # build's term arrays (k(n - k) + k excitations per string, squared for
    # the two-body terms of one spin) hold more entries than the block
    H = oracles.random_hamiltonian(n, np.random.default_rng(0))
    hamiltonian._string_tables.cache_clear()  # trace a cold build
    tracemalloc.start()
    try:
        ground_state_energy(H, n_electrons, spinful=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= operator_memory_bytes(size)


def test_string_table_cache_keeps_at_most_eight_tables():
    # tables outside every memory estimate stay alive in the cache; a run
    # reads four of them, so eight bound what a sweep leaves behind
    hamiltonian._string_tables.cache_clear()
    for n in (6, 7, 8, 9, 10):
        for k in (1, 2):
            hamiltonian._string_tables(n, k)
    assert hamiltonian._string_tables.cache_info().currsize <= 8


def sector_rows(n_modes: int, size: int, sectors) -> np.ndarray:
    """Every basis state of ``n_modes`` modes whose per-spin particle counts
    (``size`` modes per spin) are one of ``sectors``, by brute force."""
    states = np.arange(1 << n_modes)
    counts = [[bin((x >> (spin * size)) & ((1 << size) - 1)).count("1")
               for spin in range(n_modes // size)] for x in states]
    return states[[tuple(c) in sectors for c in counts]]


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_sector_build_is_the_block_of_the_full_build(spinful, n, seed, data):
    rng = np.random.default_rng(seed)
    drawn = oracles.random_hamiltonian(n, rng)
    H = ElectronicHamiltonian(n, float(rng.uniform(-2.0, 2.0)), drawn.h, drawn.eri)
    full = build_many_body_operator(H, spinful=spinful)
    assert_allclose(full.matrix, oracles.dense_hamiltonian(H, spinful), rtol=0, atol=1e-12)
    every = [(a, b) for a in range(n + 1) for b in range(n + 1)] if spinful else [
        (a,) for a in range(n + 1)]
    sectors = data.draw(st.lists(st.sampled_from(every), min_size=1, unique=True))
    rows = sector_rows(full.n_modes, n, set(sectors))
    op = build_many_body_operator(H, spinful=spinful, rows=rows)
    assert np.array_equal(op.rows, rows)
    assert np.array_equal(op.matrix, full.matrix[np.ix_(rows, rows)])
    # the default rows are every basis state, as listed rows too
    assert np.array_equal(full.rows, np.arange(1 << full.n_modes))
    listed = build_many_body_operator(H, spinful=spinful, rows=full.rows)
    assert np.array_equal(listed.matrix, full.matrix)


def test_operator_rows_must_hold_whole_sectors():
    H = oracles.random_hamiltonian(3, _rng)
    # the (1, 1) sector of 3 spinful orbitals holds 9 states; drop one
    rows = hamiltonian._sector_states(3, [(1, 0), (1, 1)])
    with pytest.raises(ValueError, match=r"8 of the 9 states of the sector \(1, 1\)"):
        build_many_body_operator(H, spinful=True, rows=np.delete(rows, 5))
    with pytest.raises(ValueError, match=r"1 of the 3 states of the sector \(2,\)"):
        build_many_body_operator(H, rows=np.array([3]))
    assert build_many_body_operator(H, spinful=True, rows=rows).matrix.shape == (12, 12)


def test_operator_rows_must_ascend():
    H = oracles.random_hamiltonian(2, _rng)
    for rows in ([1, 0], [0, 0, 1], [0, 4], [[0, 1]]):
        with pytest.raises(ValueError, match="ascending"):
            build_many_body_operator(H, rows=np.array(rows))


def test_rotation_diagonalizes_h_and_preserves_spectrum():
    H = oracles.random_hamiltonian(3, _rng)
    rotated, basis = rotate_to_h_eigenbasis(H)
    off = rotated.h - np.diag(np.diag(rotated.h))
    assert np.max(np.abs(off)) < 1e-10
    assert_allclose(basis @ basis.T, np.eye(3), atol=1e-12)
    e0 = ground_state_energy(H, 2)
    e0_rot = ground_state_energy(rotated, 2)
    assert e0_rot == pytest.approx(e0, abs=1e-10)


def test_rotation_of_diagonal_h_is_a_signed_permutation():
    h = np.diag([0.3, -1.2, 0.5])
    H = ElectronicHamiltonian(3, 0.0, h, np.zeros((3,) * 4))
    rotated, basis = rotate_to_h_eigenbasis(H)
    assert_allclose(np.abs(basis), np.eye(3)[:, np.argsort(np.diag(h))], atol=1e-12)
    assert_allclose(np.sort(np.diag(rotated.h)), np.sort(np.diag(h)), atol=1e-12)


# ---------------------------------------------------------------------------
# FCIDUMP round trips and error handling
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_fcidump_round_trip(n, seed):
    H = oracles.random_hamiltonian(n, np.random.default_rng(seed))
    text = write_fcidump(H)
    back = parse_fcidump(text)
    assert back.n_orbitals == n
    assert_allclose(back.h, H.h, atol=1e-12)
    assert_allclose(back.eri, H.eri, atol=1e-12)
    assert back.core_energy == pytest.approx(H.core_energy, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_rotated_integrals_have_the_exact_eightfold_symmetry(n, seed):
    # bit for bit, not to a tolerance: factorize and simulate read this tensor
    # as it is, and nothing downstream symmetrizes it again
    rotated, _ = rotate_to_h_eigenbasis(oracles.random_hamiltonian(n, np.random.default_rng(seed)))
    for perm in [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
                 (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)]:
        assert np.array_equal(rotated.eri, rotated.eri.transpose(perm)), perm


def test_parse_expands_eightfold_symmetry():
    text = "\n".join(
        [
            "&FCI NORB=2,NELEC=2,MS2=0,&END",
            " 0.5  1 1 1 1",
            " 0.25 2 1 1 1",
            " -0.3 1 1 0 0",
            " 1.75 0 0 0 0",
        ]
    )
    H = parse_fcidump(text)
    assert H.core_energy == pytest.approx(1.75)
    assert H.h[0, 0] == pytest.approx(-0.3)
    for idx in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]:
        assert H.eri[idx] == pytest.approx(0.25)


def test_parse_accepts_lowercase_header_and_orbsym():
    text = "&fci norb=1, nelec=2, ms2=0, orbsym=1, isym=1 &end\n 2.0 1 1 0 0\n"
    H = parse_fcidump(text)
    assert H.n_orbitals == 1 and H.n_electrons == 2
    assert H.h[0, 0] == pytest.approx(2.0)


def test_parse_rejects_missing_header():
    with pytest.raises(FcidumpError, match="header"):
        parse_fcidump("1.0 1 1 0 0\n&FCI\n")
    with pytest.raises(FcidumpError):
        parse_fcidump("no header at all")


def test_parse_rejects_out_of_range_index():
    with pytest.raises(FcidumpError, match="out of range"):
        parse_fcidump("&FCI NORB=2,&END\n 1.0 3 1 0 0\n")


def test_parse_rejects_conflicting_duplicates():
    text = "&FCI NORB=2,&END\n 1.0 1 2 0 0\n 2.0 2 1 0 0\n"
    with pytest.raises(FcidumpError, match="line 3"):
        parse_fcidump(text)


def test_constructor_rejects_asymmetric_tensors():
    with pytest.raises(ValueError, match="symmetric"):
        ElectronicHamiltonian(2, 0.0, np.array([[0.0, 1.0], [0.0, 0.0]]),
                              np.zeros((2,) * 4))
    eri = np.zeros((2,) * 4)
    eri[0, 1, 0, 0] = 1.0
    with pytest.raises(ValueError, match="symmetry"):
        ElectronicHamiltonian(2, 0.0, np.zeros((2, 2)), eri)


# ---------------------------------------------------------------------------
# Operator norms
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_operator_norm_bounded_by_twice_l1(n, seed):
    # spectral norm of each term is at most 1, with a factor <= 2 to spare
    H = oracles.random_hamiltonian(n, np.random.default_rng(seed))
    zero_h = ElectronicHamiltonian(n, 0.0, H.h, np.zeros_like(H.eri))
    zero_v = ElectronicHamiltonian(n, 0.0, np.zeros_like(H.h), H.eri)
    assert build_many_body_operator(zero_h).norm() <= 2 * np.abs(H.h).sum() + 1e-9
    assert build_many_body_operator(zero_v).norm() <= 2 * np.abs(H.eri).sum() + 1e-9
