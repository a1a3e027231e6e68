import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from isothc import hamiltonian
from isothc.algorithm import StepSpec, _StepEngine
from isothc.focksim import FockState
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
from isothc.thc import ThcFactorization

import oracles

_rng = np.random.default_rng(20240811)


def test_single_orbital_spinful_matrix():
    e, v = -0.7, 0.4
    H = ElectronicHamiltonian(1, 0.0, np.array([[e]]), np.full((1, 1, 1, 1), v))
    op = build_many_body_operator(H)
    assert op.n_orbitals == 1
    expected = np.diag([0.0, e, e, 2 * e + v])
    assert_allclose(oracles.register_matrix(op), expected, atol=1e-12)


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
    op = build_many_body_operator(H, oracles.Register(n, spinful=spinful).sectors)
    assert_allclose(oracles.register_matrix(op), oracles.dense_hamiltonian(H, spinful),
                    atol=1e-10)


@pytest.mark.parametrize("n,n_elec,spinful", [(3, 2, False), (2, 2, True), (3, 1, False)])
def test_ground_state_matches_full_ci_oracle(n, n_elec, spinful):
    H = oracles.random_hamiltonian(n, _rng)
    expected = oracles.full_ci_ground_energy(H, n_elec, spinful)
    if spinful:
        energy = ground_state_energy(H, n_elec)
    else:  # the spinless problem is the (N, 0) sector
        energy = np.linalg.eigvalsh(build_many_body_operator(H, [(n_elec, 0)]).matrix)[0]
    assert energy == pytest.approx(expected, abs=1e-10)


def test_layouts_past_63_modes_per_spin_are_refused():
    # each spin's strings are int64 bitmasks of modes 0 .. 62: mode 63's bit
    # would wrap to -2**63, so a state, an operator and a step engine with
    # 64 modes per spin are refused, with one message, before any string is
    # built
    limit = "64 modes per spin exceed the 63-mode limit of int64 spin strings"
    with pytest.raises(ValueError, match=limit):
        FockState(64, np.zeros(1), [(0, 0)])
    # 64 orbitals whose eri is a zero-stride view of one zero, so that no
    # 128 MiB tensor is held; the operator is refused before it reads them
    orbitals_64 = SimpleNamespace(n_orbitals=64, n_electrons=None, core_energy=0.0,
                                  h=np.zeros((64, 64)), eri=np.broadcast_to(0.0, (64,) * 4))
    with pytest.raises(ValueError, match=limit):
        build_many_body_operator(orbitals_64, [(1, 0)])
    with pytest.raises(ValueError, match=limit):
        ground_state_energy(orbitals_64, 1)
    # one system orbital and 63 ancillas per spin: refused before it compiles
    thc = ThcFactorization(u=np.eye(64)[:1], vtilde=np.zeros((64, 64)))
    one_orbital = ElectronicHamiltonian(1, 0.0, np.zeros((1, 1)), np.zeros((1, 1, 1, 1)))
    with pytest.raises(ValueError, match=limit):
        _StepEngine(thc, one_orbital, StepSpec(tau=0.1))
    assert hamiltonian.MAX_SPIN_MODES == 63
    assert FockState(63, np.zeros(63), [(1, 0)]).sectors == ((1, 0),)
    top = hamiltonian._string_tables(63, 1)[0]
    assert top.size == 63 and top[-1] == 1 << 62
    # the limit is per spin: 64 modes of two spins hold one electron in 32
    # orbitals, whose energy is the lowest one-body level
    H = oracles.random_hamiltonian(32, np.random.default_rng(0))
    assert ground_state_energy(H, 1) == pytest.approx(
        np.linalg.eigvalsh(H.h)[0], abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_operator_is_hermitian_and_number_conserving(n, seed):
    H = oracles.random_hamiltonian(n, np.random.default_rng(seed))
    op = build_many_body_operator(H, oracles.Register(n).sectors)
    assert_allclose(op.matrix, op.matrix.conj().T, atol=1e-12)
    matrix = oracles.register_matrix(op)
    weights = np.array([bin(x).count("1") for x in range(2**n)])
    number = np.diag(weights.astype(float))
    assert_allclose(matrix @ number, number @ matrix, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_operator_matches_string_oracle_with_core_energy(spinful, n, seed):
    n = min(n, 3) if spinful else n
    rng = np.random.default_rng(seed)
    drawn = oracles.random_hamiltonian(n, rng)
    core = float(rng.uniform(-2.0, 2.0)) or 1.0
    H = ElectronicHamiltonian(n, core, drawn.h, drawn.eri)
    op = build_many_body_operator(H, oracles.Register(n, spinful=spinful).sectors)
    assert op.matrix.dtype == complex
    assert_allclose(oracles.register_matrix(op), oracles.dense_hamiltonian(H, spinful),
                    rtol=0, atol=1e-12)


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
        build_many_body_operator(H)
    with pytest.raises(ValueError, match="4 modes .* physical memory"):
        ground_state_energy(H, 2)
    monkeypatch.undo()
    # the two-electron block fits where the full operator does not
    monkeypatch.setattr(hamiltonian, "_physical_memory_bytes", lambda: full - 1)
    with pytest.raises(ValueError, match="4 modes .* physical memory"):
        build_many_body_operator(H)
    assert ground_state_energy(H, 2) == pytest.approx(
        oracles.full_ci_ground_energy(H, 2, True), abs=1e-10)
    monkeypatch.setattr(hamiltonian, "_physical_memory_bytes", lambda: full)
    op = build_many_body_operator(H)
    assert_allclose(oracles.register_matrix(op), oracles.dense_hamiltonian(H, spinful=True),
                    atol=1e-10)


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
        ground_state_energy(H, n_electrons)
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
    (``size`` modes per spin, up then down, none down past ``n_modes``) are
    one of ``sectors``, by brute force."""
    states = np.arange(1 << n_modes)
    counts = [[bin((x >> (spin * size)) & ((1 << size) - 1)).count("1")
               for spin in range(2)] for x in states]
    return states[[tuple(c) in sectors for c in counts]]


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_sector_build_is_the_block_of_the_full_build(spinful, n, seed, data):
    rng = np.random.default_rng(seed)
    drawn = oracles.random_hamiltonian(n, rng)
    H = ElectronicHamiltonian(n, float(rng.uniform(-2.0, 2.0)), drawn.h, drawn.eri)
    register = oracles.Register(n, spinful=spinful)
    every = register.sectors
    full = build_many_body_operator(H, every)
    assert_allclose(oracles.register_matrix(full), oracles.dense_hamiltonian(H, spinful),
                    rtol=0, atol=1e-12)
    sectors = sorted(data.draw(st.lists(st.sampled_from(every), min_size=1, unique=True)))
    listed = oracles.register_order(register, sectors)
    assert np.array_equal(np.sort(listed), sector_rows(register.n_modes, n, set(sectors)))
    op = build_many_body_operator(H, sectors)
    assert op.sectors == tuple(sectors)
    cells = oracles.register_positions(register)[listed]  # their cells in the full build
    assert np.array_equal(op.matrix, full.matrix[np.ix_(cells, cells)])
    assert full.sectors == tuple(every)
    # the default sectors are every two-spin sector
    if spinful:
        assert np.array_equal(build_many_body_operator(H).matrix, full.matrix)


def test_operator_sectors_must_ascend():
    H = oracles.random_hamiltonian(2, _rng)
    for sectors in ([(1, 0), (0, 0)], [(0, 0), (0, 0), (1, 0)], [(0, 0), (3, 0)],
                    [(0, 1, 0)], [(-1, 0)], [(1,)]):
        with pytest.raises(ValueError, match="ascending"):
            build_many_body_operator(H, sectors)


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
    spinless = oracles.Register(n).sectors
    assert build_many_body_operator(zero_h, spinless).norm() <= 2 * np.abs(H.h).sum() + 1e-9
    assert build_many_body_operator(zero_v, spinless).norm() <= 2 * np.abs(H.eri).sum() + 1e-9
