"""Brute-force reference implementations used only by the test suite.

Everything here works directly on occupation bitstrings with explicit
Jordan-Wigner sign bookkeeping, one basis state and one ladder product at a
time, independently of the package's vectorised excitation tables, so the
two routes can check each other.  Mode 0 is the least significant bit of a
full-register basis index, which the package itself never forms: its states
and operators live on (N_up, N_down) sectors in sector-major order, and
``register_order`` lists the basis index of each of their cells, built
string by string, so ``to_register``, ``from_register`` and
``register_matrix`` carry them to and from the full register.  That
register is a ``Register``: both spins, or the up spin alone for a state
or operator whose sectors all have N_down = 0, so a spinless problem is
embedded in its n-mode register, never in the 2n-mode one.  Densities are
plain complex arrays over every basis index of a register, and the gate
kernels act on a ``RowState``, amplitudes over listed ascending basis
indices (the package's state type before it moved to sectors).  The
full-Fock Trotter step (system density embedded in the ancilla vacuum,
whole step unitary, occupation-basis ancilla reset, restriction back to the
system modes) is kept here as the reference for the compiled step of
``isothc.algorithm``, and so is the step applied one Givens gate at a
time on listed rows with the diagonal phase kernels (``gate_step``), the
route the step engine's compile on the string grid replaced.  That gate
kernel (``apply_basis_rotation``, with each gate's partner rows looked up
once per block in ``RowTables``) run on the identity over one spin's
k-particle strings is also the reference for the step engine's compound
matrices, which now run the circuit on the package's string tables.  Three
references check the vector ``evolve``: the whole system density stepped
by every Kraus operator K_b = <b|U|., 0>, the
density on the input's sectors stepped as K_0 rho K_0^dagger plus the
leaked weight tr(G rho) (the route ``evolve`` took before it stepped one
vector), and, for one electron per spin, the step and the exact evolution
in extended precision (``np.clongdouble``), which sets the float64 floor
that a bit-changing route must stay within; the projection-error bound on
every sector has its own long-double evaluation.  The THC
refinement loop that solves the core twice per step and plans the
gradient's einsum order on every call is the reference for
``isothc.thc.refine``.  It also reads back the ``givens_sequence.json``
artifact, which only the tests need to parse, and holds the one rule the
tests choose H2's factors by (``h2_exact_thc``).
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, replace
from importlib.resources import files

import numpy as np

from isothc.algorithm import (
    StepSpec,
    _diagonal_entries,
    _givens_circuit,
    _on_sectors,
    _sectors,
    _StepEngine,
)
from isothc.focksim import (
    FockState,
    GivensRotation,
    GivensSequence,
    givens_decompose,
)
from isothc.hamiltonian import (
    ElectronicHamiltonian,
    ManyBodyOperator,
    build_many_body_operator,
    parse_fcidump,
    rotate_to_h_eigenbasis,
)
from isothc.thc import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    RefineConfig,
    ThcFactorization,
    approximation_errors,
    contract_vtilde,
    exact_factorize,
    polar_retract,
    projected_interaction,
)


def apply_annihilate(state: int, mode: int) -> tuple[int, int] | None:
    if not (state >> mode) & 1:
        return None
    sign = -1 if bin(state & ((1 << mode) - 1)).count("1") % 2 else 1
    return sign, state & ~(1 << mode)


def apply_create(state: int, mode: int) -> tuple[int, int] | None:
    if (state >> mode) & 1:
        return None
    sign = -1 if bin(state & ((1 << mode) - 1)).count("1") % 2 else 1
    return sign, state | (1 << mode)


def apply_product(state: int, ops: list[tuple[int, bool]]) -> tuple[int, int] | None:
    """Apply a product of ladder operators written left to right.

    ``ops`` is a list of (mode, is_creation); the rightmost factor acts
    first.  Returns (sign, state) or None when the product annihilates.
    """
    sign = 1
    for mode, dagger in reversed(ops):
        result = apply_create(state, mode) if dagger else apply_annihilate(state, mode)
        if result is None:
            return None
        s, state = result
        sign *= s
    return sign, state


def hamiltonian_terms(H: ElectronicHamiltonian, spinful: bool):
    """Expand the Hamiltonian into (coefficient, ladder-product) terms."""
    n = H.n_orbitals
    spins = (0, 1) if spinful else (0,)
    offset = n if spinful else 0
    terms: list[tuple[float, list[tuple[int, bool]]]] = []
    for i in range(n):
        for j in range(n):
            if H.h[i, j] == 0.0:
                continue
            for s in spins:
                terms.append(
                    (H.h[i, j], [(i + s * offset, True), (j + s * offset, False)])
                )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    v = H.eri[i, j, k, l]
                    if v == 0.0:
                        continue
                    for s1 in spins:
                        for s2 in spins:
                            terms.append(
                                (
                                    0.5 * v,
                                    [
                                        (i + s1 * offset, True),
                                        (k + s2 * offset, True),
                                        (l + s2 * offset, False),
                                        (j + s1 * offset, False),
                                    ],
                                )
                            )
    return terms


def dense_hamiltonian(H: ElectronicHamiltonian, spinful: bool, dtype=complex) -> np.ndarray:
    """Full 2^m x 2^m matrix assembled string by string, accumulated in ``dtype``."""
    n_modes = 2 * H.n_orbitals if spinful else H.n_orbitals
    dim = 1 << n_modes
    terms = hamiltonian_terms(H, spinful)
    mat = np.zeros((dim, dim), dtype=dtype)
    for col in range(dim):
        for coef, ops in terms:
            result = apply_product(col, ops)
            if result is not None:
                sign, row = result
                mat[row, col] += coef * sign
    mat += H.core_energy * np.eye(dim)
    return mat


def sector_indices(n_modes: int, n_particles: int) -> np.ndarray:
    states = np.arange(1 << n_modes)
    weights = np.array([bin(x).count("1") for x in states])
    return states[weights == n_particles]


def full_ci_ground_energy(
    H: ElectronicHamiltonian, n_electrons: int, spinful: bool
) -> float:
    mat = dense_hamiltonian(H, spinful)
    n_modes = 2 * H.n_orbitals if spinful else H.n_orbitals
    sector = sector_indices(n_modes, n_electrons)
    block = mat[np.ix_(sector, sector)]
    return float(np.linalg.eigvalsh(block)[0])


def random_hamiltonian(
    n: int, rng: np.random.Generator, scale: float = 1.0
) -> ElectronicHamiltonian:
    """Random symmetric tensors with the full eight-fold ERI symmetry."""
    a = rng.normal(size=(n, n), scale=scale)
    h = 0.5 * (a + a.T)
    t = rng.normal(size=(n, n, n, n), scale=scale)
    eri = np.zeros_like(t)
    for perm in [
        (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
        (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0),
    ]:
        eri += t.transpose(perm)
    eri /= 8.0
    return ElectronicHamiltonian(n_orbitals=n, core_energy=0.0, h=h, eri=eri)


def dense_quadratic(n_modes: int, k: np.ndarray) -> np.ndarray:
    """Dense matrix of ``sum_pq k[p, q] a+_p a_q`` built string by string."""
    dim = 1 << n_modes
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        for p in range(n_modes):
            for q in range(n_modes):
                if k[p, q] == 0.0:
                    continue
                result = apply_product(col, [(p, True), (q, False)])
                if result is not None:
                    sign, row = result
                    mat[row, col] += k[p, q] * sign
    return mat


def dense_mode_diagonal_interaction(
    n_modes: int, pair_coefficients: dict[tuple[int, int], float]
) -> np.ndarray:
    """Dense matrix of ``sum coeff[s, t] n_s n_t`` over mode pairs."""
    dim = 1 << n_modes
    diag = np.zeros(dim)
    for (s, t), coeff in pair_coefficients.items():
        for state in range(dim):
            diag[state] += coeff * ((state >> s) & 1) * ((state >> t) & 1)
    return np.diag(diag.astype(complex))


def h2_hamiltonian() -> ElectronicHamiltonian:
    """The bundled H2 integrals, rotated to their h eigenbasis."""
    rotated, _ = rotate_to_h_eigenbasis(
        parse_fcidump(str(files("isothc") / "data" / "h2_sto6g.fcidump")))
    return rotated


def h2_exact_thc(m=3, n_seeds=10) -> tuple[ElectronicHamiltonian, ThcFactorization]:
    """The rotated H2 integrals and, of their exact rank-m factorizations at
    seeds 0 .. n_seeds - 1, the one with the smallest entrywise l1 core.

    Every generic co-isometry is exact here, but the pseudoinverse core can
    be arbitrarily large when the product matrix is nearly singular; the
    smallest core keeps time steps in the perturbative regime.  The
    acceptance criteria and the H2 pins take their factors from here.
    """
    rotated = h2_hamiltonian()
    candidates = [exact_factorize(rotated, m=m, seed=seed) for seed in range(n_seeds)]
    return rotated, min(candidates, key=lambda f: float(np.abs(f.vtilde).sum()))


def contract_thc(u: np.ndarray, vtilde: np.ndarray) -> np.ndarray:
    """Recontract THC factors into the four-index tensor, index by index."""
    n, m = u.shape
    out = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    acc = 0.0
                    for a in range(m):
                        for b in range(m):
                            acc += u[i, a] * u[j, a] * vtilde[a, b] * u[k, b] * u[l, b]
                    out[i, j, k, l] = acc
    return out


def single_particle_matrix(sequence: GivensSequence, dtype=complex) -> np.ndarray:
    """Q = R(r_K) ... R(r_1) diag(e^{i phases}) of ``sequence``, a product of
    Givens matrices in ``dtype``: a state's one-particle amplitudes x go to Q x."""
    real = np.finfo(dtype).dtype.type
    i_unit = np.dtype(dtype).type(1j)
    q = np.diag(np.exp(i_unit * sequence.diagonal_phases.astype(real)))
    for r in sequence.rotations:
        c, s = np.cos(real(r.theta)), np.sin(real(r.theta))
        rot = np.eye(sequence.n_modes, dtype=dtype)
        rot[r.p, r.p] = rot[r.q, r.q] = c
        rot[r.p, r.q] = -np.exp(-i_unit * real(r.phi)) * s
        rot[r.q, r.p] = np.exp(i_unit * real(r.phi)) * s
        q = rot @ q
    return q


def givens_sequence_from_json(text: str) -> GivensSequence:
    """Read back a ``GivensSequence.to_json`` document (``givens_sequence.json``)."""
    doc = json.loads(text)
    rotations = tuple(
        GivensRotation(int(r["p"]), int(r["q"]), float(r["theta"]), float(r["phi"]))
        for r in doc["rotations"]
    )
    return GivensSequence(
        n_modes=int(doc["n_modes"]),
        rotations=rotations,
        diagonal_phases=np.array(doc["residual_diagonal_phases"], dtype=float),
    )


# ---------------------------------------------------------------------------
# the full-register embedding of the package's sector-major index space


@dataclass(frozen=True)
class Register:
    """A full register of ``n_system + n_ancilla`` modes per spin, system
    modes first: both spins (``spinful``), the up spin's modes before the
    down spin's, or the up spin alone."""

    n_system: int
    n_ancilla: int = 0
    spinful: bool = False

    @property
    def sector_size(self) -> int:
        return self.n_system + self.n_ancilla

    @property
    def n_spins(self) -> int:
        return 2 if self.spinful else 1

    @property
    def n_modes(self) -> int:
        return self.n_spins * self.sector_size

    @property
    def dim(self) -> int:
        return 1 << self.n_modes

    @property
    def sectors(self) -> list[tuple[int, int]]:
        """Every (N_up, N_down) sector of the register, ascending."""
        down = self.sector_size if self.spinful else 0
        return list(itertools.product(range(self.sector_size + 1), range(down + 1)))

    def system_only(self) -> "Register":
        return Register(self.n_system, 0, self.spinful)


def register_of(n_orbitals: int, sectors) -> Register:
    """The register of a package state or operator of ``n_orbitals``
    orbitals on ``sectors``, with no ancillas: the up spin alone when every
    sector has N_down = 0."""
    return Register(n_orbitals, 0, any(down for _, down in sectors))


def system_modes(register: Register) -> tuple[int, ...]:
    """The register modes of the system orbitals, spin by spin."""
    m = register.sector_size
    return tuple(s * m + i for s in range(register.n_spins) for i in range(register.n_system))


def ancilla_modes(register: Register) -> tuple[int, ...]:
    """The register modes of the ancillas, spin by spin."""
    m = register.sector_size
    return tuple(s * m + i for s in range(register.n_spins)
                 for i in range(register.n_system, m))


def register_order(register: Register, sectors=None) -> np.ndarray:
    """The full-register basis index of each cell of ``sectors`` (every
    sector of ``register`` by default), in the package's sector-major order:
    sector by sector, and within a sector (N_up, N_down) every down string
    of ``sector_indices`` with every up string, the down string major."""
    m = register.sector_size
    order = [int(up) | (int(down) << m)
             for n_up, n_down in (register.sectors if sectors is None else sectors)
             for down in sector_indices(m, n_down)
             for up in sector_indices(m, n_up)]
    return np.array(order, dtype=np.int64)


def register_positions(register: Register) -> np.ndarray:
    """The position of each basis index of ``register`` in the sector-major
    order of every sector: the inverse of ``register_order``."""
    return np.argsort(register_order(register))


def to_register(state: FockState) -> np.ndarray:
    """A state's amplitudes (or columns) over every basis index of its
    register (``register_of``), zero outside its sectors."""
    register = register_of(state.n_orbitals, state.sectors)
    out = np.zeros((register.dim,) + state.amplitudes.shape[1:], dtype=complex)
    out[register_order(register, state.sectors)] = state.amplitudes
    return out


def from_register(register: Register, amplitudes: np.ndarray, sectors=None) -> FockState:
    """The state with the full-register ``amplitudes`` on ``sectors`` (every
    sector by default), which must hold every nonzero amplitude."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    sectors = register.sectors if sectors is None else sectors
    order = register_order(register, sectors)
    if np.any(np.delete(amplitudes, order, axis=0)):
        raise ValueError("amplitudes outside the sectors")
    return FockState(register.sector_size, amplitudes[order], sectors)


def register_matrix(op: ManyBodyOperator) -> np.ndarray:
    """The matrix of an operator on every sector of its register
    (``register_of``) over the full-register basis indices."""
    register = register_of(op.n_orbitals, op.sectors)
    if list(op.sectors) != register.sectors:
        raise ValueError("the operator is not on every sector of its register")
    at = register_positions(register)
    return op.matrix[np.ix_(at, at)]


def register_evolution(op: ManyBodyOperator, amplitudes: np.ndarray, t: float) -> np.ndarray:
    """``exp(-i op t)`` on full-register amplitudes, by ``exact_evolution``'s
    arithmetic on the eigensystem of ``register_matrix(op)``."""
    w, v = np.linalg.eigh(register_matrix(op))
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ amplitudes).T).T


@dataclass
class RowState:
    """Amplitudes, or a block of columns, over the ascending full-register
    basis indices ``rows`` of ``register`` (every basis index by default):
    the state the gate kernels below act on."""

    register: Register
    amplitudes: np.ndarray
    rows: np.ndarray | None = None

    def __post_init__(self) -> None:
        dim = self.register.dim
        rows = np.arange(dim) if self.rows is None else np.asarray(self.rows, dtype=np.int64)
        if (rows.ndim != 1 or np.any(np.diff(rows) <= 0)
                or (rows.size and not 0 <= rows[0] <= rows[-1] < dim)):
            raise ValueError("rows must be ascending basis indices of the register")
        self.rows = rows
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (rows.size,) + self.amplitudes.shape[1:2]:
            raise ValueError(f"array shape {self.amplitudes.shape} does not match "
                             f"{rows.size} rows")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def register_state(state: FockState) -> RowState:
    """A state on every basis index of its register, for the gate kernels."""
    return RowState(register_of(state.n_orbitals, state.sectors), to_register(state))


def diagonal_one_body(state: FockState, h_diag: np.ndarray, tau: float) -> FockState:
    """:func:`apply_diagonal_one_body` on a state, through the register."""
    out = apply_diagonal_one_body(register_state(state), h_diag, tau)
    return from_register(out.register, out.amplitudes, state.sectors)


# ---------------------------------------------------------------------------
# densities, and the full-Fock reference for the Trotter step


def density(amplitudes: np.ndarray) -> np.ndarray:
    """psi psi^dagger of a pure state's amplitudes."""
    return np.outer(amplitudes, amplitudes.conj())


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Trace distance ``1/2 || rho - sigma ||_1`` between two densities."""
    if rho.shape != sigma.shape:
        raise ValueError("states live on different register sizes")
    return float(0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


def evolve_density(op: ManyBodyOperator, rho: np.ndarray, t: float) -> np.ndarray:
    """``e^{-i op t} rho e^{i op t}`` for an every-sector operator and a
    density over every basis index, by ``ManyBodyOperator.propagator``'s
    arithmetic on the eigensystem of ``register_matrix(op)``."""
    w, v = np.linalg.eigh(register_matrix(op))
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return u @ rho @ u.conj().T


def split_keys(register: Register) -> tuple[np.ndarray, np.ndarray]:
    """System string and ancilla string of each extended basis index, one at a time."""
    a_key = np.zeros(register.dim, dtype=np.int64)
    b_key = np.zeros(register.dim, dtype=np.int64)
    for index in range(register.dim):
        bits = [(index >> mode) & 1 for mode in range(register.n_modes)]
        a_key[index] = sum(bits[pos] << t for t, pos in enumerate(system_modes(register)))
        b_key[index] = sum(bits[pos] << t for t, pos in enumerate(ancilla_modes(register)))
    return a_key, b_key


def embed_in_ancilla_vacuum(rho: np.ndarray, register: Register) -> np.ndarray:
    """Place a density on the system modes of ``register`` with every ancilla empty."""
    system = register.system_only().dim
    if rho.shape != (system, system):
        raise ValueError("source must be a density on the system modes of the target register")
    a_key, b_key = split_keys(register)
    vacuum = np.flatnonzero(b_key == 0)
    out = np.zeros((register.dim, register.dim), dtype=complex)
    out[np.ix_(vacuum, vacuum)] = rho[np.ix_(a_key[vacuum], a_key[vacuum])]
    return out


def system_density(rho: np.ndarray, register: Register, tol: float = 1e-9) -> np.ndarray:
    """Restrict a density on ``register`` with no weight outside the ancilla
    vacuum to its system modes."""
    a_key, b_key = split_keys(register)
    vacuum = np.flatnonzero(b_key == 0)
    block = rho[np.ix_(vacuum, vacuum)]
    outside = float(np.abs(rho).sum() - np.abs(block).sum())
    if outside > tol:
        raise ValueError(f"density has weight {outside:.3e} outside the ancilla vacuum")
    system = register.system_only()
    out = np.zeros((system.dim, system.dim), dtype=complex)
    out[np.ix_(a_key[vacuum], a_key[vacuum])] = block
    return out


def reset_ancillas(rho: np.ndarray, register: Register, parity_check: bool = True) -> np.ndarray:
    """Trace out the ancilla modes of a density on ``register`` and re-prepare
    them in the vacuum.

    The trace is taken in the occupation basis.  That coincides with the
    fermionic reset channel when the state carries no coherences between
    system strings of different particle-number parity alongside occupied
    ancillas; the evolution circuits conserve total particle number, so
    number-sector inputs never produce such terms.  ``parity_check``
    controls a diagnostic warning for states that violate the assumption.
    """
    if register.n_ancilla == 0:
        return rho.copy()
    n_a = len(system_modes(register))
    n_b = len(ancilla_modes(register))
    a_key, b_key = split_keys(register)
    order = np.argsort((b_key << n_a) | a_key)
    reordered = rho[np.ix_(order, order)].reshape(1 << n_b, 1 << n_a, 1 << n_b, 1 << n_a)
    if parity_check:
        a_parity = np.array([bin(x).count("1") % 2 for x in range(1 << n_a)])
        mismatch = a_parity[:, None] != a_parity[None, :]
        weight = sum(
            float(np.abs(reordered[b, :, b, :][mismatch]).sum())
            for b in range(1, 1 << n_b)
        )
        if weight > 1e-9:
            warnings.warn(
                "resetting ancillas on a state with parity-mixing coherences "
                f"(weight {weight:.3e}); occupation-basis trace may not match "
                "the fermionic channel",
                stacklevel=2,
            )
    traced = np.einsum("bibj->ij", reordered)
    out = np.zeros((register.dim, register.dim), dtype=complex)
    vacuum_order = order[: 1 << n_a]
    out[np.ix_(vacuum_order, vacuum_order)] = traced
    return out


# ---------------------------------------------------------------------------
# the Givens gate kernel on listed rows, the reference for the compound matrices


def _pair_indices(rows: np.ndarray, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions in ``rows`` of the states with mode p filled and q empty, and
    of their partners with that particle moved to q."""
    bit_p, bit_q = (rows >> p) & 1, (rows >> q) & 1
    at_p = np.flatnonzero(bit_p > bit_q)
    partner = rows[at_p] - (1 << p) + (1 << q)
    at_q = np.searchsorted(rows, partner)
    # closed rows pair every state holding one particle in {p, q} with its partner
    if (np.count_nonzero(bit_q > bit_p) != at_p.size
            or not np.array_equal(rows.take(at_q, mode="clip"), partner)):
        raise ValueError(f"rows are not closed under a rotation of modes {p} and {q}")
    return at_p, at_q


class RowTables:
    """The partner rows of each Givens pair of a state's rows, looked up once.

    Build one for a block and pass it to every rotation of the block's rows
    (a rotation keeps the rows of its input), so the pairs are found once
    however many gates act; a rotation refuses the tables of other rows.
    """

    def __init__(self, state: RowState) -> None:
        self.rows = state.rows
        self._pairs: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def check(self, state: RowState) -> None:
        if state.rows is not self.rows:
            raise ValueError("row tables were built for the rows of another state")

    def pair(self, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
        """``_pair_indices`` of modes p and q, looked up once."""
        if (p, q) not in self._pairs:
            self._pairs[p, q] = _pair_indices(self.rows, p, q)
        return self._pairs[p, q]


def _mix_rows(mat_or_vec: np.ndarray, at_p, at_q, theta: float, phi: float) -> None:
    c, s = np.cos(theta), np.sin(theta)
    xp = mat_or_vec[at_p]  # a gather through an index array is a copy
    xq = mat_or_vec[at_q]
    mat_or_vec[at_p] = c * xp - np.exp(-1j * phi) * s * xq
    mat_or_vec[at_q] = np.exp(1j * phi) * s * xp + c * xq


def _scale_rows(diag: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    # ``diag`` scales the rows of a vector or of a column block.  Broadcast as
    # a column, not through transposes: numpy multiplies a (1,) by a (1, 1)
    # array on its scalar path, which rounds differently from its array loops,
    # so a one-row block would not match the same row of a larger one.
    return (diag if amplitudes.ndim == 1 else diag[:, None]) * amplitudes


def apply_basis_rotation(
    state: RowState,
    sequence: GivensSequence,
    tables: RowTables,
    inverse: bool = False,
) -> RowState:
    """Apply a Givens-rotation circuit (or its inverse) to a state.

    On a two-spin register the same sequence acts on both spin sectors;
    mode indices inside the sequence are sector-relative.  ``tables`` are
    the :class:`RowTables` of the state's rows.
    """
    tables.check(state)
    register = state.register
    if sequence.n_modes != register.sector_size:
        raise ValueError(
            f"sequence on {sequence.n_modes} modes does not fit sector size "
            f"{register.sector_size}"
        )
    offsets = [spin * register.sector_size for spin in range(register.n_spins)]

    phase_per_mode = np.tile(sequence.diagonal_phases, register.n_spins)
    rows = state.rows
    exponent = np.zeros(rows.size)
    for mode, phase in enumerate(phase_per_mode):
        if phase != 0.0:
            exponent = exponent + phase * ((rows >> mode) & 1)
    phase_diag = np.exp(1j * exponent)

    # a sequence revisits each adjacent pair many times; the tables look its rows up once
    def apply_gate(p: int, q: int, theta: float, phi: float) -> None:
        _mix_rows(out, *tables.pair(p, q), theta, phi)

    if not inverse:
        out = _scale_rows(phase_diag, state.amplitudes)
        for r in sequence.rotations:
            for off in offsets:
                apply_gate(r.p + off, r.q + off, r.theta, r.phi)
    else:
        out = state.amplitudes.copy()
        for r in reversed(sequence.rotations):
            for off in offsets:
                apply_gate(r.p + off, r.q + off, -r.theta, r.phi)
        out = _scale_rows(phase_diag.conj(), out)
    return RowState(register, out, rows)


# ---------------------------------------------------------------------------
# the step gate by gate on listed rows, the reference for the grid compile


def _apply_diagonal(state: RowState, diag: np.ndarray) -> RowState:
    return RowState(state.register, _scale_rows(diag, state.amplitudes), state.rows)


def apply_diagonal_one_body(state: RowState, h_diag: np.ndarray, tau: float) -> RowState:
    """Evolve by ``exp(-i tau sum_p h_diag[p] n_p)`` (one entry per mode)."""
    register = state.register
    h_diag = np.asarray(h_diag, dtype=float)
    if h_diag.shape != (register.n_modes,):
        raise ValueError(f"h_diag must have length {register.n_modes}")
    rows = state.rows
    energy = np.zeros(rows.size)
    for mode, value in enumerate(h_diag):
        if value != 0.0:
            energy = energy + value * ((rows >> mode) & 1)
    return _apply_diagonal(state, np.exp(-1j * tau * energy))


def apply_diagonal_two_body(state: RowState, vtilde: np.ndarray, tau: float) -> RowState:
    """Evolve by the mode-diagonal two-body interaction.

    The phase of basis state ``n`` is ``exp(-i tau E(n))`` with

        E(n) = 1/2 sum_{(a,s) != (b,t)} vtilde[a, b] n_{a,s} n_{b,t},

    spin labels ranging over the register's one or two spins.  With
    ``N_a`` the spin-summed occupation of orbital slot ``a`` this is

        E(n) = sum_{a<b} vs[a, b] N_a N_b + 1/2 sum_a vs[a, a] N_a (N_a - 1)

    for the symmetrized ``vs``; diagonal entries of ``vtilde`` therefore
    drop out of the spinless phase, where ``N_a (N_a - 1) = 0``.
    """
    register = state.register
    m = register.sector_size
    vtilde = np.asarray(vtilde, dtype=float)
    if vtilde.shape != (m, m):
        raise ValueError(f"vtilde must be {m} x {m} for this register")
    vs = 0.5 * (vtilde + vtilde.T)
    rows = state.rows
    occ = np.zeros((m, rows.size))
    for spin in range(register.n_spins):
        for a in range(m):
            occ[a] += (rows >> (a + spin * m)) & 1
    energy = np.zeros(rows.size)
    for a in range(m):
        for b in range(a + 1, m):
            if vs[a, b] != 0.0:
                energy += vs[a, b] * occ[a] * occ[b]
        energy += 0.5 * vs[a, a] * occ[a] * (occ[a] - 1.0)
    return _apply_diagonal(state, np.exp(-1j * tau * energy))


def phase_on_ancillas(state: RowState, phi: float) -> RowState:
    """Apply ``exp(+i phi N_b)`` where ``N_b`` counts occupied ancillas."""
    rows = state.rows
    count = np.zeros(rows.size, dtype=np.int64)
    for mode in ancilla_modes(state.register):
        count += (rows >> mode) & 1
    return _apply_diagonal(state, np.exp(1j * phi * count))


def gate_step(engine, state: RowState) -> RowState:
    """An engine's step unitary on ``state``, one Givens gate at a time:
    one-body half step, interaction, one-body half step.

    The interaction is ``rot^dagger . vee(tau) . rot`` (basic), or four
    such quarter blocks with ancilla phases between them (improved).
    """
    spec = engine.spec
    tau = spec.tau
    if spec.variant == "basic":
        blocks = [(None, tau)]
    else:
        # rightmost factor of V P(phi1) V P(phi2) V P(phi3) V acts first
        phi1, phi2, phi3 = spec.phases
        blocks = [(None, tau / 4), (phi3, tau / 4), (phi2, tau / 4), (phi1, tau / 4)]
    h_diag = np.tile(engine.energies, state.register.n_spins)
    sequence = _givens_circuit(engine.thc)
    tables = RowTables(state)
    state = apply_diagonal_one_body(state, h_diag, tau / 2)
    for phi, block_tau in blocks:
        if phi is not None:
            state = phase_on_ancillas(state, phi)
        state = apply_basis_rotation(state, sequence, tables)
        state = apply_diagonal_two_body(state, engine.thc.vtilde, block_tau)
        state = apply_basis_rotation(state, sequence, tables, inverse=True)
    return apply_diagonal_one_body(state, h_diag, tau / 2)


def engine_register(engine) -> Register:
    """The extended register of a step engine's layout on its sectors: the
    up spin alone when every sector has N_down = 0."""
    layout = engine.layout
    return replace(register_of(layout.n_system, engine.sectors), n_ancilla=layout.n_ancilla)


def gate_dense_unitary(engine) -> np.ndarray:
    """An engine's U P, compiled gate by gate over the unit columns of its
    system states in the ancilla vacuum: a column per system state of the
    engine's sectors, a row per extended state of them, both in
    sector-major order."""
    register = engine_register(engine)
    n, m = register.n_system, register.sector_size
    rows = register_order(register, engine.sectors)
    system = register_order(register.system_only(), engine.sectors)
    # each system state with every ancilla empty: the down half moves from bit n to bit m
    columns = (rows[:, None] == ((system & ((1 << n) - 1)) | ((system >> n) << m))).astype(complex)
    ascending = np.argsort(rows)
    out = np.empty_like(columns)
    out[ascending] = gate_step(engine, RowState(register, columns[ascending],
                                                rows[ascending])).amplitudes
    return out


def full_step_unitary(engine) -> np.ndarray:
    """The whole 2^M x 2^M step unitary of a step engine on its register
    (``engine_register``), all basis columns."""
    register = engine_register(engine)
    identity = RowState(register, np.eye(register.dim, dtype=complex))
    return gate_step(engine, identity).amplitudes


def full_fock_step(u: np.ndarray, rho: np.ndarray,
                   register: Register) -> tuple[np.ndarray, float]:
    """One step on the extended register: U rho U^dagger, then the ancilla reset.

    Also returns the weight the reset moved back into the ancilla vacuum.
    """
    rotated = u @ rho @ u.conj().T
    _, b_key = split_keys(register)
    kept = float(np.trace(rotated[np.ix_(b_key == 0, b_key == 0)]).real)
    return reset_ancillas(rotated, register), float(np.trace(rho).real) - kept


def kraus_operators(engine) -> np.ndarray:
    """Every Kraus operator K_b = <b|U|., 0> of a step engine on every
    system sector, from its U P compiled gate by gate, stacked by ancilla
    string b (vacuum first), each on every system state, over the
    full-register basis indices."""
    register = engine_register(engine)
    system = register.system_only()
    a_key, b_key = split_keys(register)
    rows = register_order(register, engine.sectors)
    kraus = np.zeros((register.dim // system.dim, system.dim, system.dim), dtype=complex)
    kraus[b_key[rows], a_key[rows]] = gate_dense_unitary(engine)[:, register_positions(system)]
    return kraus


def evolve_full_density(
    psi0: FockState,
    thc: ThcFactorization,
    hamiltonian: ElectronicHamiltonian,
    n_steps: int,
    spec: StepSpec,
) -> tuple[float, np.ndarray]:
    """Step the whole system density with every Kraus operator, n_steps times.

    Returns the trace distance to the exact evolution of ``psi0`` over
    ``n_steps * spec.tau`` and the stepped density, over every basis index
    of the register of ``psi0`` (``register_of``), which keeps the weight
    that left the input's particle-number sector.
    """
    every = register_of(psi0.n_orbitals, psi0.sectors).sectors
    kraus = kraus_operators(_StepEngine(thc, hamiltonian, spec, every))
    rho = density(to_register(psi0))
    for _ in range(n_steps):
        rho = sum(k @ rho @ k.conj().T for k in kraus)
    op = build_many_body_operator(hamiltonian, every)
    reference = register_evolution(op, to_register(psi0), n_steps * spec.tau)
    return trace_distance(rho, density(reference)), rho


def density_step(engine, rho: np.ndarray) -> tuple[np.ndarray, float]:
    """One step of a density on an engine's support of one particle number:
    K_0 rho K_0^dagger and the leaked weight tr(G rho), from the engine's
    stack [K_0; G]."""
    stack = engine.dense_unitary()
    size = engine.col_offsets[-1]
    k0 = stack[:size]
    # G is Hermitian, so vdot(G, rho) = sum_ij G_ji rho_ij = tr(G rho)
    return (k0 @ rho) @ np.ascontiguousarray(k0.conj().T), float(np.vdot(stack[size:], rho).real)


def step_sector_density(
    psi0: FockState,
    thc: ThcFactorization,
    hamiltonian: ElectronicHamiltonian,
    n_steps: int,
    spec: StepSpec,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Step the density rho_S on the sectors S of ``psi0`` by
    :func:`density_step`, ``n_steps`` times.  Returns the basis indices of
    S in sector-major order, rho_S and the sum of the leaked weights."""
    engine = _StepEngine(thc, hamiltonian, spec, _sectors(psi0))
    rho = density(_on_sectors(psi0, engine.sectors).amplitudes)
    leaked = np.zeros(n_steps)
    for k in range(n_steps):
        rho, leaked[k] = density_step(engine, rho)
    support = register_order(register_of(psi0.n_orbitals, engine.sectors), engine.sectors)
    return support, rho, float(leaked.sum())


def step_sector_vector(
    psi0: FockState,
    thc: ThcFactorization,
    hamiltonian: ElectronicHamiltonian,
    n_steps: int,
    spec: StepSpec,
) -> tuple[np.ndarray, np.ndarray, float]:
    """``evolve``'s route: step the vector psi on the sectors S of ``psi0`` by
    K_0, ``n_steps`` times.  Returns the basis indices of S in sector-major
    order, psi and the sum of the leaked weights."""
    engine = _StepEngine(thc, hamiltonian, spec, _sectors(psi0))
    psi = _on_sectors(psi0, engine.sectors).amplitudes
    lost = 0.0
    for _ in range(n_steps):
        psi, leaked = engine.step(psi)
        lost += leaked
    return register_order(register_of(psi0.n_orbitals, engine.sectors), engine.sectors), psi, lost


def evolve_sector_density(
    psi0: FockState,
    thc: ThcFactorization,
    hamiltonian: ElectronicHamiltonian,
    n_steps: int,
    spec: StepSpec,
) -> tuple[float, float]:
    """Step the density rho_S on the sectors S of ``psi0`` by :func:`density_step`.

    Returns the trace distance 1/2 ||rho_S - phi phi^dagger||_1 (by
    ``eigvalsh``) + 1/2 sum of the leaked weights, and that sum.
    """
    support, rho, lost = step_sector_density(psi0, thc, hamiltonian, n_steps, spec)
    op = build_many_body_operator(hamiltonian, register_of(psi0.n_orbitals, psi0.sectors).sectors)
    phi = register_evolution(op, to_register(psi0), n_steps * spec.tau)[support]
    diff = rho - np.outer(phi, phi.conj())
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum()) + 0.5 * lost, lost


# ---------------------------------------------------------------------------
# extended-precision reference for one electron per spin


def _expm_long_double(a: np.ndarray) -> np.ndarray:
    """e^a by a scaled and squared Taylor series in ``np.clongdouble``."""
    norm = np.abs(a).sum(axis=0).max()
    squarings = max(0, int(np.ceil(np.log2(float(norm) / 0.25)))) if norm > 0 else 0
    scaled = a / np.longdouble(2) ** squarings
    term = np.eye(len(a), dtype=np.clongdouble)
    out = term.copy()
    for k in range(1, 30):
        term = term @ scaled / np.longdouble(k)
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _one_electron_per_spin(psi0: FockState, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The system states X[i, j] of one up electron in orbital i and one down
    electron in orbital j, row by row, and ``psi0`` over every basis index
    of the two-spin register; ``psi0`` must lie on those states."""
    if not register_of(n, psi0.sectors).spinful or psi0.n_orbitals != n:
        raise ValueError("need a psi0 on two-spin sectors of the factorization's orbitals")
    cells = np.array([(1 << i) | (1 << (n + j)) for i in range(n) for j in range(n)])
    amplitudes = to_register(psi0)
    if np.any(np.delete(amplitudes, cells)):
        raise ValueError("psi0 must hold one electron per spin")
    return cells, amplitudes


def exact_evolution_long_double(
    psi0: FockState, hamiltonian: ElectronicHamiltonian, t: float
) -> np.ndarray:
    """e^{-iHt} psi0 in ``np.clongdouble`` over the system basis, for a
    ``psi0`` with one electron per spin: the Taylor exponential of
    the sector block of the Hamiltonian, accumulated string by string in
    extended precision."""
    cells, amplitudes = _one_electron_per_spin(psi0, hamiltonian.n_orbitals)
    cld = np.clongdouble
    sector = dense_hamiltonian(hamiltonian, spinful=True, dtype=cld)[np.ix_(cells, cells)]
    out = np.zeros(amplitudes.size, dtype=cld)
    out[cells] = (_expm_long_double(-cld(1j) * np.longdouble(t) * sector)
                  @ amplitudes[cells].astype(cld))
    return out


def _compound_long_double(q: np.ndarray, k: int) -> np.ndarray:
    """Lambda^k(Q) on one spin's k-particle strings of ``len(q)`` modes,
    ascending: entry (i, j) is the minor of Q on the modes of strings i and
    j, summed permutation by permutation (Leibniz) in Q's dtype."""
    m = len(q)
    modes = [np.flatnonzero((s >> np.arange(m)) & 1) for s in sector_indices(m, k)]
    signed = [(perm, (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2)))
              for perm in itertools.permutations(range(k))]
    out = np.zeros((len(modes), len(modes)), dtype=q.dtype)
    for i, rows in enumerate(modes):
        for j, cols in enumerate(modes):
            for perm, sign in signed:
                term = q.dtype.type(sign)
                for a in range(k):
                    term = term * q[rows[a], cols[perm[a]]]
                out[i, j] += term
    return out


def _norm_long_double(a: np.ndarray) -> np.longdouble:
    """The spectral norm of a long-double matrix, as the long-double Rayleigh
    quotient of a^dagger a at the float64 top right singular vector, which
    is exact to second order in that vector's error."""
    if a.size == 0:
        return np.longdouble(0)
    v = np.linalg.svd(a.astype(complex))[2][0].conj().astype(np.clongdouble)
    av = a @ v
    return np.sqrt(np.vdot(av, av).real / np.vdot(v, v).real)


def projection_bound_long_double(thc: ThcFactorization, spec: StepSpec) -> np.longdouble:
    """``projection_error_bound`` on every two-spin sector in ``np.clongdouble``:
    on every (N_up, N_down) sector, U P on the sector's grid X[d, u] of down and up strings of m
    modes, with C_k = Lambda^k(Q) from the Leibniz minors, against the
    Taylor exponential of the sector's block of V' accumulated string by
    string.  The two norms are those of block-diagonal matrices, so each is
    the largest of its sectors' block norms."""
    n, m = thc.n, thc.m
    ld, cld = np.longdouble, np.clongdouble
    i_unit = cld(1j)
    tau = ld(spec.tau)
    q = single_particle_matrix(givens_decompose(thc.u), dtype=cld)
    vs = (thc.vtilde.astype(ld) + thc.vtilde.T.astype(ld)) / 2
    if spec.variant == "basic":
        blocks = [(None, tau)]
    else:
        phi1, phi2, phi3 = (ld(p) for p in spec.phases)
        blocks = [(None, tau / 4), (phi3, tau / 4), (phi2, tau / 4), (phi1, tau / 4)]
    vprime = ElectronicHamiltonian(n, 0.0, np.zeros((n, n)),
                                   projected_interaction(thc.u, thc.vtilde))
    dense = dense_hamiltonian(vprime, spinful=True, dtype=cld)
    term1 = term2 = ld(0)
    for n_up in range(n + 1):
        for n_down in range(n + 1):
            down, up = sector_indices(m, n_down), sector_indices(m, n_up)
            # per-orbital occupation N_a of each cell, summed over spin
            occ = [((s[:, None] >> np.arange(m)) & 1).astype(ld) for s in (down, up)]
            total = occ[0][:, None, :] + occ[1][None, :, :]
            theta = (np.einsum("dua,ab,dub->du", total, np.triu(vs, 1), total)
                     + (np.diag(vs) * total * (total - 1)).sum(axis=2) / 2)
            ancillas = total[:, :, n:].sum(axis=2)
            c_down, c_up = _compound_long_double(q, n_down), _compound_long_double(q, n_up)
            d_sys, u_sys = np.flatnonzero(down < (1 << n)), np.flatnonzero(up < (1 << n))
            columns = []
            for d in d_sys:
                for u in u_sys:
                    x = np.zeros((down.size, up.size), dtype=cld)
                    x[d, u] = 1
                    for phi, block_tau in blocks:
                        if phi is not None:
                            x = np.exp(i_unit * phi * ancillas) * x
                        x = c_down @ x @ c_up.T
                        x = np.exp(-i_unit * block_tau * theta) * x
                        x = c_down.conj().T @ x @ c_up.conj()
                    columns.append(x)
            up_p = np.stack(columns, axis=2)  # rows (d, u), one column per system cell
            vacuum = np.zeros(up_p.shape[:2], dtype=bool)
            vacuum[np.ix_(d_sys, u_sys)] = True
            states = ((down[d_sys, None] << n) | up[None, u_sys]).ravel()
            ideal = _expm_long_double(-i_unit * tau * dense[np.ix_(states, states)])
            term1 = max(term1, _norm_long_double(up_p[vacuum] - ideal))
            term2 = max(term2, _norm_long_double(up_p[~vacuum]) ** 2 / 2)
    return term1 + term2


def distance_long_double(
    support: np.ndarray, state: np.ndarray, lost: float, phi: np.ndarray
) -> np.longdouble:
    """1/2 ||sigma - phi phi^dagger||_1 + lost / 2 in extended precision, for
    a state on the system states ``support``: a vector psi (sigma =
    psi psi^dagger) or a density sigma, against ``phi`` over the system basis.

    A vector's trace norm is the rank-two closed form in long double.  A
    density's difference is formed in long double and rounded to complex128
    for ``eigvalsh``, which numpy has in double only; the rounding moves
    the trace norm by about 1e-16 of the difference's norm.
    """
    phi = phi[support]
    state = state.astype(np.clongdouble)
    if state.ndim == 1:
        a = np.vdot(state, state).real
        perp = phi - state * (np.vdot(state, phi) / a)
        trace_norm = np.sqrt((a - 1) ** 2 + 4 * a * np.vdot(perp, perp).real)
    else:
        diff = (state - np.outer(phi, phi.conj())).astype(complex)
        trace_norm = np.longdouble(np.abs(np.linalg.eigvalsh(diff)).sum())
    return trace_norm / 2 + np.longdouble(lost) / 2


def evolve_long_double(
    psi0: FockState,
    thc: ThcFactorization,
    hamiltonian: ElectronicHamiltonian,
    n_steps: int,
    spec: StepSpec,
) -> tuple[np.longdouble, np.longdouble]:
    """``evolve`` in ``np.clongdouble`` for a ``psi0`` with one electron per
    spin.

    The extended states of that sector form the grid X[i, j], up electron in
    orbital slot i and down electron in slot j.  A basis rotation acts as
    X -> Q X Q^T; the two-body phase of cell (i, j) is e^{-i tau vs[i, j]}
    (vs the symmetrized core), the one-body phase e^{-i tau (e_i + e_j)/2},
    the ancilla phase e^{i phi (b_i + b_j)}.  Each step keeps the system
    block i, j < n (K_0) and counts the weight outside it as leaked.  The
    reference is :func:`exact_evolution_long_double`.  Returns the trace
    distance and the leaked weight, as long doubles.
    """
    n, m = thc.n, thc.m
    cells, amplitudes = _one_electron_per_spin(psi0, n)
    ld, cld = np.longdouble, np.clongdouble
    i_unit = cld(1j)
    tau = ld(spec.tau)
    q = single_particle_matrix(givens_decompose(thc.u), dtype=cld)
    vs = (thc.vtilde.astype(ld) + thc.vtilde.T.astype(ld)) / 2
    energy = np.concatenate([_diagonal_entries(hamiltonian), np.zeros(m - n)]).astype(ld)
    one_body = np.exp(-i_unit * (tau / 2) * (energy[:, None] + energy[None, :]))
    ancillas = (np.arange(m) >= n).astype(ld)
    occupied = ancillas[:, None] + ancillas[None, :]
    if spec.variant == "basic":
        blocks = [(None, tau)]
    else:
        phi1, phi2, phi3 = (ld(p) for p in spec.phases)
        blocks = [(None, tau / 4), (phi3, tau / 4), (phi2, tau / 4), (phi1, tau / 4)]

    grid = np.zeros((m, m), dtype=cld)
    grid[:n, :n] = amplitudes[cells].reshape(n, n)
    lost = ld(0)
    for _ in range(n_steps):
        grid = one_body * grid
        for phi, block_tau in blocks:
            if phi is not None:
                grid = np.exp(i_unit * phi * occupied) * grid
            grid = q @ grid @ q.T
            grid = np.exp(-i_unit * block_tau * vs) * grid
            grid = q.conj().T @ grid @ q.conj()
        grid = one_body * grid
        lost += (np.abs(grid[occupied > 0]) ** 2).sum()
        grid[occupied > 0] = 0

    phi = exact_evolution_long_double(psi0, hamiltonian, n_steps * spec.tau)
    return distance_long_double(cells, grid[:n, :n].reshape(-1), lost, phi), lost


# ---------------------------------------------------------------------------
# THC refinement: two core solves per step, einsum order planned per call


def projected_interaction_reference(u: np.ndarray, vtilde: np.ndarray) -> np.ndarray:
    vs = 0.5 * (vtilde + vtilde.T)
    return np.einsum("ia,ja,ab,kb,lb->ijkl", u, u, vs, u, u, optimize=True)


def loss_gradient_reference(
    u: np.ndarray, hamiltonian: ElectronicHamiltonian, vtilde: np.ndarray
) -> np.ndarray:
    vs = 0.5 * (vtilde + vtilde.T)
    residual = hamiltonian.eri - projected_interaction_reference(u, vs)
    half = np.einsum("ab,kb,lb->akl", vs, u, u, optimize=True)
    return -8.0 * np.einsum("pjkl,ja,akl->pa", residual, u, half, optimize=True)


def refine_reference(
    hamiltonian: ElectronicHamiltonian, u0: np.ndarray, cfg: RefineConfig
) -> ThcFactorization:
    """The Adam loop of ``isothc.thc.refine`` that re-solves the core for each gradient."""
    u = polar_retract(np.asarray(u0, dtype=float))
    moment1 = np.zeros_like(u)
    moment2 = np.zeros_like(u)
    step_count = 0
    best: dict = {"eps_v": np.inf}

    def consider(candidate: np.ndarray) -> None:
        vtilde, htilde = contract_vtilde(candidate, hamiltonian)
        thc = ThcFactorization(u=candidate, vtilde=vtilde, htilde=htilde)
        eps_v, eps_h = approximation_errors(hamiltonian, thc)
        if eps_v < best["eps_v"]:
            best.update(
                {"eps_v": eps_v, "eps_h": eps_h, "u": candidate,
                 "vtilde": vtilde, "htilde": htilde}
            )

    consider(u)
    for rounds, lr in [(cfg.rounds_phase1, cfg.lr_phase1), (cfg.rounds_phase2, cfg.lr_phase2)]:
        for _ in range(rounds):
            vtilde, _ = contract_vtilde(u, hamiltonian)
            grad = loss_gradient_reference(u, hamiltonian, vtilde)
            step_count += 1
            moment1 = ADAM_BETA1 * moment1 + (1.0 - ADAM_BETA1) * grad
            moment2 = ADAM_BETA2 * moment2 + (1.0 - ADAM_BETA2) * grad**2
            hat1 = moment1 / (1.0 - ADAM_BETA1**step_count)
            hat2 = moment2 / (1.0 - ADAM_BETA2**step_count)
            u = polar_retract(u - lr * hat1 / (np.sqrt(hat2) + ADAM_EPSILON))
            consider(u)

    return ThcFactorization(
        u=best["u"], vtilde=best["vtilde"], htilde=best["htilde"],
        eps_v=best["eps_v"], eps_h=best["eps_h"], seed=cfg.seed,
    )
