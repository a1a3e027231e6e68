"""Exact simulation primitives on small fermionic Fock spaces.

Basis states are occupation-number strings of ``m`` modes, with mode 0 as
the least significant bit of the basis index.  A ``FockState`` holds one
amplitude vector or a block of columns (shape ``(len(rows), k)``) over the
ascending basis states ``rows``, every basis state by default, so one pass
of a circuit over basis columns compiles those columns of its unitary.  The
gate kernels act on ``FockState`` only and read their bit tables from
``rows``; since every gate conserves each spin's particle number, a block
on the rows of a few (N_up, N_down) sectors steps exactly as the same rows
of the full basis would.  A ``FockDensity`` is the state of the
system register between Trotter steps, a target of ``exact_evolution`` and
an argument of ``trace_distance``.  Layouts distinguish system modes
(``a``) from ancilla modes (``b``); in a spinful layout the up-spin sector
occupies modes ``0 .. sector_size-1`` and the down-spin sector the next
``sector_size`` modes, with a-modes before b-modes inside each sector, and
every gate acts on both sectors.  ``algorithm`` alone splits an extended
basis index into its a and b strings, and applies the ancilla reset as a
Kraus map.

The only entangling gate is the Givens rotation on adjacent modes
``(p, p+1)``, which avoids Jordan-Wigner strings entirely.  Its action on
the two-mode occupation basis ``(|00>, |10>, |01>, |11>)`` (bit p first) is

        [[1,        0,                    0,         0],
         [0,  cos(theta), -exp(-i phi) sin(theta),   0],
         [0,  exp(i phi) sin(theta),  cos(theta),    0],
         [0,        0,                    0,         1]],

so on the single-particle sector it reduces to the plane rotation
``[[cos, -sin], [sin, cos]]`` (for ``phi = 0``) acting on the amplitude
pair ``(p, p+1)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hamiltonian import ManyBodyOperator, _ascending_rows

__all__ = [
    "InvariantError",
    "ModeLayout",
    "FockState",
    "FockDensity",
    "GivensRotation",
    "GivensSequence",
    "RowTables",
    "basis_state",
    "givens_decompose",
    "apply_basis_rotation",
    "apply_diagonal_one_body",
    "apply_diagonal_two_body",
    "phase_on_ancillas",
    "trace_distance",
    "exact_evolution",
]

class InvariantError(ValueError):
    """A simulation invariant (trace, rotation count) failed to hold."""


@dataclass(frozen=True)
class ModeLayout:
    """How register modes split into system and ancilla modes."""

    n_system: int
    n_ancilla: int
    spinful: bool = False

    def __post_init__(self) -> None:
        if self.n_system < 1 or self.n_ancilla < 0:
            raise ValueError("need n_system >= 1 and n_ancilla >= 0")

    @property
    def sector_size(self) -> int:
        return self.n_system + self.n_ancilla

    @property
    def n_sectors(self) -> int:
        return 2 if self.spinful else 1

    @property
    def n_modes(self) -> int:
        return self.n_sectors * self.sector_size

    @property
    def dim(self) -> int:
        return 1 << self.n_modes

    @property
    def system_modes(self) -> tuple[int, ...]:
        return tuple(
            s * self.sector_size + i
            for s in range(self.n_sectors)
            for i in range(self.n_system)
        )

    @property
    def ancilla_modes(self) -> tuple[int, ...]:
        return tuple(
            s * self.sector_size + i
            for s in range(self.n_sectors)
            for i in range(self.n_system, self.sector_size)
        )

    def system_only(self) -> "ModeLayout":
        return ModeLayout(self.n_system, 0, self.spinful)


def _check_dim(array: np.ndarray, n_rows: int, want_matrix: bool) -> np.ndarray:
    arr = np.asarray(array, dtype=complex)
    # a pure state may be a block of columns
    want = (n_rows, n_rows) if want_matrix else (n_rows,) + arr.shape[1:2]
    if arr.shape != want:
        raise ValueError(f"array shape {arr.shape} does not match layout dim {want}")
    return arr


@dataclass
class FockState:
    """Pure state amplitudes over the occupation basis, or a block of columns.

    Row ``i`` of ``amplitudes`` belongs to basis state ``rows[i]``; ``rows``
    holds ascending basis indices and defaults to every basis state.  The
    gate kernels act on the listed rows only, so a block on fewer rows must
    be closed under every gate applied to it, as a union of per-spin
    particle-number sectors is.
    """

    layout: ModeLayout
    amplitudes: np.ndarray
    rows: np.ndarray | None = None

    def __post_init__(self) -> None:
        dim = self.layout.dim
        self.rows = np.arange(dim) if self.rows is None else _ascending_rows(self.rows, dim)
        self.amplitudes = _check_dim(self.amplitudes, self.rows.size, want_matrix=False)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def density(self) -> "FockDensity":
        return FockDensity(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass
class FockDensity:
    """Density matrix over the occupation basis."""

    layout: ModeLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = _check_dim(self.matrix, self.layout.dim, want_matrix=True)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def basis_state(layout: ModeLayout, occupations: str | list[int]) -> FockState:
    """Computational basis state; ``occupations[k]`` is the filling of mode k."""
    occ = [int(c) for c in occupations]
    if len(occ) != layout.n_modes or any(o not in (0, 1) for o in occ):
        raise ValueError(f"need {layout.n_modes} binary occupations, got {occupations!r}")
    index = sum(bit << k for k, bit in enumerate(occ))
    amplitudes = np.zeros(layout.dim, dtype=complex)
    amplitudes[index] = 1.0
    return FockState(layout, amplitudes)


# ---------------------------------------------------------------------------
# Basis-rotation circuits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GivensRotation:
    """One rotation on the adjacent mode pair (p, q = p + 1)."""

    p: int
    q: int
    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if self.q != self.p + 1:
            raise ValueError("rotations act on adjacent modes only")


@dataclass(frozen=True)
class GivensSequence:
    """An ordered rotation circuit plus residual single-mode phases.

    Applied to a register, the phases act first and the rotations follow in
    list order.  The equivalent single-particle matrix is

        Q = R(r_K) ... R(r_1) diag(exp(i phases)),

    and by construction of :func:`givens_decompose` the first ``n`` columns
    of Q are the transposed rows of the ``n x m`` co-isometry it decomposes.
    """

    n_modes: int
    rotations: tuple[GivensRotation, ...]
    diagonal_phases: np.ndarray

    def __post_init__(self) -> None:
        phases = np.asarray(self.diagonal_phases, dtype=float)
        if phases.shape != (self.n_modes,):
            raise ValueError("need one residual phase per mode")
        object.__setattr__(self, "diagonal_phases", phases)
        for r in self.rotations:
            if not 0 <= r.p < r.q < self.n_modes:
                raise ValueError(f"rotation {r} outside of {self.n_modes} modes")

    def __len__(self) -> int:
        return len(self.rotations)

    def single_particle_matrix(self) -> np.ndarray:
        q = np.diag(np.exp(1j * self.diagonal_phases))
        for r in self.rotations:
            c, s = np.cos(r.theta), np.sin(r.theta)
            rot = np.eye(self.n_modes, dtype=complex)
            rot[r.p, r.p] = c
            rot[r.p, r.q] = -np.exp(-1j * r.phi) * s
            rot[r.q, r.p] = np.exp(1j * r.phi) * s
            rot[r.q, r.q] = c
            q = rot @ q
        return q

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_modes": self.n_modes,
                "rotations": [
                    {"p": r.p, "q": r.q, "theta": r.theta, "phi": r.phi}
                    for r in self.rotations
                ],
                "residual_diagonal_phases": self.diagonal_phases.tolist(),
            }
        )


def givens_decompose(u: np.ndarray) -> GivensSequence:
    """Givens circuit on ``m`` modes whose first ``n`` single-particle columns
    are the transposed rows of the ``n x m`` co-isometry ``u``.

    Only the action on the system-mode block is pinned down, which caps the
    rotation count at ``C(m, 2) - C(m - n, 2)`` instead of the full
    ``C(m, 2)``.  Rotations on already-zero entries are skipped, so the
    leading rows of an identity yield an empty sequence.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or not 1 <= u.shape[0] <= u.shape[1]:
        raise ValueError(f"u must be n x m with 1 <= n <= m, got shape {u.shape}")
    n, m = u.shape
    if np.max(np.abs(u @ u.T - np.eye(n))) > 1e-8:
        raise ValueError("rows of u are not orthonormal within tolerance")

    a = u.T.copy()  # m x n
    elimination: list[tuple[int, float]] = []
    for col in range(n):
        for row in range(m - 1, col, -1):
            top, bot = a[row - 1, col], a[row, col]
            if abs(bot) < 1e-14:
                continue
            theta = np.arctan2(-bot, top)
            c, s = np.cos(theta), np.sin(theta)
            block = a[row - 1 : row + 1, :].copy()
            a[row - 1, :] = c * block[0] - s * block[1]
            a[row, :] = s * block[0] + c * block[1]
            elimination.append((row - 1, theta))

    max_count = m * (m - 1) // 2 - (m - n) * (m - n - 1) // 2
    if len(elimination) > max_count:
        raise InvariantError(
            f"{len(elimination)} rotations exceed the budget of {max_count}"
        )
    phases = np.zeros(m)
    for j in range(n):
        if a[j, j] < 0:
            phases[j] = np.pi
    rotations = tuple(
        GivensRotation(p, p + 1, -theta) for p, theta in reversed(elimination)
    )
    return GivensSequence(n_modes=m, rotations=rotations, diagonal_phases=phases)


# ---------------------------------------------------------------------------
# Gate application
# ---------------------------------------------------------------------------

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
    """The gate kernels' tables that depend on a state's rows alone: the
    partner rows of each Givens pair, the orbital occupations and the
    two-body phase of each (vtilde, tau) applied so far.

    Build one for a block and pass it to every kernel call on the block's
    rows (the kernels keep the rows of their input), so the tables are
    built once however many gates act; a kernel refuses the tables of
    other rows.
    """

    def __init__(self, state: FockState) -> None:
        self.layout, self.rows = state.layout, state.rows
        self._pairs: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        # keyed by (vtilde.tobytes(), tau)
        self.two_body_phases: dict[tuple[bytes, float], np.ndarray] = {}

    def check(self, state: FockState) -> None:
        if state.rows is not self.rows:
            raise ValueError("row tables were built for the rows of another state")

    def pair(self, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
        """``_pair_indices`` of modes p and q, looked up once."""
        if (p, q) not in self._pairs:
            self._pairs[p, q] = _pair_indices(self.rows, p, q)
        return self._pairs[p, q]

    @cached_property
    def occupations(self) -> np.ndarray:
        """Occupation of each orbital slot, summed over spin, in each basis
        state of the rows, as floats."""
        layout, rows = self.layout, self.rows
        occ = np.zeros((layout.sector_size, rows.size))
        for alpha in range(layout.sector_size):
            total = (rows >> alpha) & 1
            if layout.spinful:
                total = total + ((rows >> (alpha + layout.sector_size)) & 1)
            occ[alpha] = total
        return occ


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


def _apply_diagonal(state: FockState, diag: np.ndarray) -> FockState:
    return FockState(state.layout, _scale_rows(diag, state.amplitudes), state.rows)


def apply_basis_rotation(
    state: FockState,
    sequence: GivensSequence,
    tables: RowTables,
    inverse: bool = False,
) -> FockState:
    """Apply a Givens-rotation circuit (or its inverse) to a state.

    For spinful layouts the same sequence acts on both spin sectors; mode
    indices inside the sequence are sector-relative.  ``tables`` are the
    :class:`RowTables` of the state's rows.
    """
    tables.check(state)
    layout = state.layout
    if sequence.n_modes != layout.sector_size:
        raise ValueError(
            f"sequence on {sequence.n_modes} modes does not fit sector size "
            f"{layout.sector_size}"
        )
    offsets = [sector * layout.sector_size for sector in range(layout.n_sectors)]

    phase_per_mode = np.tile(sequence.diagonal_phases, layout.n_sectors)
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
    return FockState(layout, out, rows)


# ---------------------------------------------------------------------------
# Diagonal evolutions and ancilla operations
# ---------------------------------------------------------------------------

def apply_diagonal_one_body(
    state: FockState, h_diag: np.ndarray, tau: float
) -> FockState:
    """Evolve by ``exp(-i tau sum_p h_diag[p] n_p)`` (one entry per mode)."""
    layout = state.layout
    h_diag = np.asarray(h_diag, dtype=float)
    if h_diag.shape != (layout.n_modes,):
        raise ValueError(f"h_diag must have length {layout.n_modes}")
    rows = state.rows
    energy = np.zeros(rows.size)
    for mode, value in enumerate(h_diag):
        if value != 0.0:
            energy = energy + value * ((rows >> mode) & 1)
    return _apply_diagonal(state, np.exp(-1j * tau * energy))


def apply_diagonal_two_body(
    state: FockState, vtilde: np.ndarray, tau: float, tables: RowTables
) -> FockState:
    """Evolve by the mode-diagonal two-body interaction.

    The phase of basis state ``n`` is ``exp(-i tau E(n))`` with

        E(n) = 1/2 sum_{(a,s) != (b,t)} vtilde[a, b] n_{a,s} n_{b,t},

    spin labels ranging over one (spinless) or two (spinful) values.  With
    ``N_a`` the spin-summed occupation of orbital slot ``a`` this is

        E(n) = sum_{a<b} vs[a, b] N_a N_b + 1/2 sum_a vs[a, a] N_a (N_a - 1)

    for the symmetrized ``vs``; diagonal entries of ``vtilde`` therefore
    drop out of the spinless phase, where ``N_a (N_a - 1) = 0``.
    ``tables`` are the :class:`RowTables` of the state's rows; they keep
    the phase, so the improved step's four quarter blocks compute it once.
    """
    tables.check(state)
    layout = state.layout
    m = layout.sector_size
    vtilde = np.asarray(vtilde, dtype=float)
    if vtilde.shape != (m, m):
        raise ValueError(f"vtilde must be {m} x {m} for this layout")
    key = (vtilde.tobytes(), tau)
    if key not in tables.two_body_phases:
        vs = 0.5 * (vtilde + vtilde.T)
        occ = tables.occupations
        energy = np.zeros(state.rows.size)
        for a in range(m):
            for b in range(a + 1, m):
                if vs[a, b] != 0.0:
                    energy += vs[a, b] * occ[a] * occ[b]
            energy += 0.5 * vs[a, a] * occ[a] * (occ[a] - 1.0)
        tables.two_body_phases[key] = np.exp(-1j * tau * energy)
    return _apply_diagonal(state, tables.two_body_phases[key])


def phase_on_ancillas(state: FockState, phi: float) -> FockState:
    """Apply ``exp(+i phi N_b)`` where ``N_b`` counts occupied ancillas."""
    rows = state.rows
    count = np.zeros(rows.size, dtype=np.int64)
    for mode in state.layout.ancilla_modes:
        count += (rows >> mode) & 1
    return _apply_diagonal(state, np.exp(1j * phi * count))


# ---------------------------------------------------------------------------
# Distances and exact references
# ---------------------------------------------------------------------------

def trace_distance(
    rho: FockDensity | FockState, sigma: FockDensity | FockState
) -> float:
    """Trace distance ``1/2 || rho - sigma ||_1`` between two states."""
    if isinstance(rho, FockState):
        rho = rho.density()
    if isinstance(sigma, FockState):
        sigma = sigma.density()
    if rho.matrix.shape != sigma.matrix.shape:
        raise ValueError("states live on different register sizes")
    diff = rho.matrix - sigma.matrix
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def exact_evolution(
    op: ManyBodyOperator, state: FockState | FockDensity, t: float
) -> FockState | FockDensity:
    """Evolve a state by ``exp(-i op t)`` via the cached eigensystem.

    The state must live on the operator's rows: a ``FockState`` on the same
    ``rows``, a ``FockDensity`` (every basis state) on an operator built on
    every basis state.
    """
    layout = state.layout
    if op.n_modes != layout.n_modes:
        raise ValueError(
            f"operator on {op.n_modes} modes cannot evolve a {layout.n_modes}-mode state"
        )
    if not (np.array_equal(op.rows, state.rows) if isinstance(state, FockState)
            else op.rows.size == layout.dim):
        raise ValueError("the state does not live on the operator's rows")
    if isinstance(state, FockState):
        w, v = op.eigensystem()
        phases = np.exp(-1j * w * t)
        return FockState(layout, v @ (phases * (v.conj().T @ state.amplitudes).T).T,
                         state.rows)
    u = op.propagator(t)
    return FockDensity(layout, u @ state.matrix @ u.conj().T)
