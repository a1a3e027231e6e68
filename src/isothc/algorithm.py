"""Trotter steps built from isometric THC factors, and their errors.

One step of the second-order Trotter formula evolves an extended register
(system modes plus one ancilla mode per extra THC rank) by

    e^{-i h tau/2} . U_int . e^{-i h tau/2} . reset ancillas,

where the interaction unitary rotates into the basis that diagonalizes the
THC core, applies mode-diagonal two-body phases, and rotates back.  The
basic variant uses a single diagonal block; the improved variant splits it
into four quarter-angle blocks interleaved with number-counting phases on
the physical ancilla modes, chosen so the leading leakage amplitudes out of
the ancilla vacuum cancel.

Since the ancillas start every step in the vacuum and are reset after it,
only the ancilla-vacuum columns U P of the step unitary are ever compiled,
and only on the rows that can be nonzero.  The extended register exists
only inside the step engine; every public function takes and returns
system-only states, in the sector-major order of ``hamiltonian``.  A
sector's extended cells are its grid of down and up strings of m modes
per spin, and its system cells, the columns, are the same grid over the
n system modes.  The system strings are the first C(n, k) of the
ascending C(m, k) strings, so the system cell (d, u) is the extended cell
(d, u) of the same sector: K_0 is the grid's top-left corner.

The step conserves the particle number of each spin on the extended
register, so the vacuum block K_0 = <0|U|., 0> maps every (N_up, N_down)
sector of the system into itself, while a row with an occupied ancilla
lowers the system's particle number; no weight ever flows back.  A pure
state of one total particle number N, supported on the set S of its
(N_up, N_down) sectors, therefore evolves into psi psi^dagger (+) rho_low,
with psi -> K_0 psi step after step and rho_low below N, while the exact
reference phi stays in S.  The trace distance splits exactly into
1/2 ||psi psi^dagger - phi phi^dagger||_1 + 1/2 tr rho_low, and tr rho_low
is the sum of the weights psi^dagger G psi the steps moved out of S, with
G the Gram matrix of the rows that leave the ancilla vacuum.

Every step-level function takes its step as one ``StepSpec`` (timestep,
variant and phases), and no other argument restates it.  One step engine
serves every caller.  It builds its extended layout from the factorization
and compiles the columns on a support S of whole sectors one sector at a
time, over the extended states in that sector, the only rows U P can
reach, and reduces each sector's block at once to its K_0 and G, written
into the stack [K_0; G] on S.  ``evolve`` passes the sectors of its input
and steps one vector; the measured projection error is one step of
``evolve`` under V' alone, and the projection bound reads [K_0; G] on
every system sector.

The compile works one sector at a time on its string grid: the sector's
extended states are the cells (d, u) of a down-spin string d and an up-spin
string u, so a column of U P is a C(m, N_down) x C(m, N_up) matrix X.  The
Givens circuit acts on each spin alone, and on k-particle strings it is
one matrix, its compound C_k = Lambda^k(Q), built once per factorization
and k by running the circuit on the identity over the strings of
``hamiltonian._string_tables``, the per-spin tables the exact reference is
built from; a basis rotation is then X -> C_down X C_up^T, two matrix
products per column block instead of one kernel call per gate.  An
interaction block is applied as x + G^dagger((e^{-i tau E} - 1) (G x)), so
its identity part is exact, and the one-body, two-body and ancilla phases
are per-cell arrays built from the two spins' occupation tables.  A
spinless layout is the same grid with one down string, the empty one.  A
sector's block, and so its K_0 and G, depends on that sector alone, so it
is bit for bit the same in every engine whose support holds the sector.

Per-step accuracy decomposes into three pieces: the factorization error
(operator distance between the true and recontracted interactions), the
Trotter error, and the projection error from resetting ancillas.
``error_budget`` estimates all three with exactly computed norms; given a
state psi, it measures the projection error on e^{-i h tau/2} psi, the
state the interaction block acts on, with the engine's one-body phases.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .focksim import (
    FockState,
    GivensSequence,
    InvariantError,
    ModeLayout,
    basis_state,
    exact_evolution,
    givens_decompose,
)
from .hamiltonian import (
    ElectronicHamiltonian,
    MemoryRefusal,
    _admit_memory,
    _sector_list,
    _sector_offsets,
    _string_tables,
    build_many_body_operator,
    operator_memory_bytes,
)
from .thc import ThcFactorization, approximation_errors, projected_interaction

__all__ = [
    "DEFAULT_PHASES",
    "StepSpec",
    "ErrorBudget",
    "EvolveResult",
    "hartree_fock_state",
    "evolve",
    "trotter_bound",
    "thc_bound",
    "projection_error_measured",
    "projection_error_bound",
    "error_budget",
    "phase_cancellation_sums",
]

DEFAULT_PHASES = (-np.pi / 2, np.pi, np.pi / 2)
DIAGONAL_TOL = 1e-10
# arrays the size of one sector's block of U P alive at once: the block and
# the compile's column chunks, then the block and its rows W off the vacuum,
# then W and its conjugate for G = W^dagger W (tracemalloc peaks of sector
# and every-system-sector engines at 16-20 modes: 2.0-2.4 copies of the
# largest block, per-cell arrays included)
STEP_WORKING_COPIES = 3
# bytes per row of a sector's block besides the copies: per-cell phases and
# energies and their temporaries, and the chunk arrays' rounding up to
# whole columns (one-column engines at 40 and 48 modes peak at 97-122 bytes
# per row, copies included, above the stack and compound matrices)
GRID_BYTES_PER_STATE = 192
# compound matrices, each kept with its adjoint, plus the identity a new
# one is built from
COMPOUND_COPIES = 3


@dataclass(frozen=True)
class StepSpec:
    """Variant and timestep of one Trotter step."""

    tau: float
    variant: str = "basic"
    phases: tuple[float, float, float] = DEFAULT_PHASES

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.variant not in ("basic", "improved"):
            raise ValueError(f"unknown variant {self.variant!r}")
        phases = tuple(float(p) for p in self.phases)
        if self.variant == "improved" and len(phases) != 3:
            raise ValueError("the improved variant takes exactly 3 phases")
        object.__setattr__(self, "phases", phases)


@dataclass(frozen=True)
class ErrorBudget:
    """Per-step error contributions of the THC Trotter step ``spec``.

    ``eps_thc_rate`` is per unit time; ``eps_tr`` and ``eps_pr`` are per
    step.
    """

    spec: StepSpec
    eps_thc_rate: float
    eps_tr: float
    eps_pr: float

    def __post_init__(self) -> None:
        for name in ("eps_thc_rate", "eps_tr", "eps_pr"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def total(self, t: float) -> float:
        """The budget of ``round(t / spec.tau)`` steps, as ``evolve`` takes them."""
        n_steps = int(round(t / self.spec.tau))
        return self.eps_thc_rate * t + n_steps * (self.eps_tr + self.eps_pr)


@dataclass(frozen=True)
class EvolveResult:
    """Outcome of :func:`evolve`.

    ``error_vs_exact`` is the trace distance between the stepped state (the
    vector on the input's sectors plus the weight that left them) and the
    exact evolution of ``psi0`` over ``t_simulated = n_steps * tau``.
    ``leaked_weight[k]`` is the weight step ``k`` moved to lower particle
    numbers through the ancillas it left occupied; the error counts half
    their sum.
    """

    error_vs_exact: float
    n_steps: int
    t_simulated: float
    leaked_weight: np.ndarray


def _step_bytes(n: int, m: int, sectors: list[tuple[int, ...]]) -> int:
    """Estimated peak bytes of a step engine on ``sectors`` of a factorization
    of n system and m extended modes per spin.

    The engine holds the stack [K_0; G] on the system states S of those
    sectors, with room for one |S| x |S| copy beside it (a norm of one half
    copies it), the compound matrices of each spin's particle count, and
    the working arrays of one sector at a time, whose U P has one column
    per system state of the sector and one row per extended state; the
    largest of them is charged.  Counted, not enumerated, so a register
    far too large is refused at once.
    """
    block = max((STEP_WORKING_COPIES * 16 * _sector_offsets(n, [counts])[-1]
                 + GRID_BYTES_PER_STATE) * _sector_offsets(m, [counts])[-1]
                for counts in sectors)
    columns = _sector_offsets(n, sectors)[-1]
    compounds = sum(math.comb(m, k) ** 2 for k in {k for counts in sectors for k in counts})
    return block + 3 * 16 * columns**2 + COMPOUND_COPIES * 16 * compounds


def _diagonal_entries(hamiltonian: ElectronicHamiltonian) -> np.ndarray:
    h = hamiltonian.h
    off = h - np.diag(np.diag(h))
    if np.max(np.abs(off)) > DIAGONAL_TOL:
        raise ValueError(
            "one-body part is not diagonal; rotate the Hamiltonian to its "
            "h eigenbasis first"
        )
    return np.diag(h).copy()


def hartree_fock_state(
    hamiltonian: ElectronicHamiltonian, n_electrons: int, spinful: bool = False
) -> FockState:
    """Aufbau product state in the (diagonal) one-body eigenbasis."""
    energies = _diagonal_entries(hamiltonian)
    n = hamiltonian.n_orbitals
    layout = ModeLayout(n, 0, spinful=spinful)
    capacity = layout.n_modes
    if not 0 <= n_electrons <= capacity:
        raise ValueError(f"cannot place {n_electrons} electrons in {capacity} spin-modes")
    order = np.argsort(energies, kind="stable")
    occupations = [0] * layout.n_modes
    for k in range(n_electrons):
        if spinful:
            orbital = order[k // 2]
            occupations[orbital + (k % 2) * n] = 1
        else:
            occupations[order[k]] = 1
    return basis_state(layout, occupations)


def _vprime_hamiltonian(thc: ThcFactorization) -> ElectronicHamiltonian:
    """The recontracted interaction V' alone, with no one-body part."""
    n = thc.n
    return ElectronicHamiltonian(n, 0.0, np.zeros((n, n)),
                                 projected_interaction(thc.u, thc.vtilde))


def _occupations(modes: int, counts: tuple[int, ...]) -> list[np.ndarray]:
    """The occupation of each of ``modes`` orbital slots in each down string,
    then each up string, of the sector ``counts``: the rows and columns of its grid."""
    n_up, n_down = (*counts, 0)[:2]
    return [((_string_tables(modes, k)[0][:, None] >> np.arange(modes)) & 1).astype(float)
            for k in (n_down, n_up)]


def _cells(occ: list[np.ndarray], per_string) -> np.ndarray:
    """A per-string quantity of each spin, summed on every cell of the grid."""
    return per_string(occ[0])[:, None] + per_string(occ[1])[None, :]


def _half_step_phases(occ: list[np.ndarray], energies: np.ndarray, tau: float) -> np.ndarray:
    """e^{-i h tau/2} on every cell of the grid, h diagonal with ``energies`` per slot."""
    return np.exp(-0.5j * tau * _cells(occ, lambda o: o @ energies))


def _blocks(state: FockState) -> dict[tuple[int, ...], np.ndarray]:
    """The amplitudes of each sector of ``state``, as views."""
    offsets = _sector_offsets(state.layout.sector_size, state.sectors)
    return {counts: state.amplitudes[start:stop]
            for counts, start, stop in zip(state.sectors, offsets, offsets[1:])}


def _sectors(psi0: FockState) -> list[tuple[int, ...]]:
    """The sectors (N_up, N_down) whose block of ``psi0`` is nonzero, ascending.

    ``(N,)`` when spinless.  Raises ``ValueError`` unless every amplitude of
    ``psi0`` lies at one total particle number.
    """
    sectors = [counts for counts, block in _blocks(psi0).items() if np.any(block)]
    totals = sorted({sum(sector) for sector in sectors})
    if len(totals) != 1:
        raise ValueError(f"psi0 must have one particle number, found {totals}")
    return sectors


def _on_sectors(state: FockState, sectors: list[tuple[int, ...]]) -> FockState:
    """``state`` on ``sectors``, some of its own that hold every nonzero
    amplitude of it: the gather of their blocks."""
    blocks = _blocks(state)
    return FockState(state.layout, np.concatenate([blocks[c] for c in sectors]), sectors)


@functools.lru_cache(maxsize=8)
def _decompose(u_bytes: bytes, shape: tuple[int, int]) -> GivensSequence:
    return givens_decompose(np.frombuffer(u_bytes).reshape(shape))


def _givens_circuit(thc: ThcFactorization) -> GivensSequence:
    """``givens_decompose(thc.u)``, decomposed once per factorization: every
    step engine of a sweep, and ``simulate``'s ``givens_sequence.json``,
    share it.  Keyed by the bytes of ``u`` (read-only), so equal factors
    share one circuit."""
    return _decompose(thc.u.tobytes(), thc.u.shape)


@functools.lru_cache(maxsize=32)
def _compound(u_bytes: bytes, shape: tuple[int, int], k: int) -> tuple[np.ndarray, np.ndarray]:
    """The compound matrix C_k of the Givens circuit of u (``_decompose``)
    and its adjoint: ``C_k[i, j]`` is the amplitude on the i-th k-particle
    string of one spin (ascending) of the circuit applied to the j-th.  The
    circuit runs once on the identity over those strings, cached per
    factorization and k: the phases first, then each rotation in order.
    The gate on (p, p + 1) mixes every string with p filled and p + 1
    empty with the string a+_{p+1} a_p leads to, read from the string
    tables; on adjacent modes that hop has sign +1."""
    m = shape[1]
    sequence = _decompose(u_bytes, shape)
    strings, pq, dest, _ = _string_tables(m, k)
    exponent = np.zeros(strings.size)
    for mode, phase in enumerate(sequence.diagonal_phases):
        if phase != 0.0:
            exponent = exponent + phase * ((strings >> mode) & 1)
    c = np.exp(1j * exponent)[:, None] * np.eye(strings.size, dtype=complex)
    # the strings with p filled and p + 1 empty, and where the hop takes each
    hops = [(x, dest[x, col]) for x, col in
            (np.nonzero(pq == (p + 1) * m + p) for p in range(m - 1))]
    for r in sequence.rotations:
        at_p, at_q = hops[r.p]
        cos, sin = np.cos(r.theta), np.sin(r.theta)
        xp, xq = c[at_p], c[at_q]  # gathers through index arrays are copies
        c[at_p] = cos * xp - np.exp(-1j * r.phi) * sin * xq
        c[at_q] = np.exp(1j * r.phi) * sin * xp + cos * xq
    c_h = c.T.conj()
    c.flags.writeable = c_h.flags.writeable = False
    return c, c_h


def _rotate(x: np.ndarray, c_down: np.ndarray, c_up: np.ndarray,
            work: np.ndarray, out: np.ndarray) -> None:
    """``out[:, :, j] = c_down @ x[:, :, j] @ c_up^T`` for every column j of
    the grid block ``x``, through ``work``; ``out`` may be ``x``."""
    np.matmul(c_down, x.reshape(x.shape[0], -1), out=work.reshape(x.shape[0], -1))
    np.matmul(c_up, work, out=out)


# ---------------------------------------------------------------------------
# The step circuit
# ---------------------------------------------------------------------------

class _StepEngine:
    """One compiled step on the extended layout of ``thc`` (``spinful`` or
    not), on the support S: the system cells of ``sectors``, (N_up, N_down)
    counts of at most n particles per spin, in sector-major order placed by
    ``col_offsets``.
    Each sector compiles over its own extended cells, the only rows U P
    can reach, straight into the sector's pair (K_0, G) of the stack
    ``[K_0; G]``; no U P outlives its sector.  A step larger than
    physical memory is refused before it compiles.
    """

    def __init__(
        self,
        thc: ThcFactorization,
        hamiltonian: ElectronicHamiltonian,
        spec: StepSpec,
        sectors: list[tuple[int, ...]],
        spinful: bool,
    ) -> None:
        if hamiltonian.n_orbitals != thc.n:
            raise ValueError("Hamiltonian size does not match the factorization")
        # one ancilla mode per spin for each rank past n
        layout = ModeLayout(thc.n, thc.m - thc.n, spinful)
        sectors = _sector_list(thc.n, layout.n_sectors, sectors)
        _admit_memory("the step", layout.n_modes, _step_bytes(thc.n, thc.m, sectors))
        self.layout = layout
        self.sectors = sectors
        self.col_offsets = _sector_offsets(thc.n, sectors)
        self.spec = spec
        self.thc = thc
        # one spin's one-body energy per orbital slot; ancillas carry none
        self.energies = np.concatenate([_diagonal_entries(hamiltonian),
                                        np.zeros(layout.n_ancilla)])
        self._dense: np.ndarray | None = None

    def dense_unitary(self) -> np.ndarray:
        """The step's Kraus stack ``[K_0; G]``, shape ``(2|S|, |S|)``: the
        vacuum block ``K_0 = <0|U|., 0>`` on the support, then G = W^dagger W
        of the rows W with an occupied ancilla.  Both are block-diagonal
        by sector, and each sector's pair is reduced from its U P as soon
        as that is compiled; cached.

        The name is kept from when this returned U P itself: the benchmark's
        tracer (``benchmarks/tracing.py``) times the first call as the
        step's compile, and renaming it is a change to the benchmark
        (ROADMAP item 1).
        """
        if self._dense is None:
            n = self.layout.n_system
            size = self.col_offsets[-1]
            stack = np.zeros((2 * size, size), dtype=complex)
            for counts, start, stop in zip(self.sectors, self.col_offsets, self.col_offsets[1:]):
                n_up, n_down = (*counts, 0)[:2]
                d_sys, u_sys, width = math.comb(n, n_down), math.comb(n, n_up), stop - start
                block = self._compile_sector(counts)
                # K_0 is the grid's corner of system strings; W is every
                # other row in ascending order: the corner's down strings
                # past its up strings, then every later down string
                stack[start:stop, start:stop] = block[:d_sys, :u_sys].reshape(width, width)
                w = np.concatenate([block[:d_sys, u_sys:].reshape(-1, width),
                                    block[d_sys:].reshape(-1, width)])
                del block  # before G's product copies W once more
                stack[size + start:size + stop, start:stop] = w.conj().T @ w
            self._dense = stack
        return self._dense

    def _compile_sector(self, counts: tuple[int, ...]) -> np.ndarray:
        """The columns of U P on one (N_up, N_down) sector, on its grid:
        ``X[d, u, j]`` is column j's amplitude on the cell of down string d
        and up string u (see the module docstring).  Columns compile in at
        most three chunks, whose three work arrays together hold
        3 ceil(C / 3) columns of the sector's C, about one block.  Nothing here
        depends on the other sectors, so a sector's block is bit for bit the
        same in every engine that compiles it.
        """
        layout, spec = self.layout, self.spec
        m, n = layout.sector_size, layout.n_system
        n_up, n_down = (*counts, 0)[:2]
        # columns: the system cells, the first C(n, k) strings of each spin
        d_sys, u_sys = (np.arange(math.comb(n, k)) for k in (n_down, n_up))
        col_d, col_u = np.repeat(d_sys, u_sys.size), np.tile(u_sys, d_sys.size)

        occ = _occupations(m, counts)
        one_body = _half_step_phases(occ, self.energies, spec.tau)
        # E = sum_{a<b} vs_ab N_a N_b + 1/2 sum_a vs_aa N_a (N_a - 1), with
        # N_a summed over spin: each spin's pairs, then the cross-spin pairs
        vs = 0.5 * (self.thc.vtilde + self.thc.vtilde.T)
        upper = np.triu(vs, 1)
        theta = _cells(occ, lambda o: ((o @ upper) * o).sum(axis=1)) + occ[0] @ vs @ occ[1].T
        ancillas = _cells(occ, lambda o: o[:, n:].sum(axis=1))
        if spec.variant == "basic":
            phases = [None]
        else:
            # rightmost factor of V P(phi1) V P(phi2) V P(phi3) V acts first
            phi1, phi2, phi3 = spec.phases
            phases = [None, phi3, phi2, phi1]
            theta *= 0.25
        theta *= spec.tau
        # e^{-i theta} - 1, without the cancellation of 1 - cos
        kick = -2.0 * np.sin(0.5 * theta) ** 2 - 1j * np.sin(theta)
        del theta

        u = self.thc.u
        (c_down, c_down_h), (c_up, c_up_h) = (_compound(u.tobytes(), u.shape, k)
                                              for k in (n_down, n_up))
        shape = (c_down.shape[0], c_up.shape[0])
        block = np.empty(shape + (col_d.size,), dtype=complex)
        chunk = -(-col_d.size // 3)
        # the three work arrays, allocated once for every chunk, so that no
        # chunk's arrays outlive the next one's allocation
        buffers = np.empty((3, math.prod(shape) * chunk), dtype=complex)
        for start in range(0, col_d.size, chunk):
            at = slice(start, start + chunk)
            width = col_d[at].size
            x, work, rotated = (b[:b.size // chunk * width].reshape(shape + (width,))
                                for b in buffers)
            start_phase = one_body[col_d[at], col_u[at]]
            x.fill(0)
            x[col_d[at], col_u[at], np.arange(width)] = start_phase
            # the rotation of a unit column is the outer product of two
            # compound columns
            np.multiply(c_down[:, col_d[at]][:, None, :],
                        (c_up[:, col_u[at]] * start_phase)[None, :, :], out=rotated)
            for phi in phases:
                if phi is not None:
                    x *= np.exp(1j * phi * ancillas)[:, :, None]
                    _rotate(x, c_down, c_up, work, rotated)
                rotated *= kick[:, :, None]
                _rotate(rotated, c_down_h, c_up_h, work, rotated)
                x += rotated
            x *= one_body[:, :, None]
            block[:, :, start:start + width] = x
        return block

    def step(self, psi: np.ndarray) -> tuple[np.ndarray, float]:
        """One Trotter step of a vector on the support of one particle
        number: ``K_0 psi``, and the weight that left the ancilla vacuum,
        ``psi^dagger G psi`` (one product with the stack ``[K_0; G]``)."""
        out = self.dense_unitary() @ psi
        size = psi.size
        return out[:size], float(np.vdot(psi, out[size:]).real)


def _pure_trace_norm(psi: np.ndarray, phi: np.ndarray) -> float:
    """``||psi psi^dagger - phi phi^dagger||_1`` for a unit ``phi``: the two
    eigenvalues sum to a - 1 and multiply to -a ||phi_perp||^2, with
    a = ||psi||^2 and phi_perp = phi - psi <psi|phi> / a.  Unlike
    (a + 1)^2 - 4 |<psi|phi>|^2, this does not cancel as psi nears phi."""
    a = float(np.vdot(psi, psi).real)
    perp = phi - psi * (np.vdot(psi, phi) / a)
    return math.sqrt((a - 1.0) ** 2 + 4.0 * a * float(np.vdot(perp, perp).real))


def evolve(
    psi0: FockState,
    thc: ThcFactorization,
    hamiltonian: ElectronicHamiltonian,
    t: float,
    spec: StepSpec,
) -> EvolveResult:
    """Repeat the Trotter step ``spec`` for ``round(t / spec.tau)`` steps and
    compare to e^{-iHt}.

    ``psi0`` is a pure state on the system-only layout with one total
    particle number (``ValueError`` otherwise).  Only its sectors S are
    stepped, as one vector psi -> K_0 psi; the weight each step moves below
    S, read from the rows that leave the ancilla vacuum, goes to
    ``leaked_weight``.  The error is the exact trace distance to the
    evolution phi of ``psi0`` under the full Hamiltonian for
    ``n_steps * spec.tau``,
    1/2 ||psi psi^dagger - phi phi^dagger||_1 + 1/2 sum(leaked_weight);
    phi stays in S, so the reference is the dense block of H on S alone.
    """
    if psi0.layout.n_ancilla != 0:
        raise ValueError("psi0 must live on a system-only layout")
    if psi0.layout.n_system != thc.n:
        raise ValueError("psi0 does not match the factorization size")
    if psi0.layout.n_system != hamiltonian.n_orbitals:
        raise ValueError("psi0 does not match the Hamiltonian size")
    if t < 0:
        raise ValueError(f"evolution time t = {t:g} must be nonnegative")
    n_steps = int(round(t / spec.tau))
    sectors = _sectors(psi0)
    leaked = np.zeros(n_steps)
    if n_steps == 0:
        return EvolveResult(error_vs_exact=0.0, n_steps=0, t_simulated=0.0,
                            leaked_weight=leaked)

    # the engine admits the step, and the reference is built (and admitted),
    # evolved and freed before the first step compiles [K_0; G]: both refusals
    # come before any step runs, and the two never coexist
    engine = _StepEngine(thc, hamiltonian, spec, sectors, psi0.layout.spinful)
    psi0 = _on_sectors(psi0, sectors)
    t_simulated = n_steps * spec.tau
    op = build_many_body_operator(hamiltonian, psi0.layout.spinful, psi0.sectors)
    phi = exact_evolution(op, psi0, t_simulated).amplitudes
    del op
    psi = psi0.amplitudes
    for k in range(n_steps):
        psi, leaked[k] = engine.step(psi)
    lost = float(leaked.sum())
    if abs(float(np.vdot(psi, psi).real) + lost - 1.0) > 1e-8:
        raise InvariantError("evolution failed to preserve the trace")
    # the evolved state is psi psi^dagger (+) rho_low
    error = 0.5 * _pure_trace_norm(psi, phi) + 0.5 * lost
    return EvolveResult(error_vs_exact=error, n_steps=n_steps,
                        t_simulated=t_simulated, leaked_weight=leaked)


# ---------------------------------------------------------------------------
# Error bounds and measurements
# ---------------------------------------------------------------------------

def trotter_bound(hamiltonian: ElectronicHamiltonian, thc: ThcFactorization, spec: StepSpec,
                  spinful: bool = False) -> float:
    """Second-order Trotter bound of the split H' = h + V' (V' recontracted
    from ``thc``) on every system state, from the two nested commutator norms.

        tau^3/12 ||[V', [V', h]]|| + tau^3/24 ||[h, [h, V']]||
    """
    n = hamiltonian.n_orbitals
    h_only = ElectronicHamiltonian(n, 0.0, hamiltonian.h, np.zeros((n, n, n, n)))
    a = build_many_body_operator(h_only, spinful=spinful).matrix
    b = build_many_body_operator(_vprime_hamiltonian(thc), spinful=spinful).matrix
    comm_ba = b @ a - a @ b
    nested_b = np.linalg.norm(b @ comm_ba - comm_ba @ b, 2)
    nested_a = np.linalg.norm(a @ comm_ba - comm_ba @ a, 2)
    return float(spec.tau**3 / 12.0 * nested_b + spec.tau**3 / 24.0 * nested_a)


def thc_bound(
    hamiltonian: ElectronicHamiltonian,
    thc: ThcFactorization,
    spinful: bool = False,
) -> float:
    """Bound ||V_op - V'_op|| on the factorization's evolution error per
    unit time.

    The exact operator norm of the interaction difference when its dense
    operator is admitted, and the element-wise bound ``N^2 ||V||_2 eps_v``
    when it is refused.
    """
    n = hamiltonian.n_orbitals
    diff = ElectronicHamiltonian(
        n, 0.0, np.zeros((n, n)), hamiltonian.eri - projected_interaction(thc.u, thc.vtilde)
    )
    try:
        return build_many_body_operator(diff, spinful=spinful).norm()
    except MemoryRefusal:
        eps_v, _ = approximation_errors(hamiltonian, thc)
        return float(n**2 * np.linalg.norm(hamiltonian.eri.reshape(-1)) * eps_v)


def projection_error_measured(
    thc: ThcFactorization,
    psi: FockState,
    spec: StepSpec,
) -> float:
    """Trace distance between the reset interaction step and the ideal one.

    One step ``spec`` of :func:`evolve` under the recontracted interaction
    V' alone (no one-body part) from ``psi``, a system-only pure state of
    one particle number, against evolution under V' for time ``spec.tau``;
    this isolates the vacuum-projection error of a step.
    """
    return evolve(psi, thc, _vprime_hamiltonian(thc), spec.tau, spec).error_vs_exact


def projection_error_bound(
    thc: ThcFactorization,
    spec: StepSpec,
    spinful: bool = False,
) -> float:
    """State-independent projection-error bound with exact operator norms.

        eps_Pr <= || K_0 - e^{-iV' tau} ||_2 + 1/2 || G ||_2

    with K_0 = P U P on the system, P the ancilla-vacuum projector, U the
    step unitary of V' alone and G = (P_perp U P)^dagger P_perp U P, so that
    ||G||_2 = ||P_perp U P||_2^2: both read from the step's stack [K_0; G]
    on every system sector.  The stack and the ideal propagator are held at
    once, so their two estimates are admitted together, before either is
    built.
    """
    vprime = _vprime_hamiltonian(thc)
    engine = _StepEngine(thc, vprime, spec, _sector_list(thc.n, 2 if spinful else 1), spinful)
    size = engine.col_offsets[-1]
    _admit_memory("the projection bound", engine.layout.n_modes,
                  _step_bytes(thc.n, thc.m, engine.sectors) + operator_memory_bytes(size))
    stack = engine.dense_unitary()
    ideal = build_many_body_operator(vprime, spinful=spinful).propagator(spec.tau)
    term1 = float(np.linalg.norm(stack[:size] - ideal, 2))
    term2 = 0.5 * float(np.linalg.norm(stack[size:], 2))
    return term1 + term2


def error_budget(
    hamiltonian: ElectronicHamiltonian,
    thc: ThcFactorization,
    spec: StepSpec,
    psi: FockState | None = None,
    spinful: bool = False,
) -> ErrorBudget:
    """The three per-step error contributions of the step ``spec``.

    With ``psi`` given (``spinful`` must match its layout), the projection
    term is measured on e^{-i h tau/2} psi, the state the interaction block
    acts on after the first one-body half-step, with the step engine's
    per-cell phases; otherwise it is the state-independent operator bound.
    """
    if hamiltonian.n_orbitals != thc.n:
        raise ValueError("Hamiltonian size does not match the factorization")
    if psi is not None and psi.layout.spinful != spinful:
        raise ValueError(f"psi has spinful={psi.layout.spinful}, but spinful={spinful}")
    eps_tr = trotter_bound(hamiltonian, thc, spec, spinful)
    rate = thc_bound(hamiltonian, thc, spinful)
    if psi is None:
        eps_pr = projection_error_bound(thc, spec, spinful)
    else:
        energies = _diagonal_entries(hamiltonian)
        half = np.concatenate([
            block * _half_step_phases(_occupations(psi.layout.n_system, counts),
                                      energies, spec.tau).reshape(-1)
            for counts, block in _blocks(psi).items()])
        eps_pr = projection_error_measured(thc, FockState(psi.layout, half, psi.sectors), spec)
    return ErrorBudget(spec, eps_thc_rate=rate, eps_tr=eps_tr, eps_pr=eps_pr)


def phase_cancellation_sums(
    phases: tuple[float, float, float]
) -> tuple[complex, complex, complex, complex]:
    """The four exponential sums whose vanishing removes leakage at O(tau).

    The first pair controls single-transfer amplitudes (phases entering
    once and doubled); the second pair the double-transfer amplitudes.  All
    four are zero for ``DEFAULT_PHASES``.
    """
    p1, p2, p3 = phases

    def chain(scale: float) -> complex:
        return (
            1.0
            + np.exp(1j * scale * p1)
            + np.exp(1j * scale * (p1 + p2))
            + np.exp(1j * scale * (p1 + p2 + p3))
        )

    def spread(scale: float) -> complex:
        return (
            2.0
            + np.exp(1j * scale * p1)
            + np.exp(1j * scale * p2)
            + np.exp(1j * scale * p3)
            + np.exp(1j * scale * (p1 + p2))
            + np.exp(1j * scale * (p2 + p3))
            + np.exp(1j * scale * (p1 + p2 + p3))
        )

    return (chain(1.0), chain(2.0), spread(1.0), spread(2.0))
