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
only inside the step engine, the one place that knows where the system
and ancilla strings sit in an extended basis index; every public function
takes and returns system-only states.

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

One step engine serves every caller.  It compiles the columns on a support
S of whole sectors over the extended states in those sectors, the only rows
U P can reach, and copies out K_0 and G.  ``evolve`` passes the sectors of
its input and steps one vector; the measured projection error is one step
of ``evolve`` under V' alone, and the projection bound reads U P on every
sector.

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
sector's block depends on that sector alone, so it is bit for bit those
rows of the every-sector engine.

Per-step accuracy decomposes into three pieces: the factorization error
(operator distance between the true and recontracted interactions), the
Trotter error, and the projection error from resetting ancillas.
This module evaluates all three, both as measured trace distances on
concrete states and as analytic bounds with exactly computed norms.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
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
    ManyBodyOperator,
    MemoryRefusal,
    _admit_memory,
    _occupied_sectors,
    _sector_states,
    _string_tables,
    build_many_body_operator,
)
from .thc import ThcFactorization, approximation_errors, projected_interaction

__all__ = [
    "DEFAULT_PHASES",
    "StepSpec",
    "ErrorBudget",
    "EvolveResult",
    "ThcBound",
    "extended_layout",
    "hartree_fock_state",
    "projected_operators",
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
# arrays the size of the compiled block U P alive at once: U P and the
# compile's column chunks (at most one sector block), then the leaving rows
# gathered from U P and their conjugate as [K_0; G] is copied out, or U P
# and the rows the projection bound reads (tracemalloc peaks of sector and
# every-sector engines at 10-16 modes: 1.95-2.24 copies)
STEP_WORKING_COPIES = 3
# bytes per compiled row besides the copies: the engine's index arrays, a
# sector's scatter positions, per-cell phases and energies, and one column
# of each of the three chunk arrays (a one-column engine at 48 modes peaks
# at about 170 bytes per row above its compound matrices)
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
    """Per-step error contributions of a THC Trotter step.

    ``eps_thc_rate`` is per unit time; ``eps_tr`` and ``eps_pr`` are per
    step at the budget's timestep.
    """

    eps_thc_rate: float
    eps_tr: float
    eps_pr: float

    def __post_init__(self) -> None:
        for name in ("eps_thc_rate", "eps_tr", "eps_pr"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def total(self, t: float, tau: float) -> float:
        n_steps = int(round(t / tau))
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


@dataclass(frozen=True)
class ThcBound:
    """Bound on the interaction-operator distance, times evolution time."""

    value: float
    branch: str
    operator_norm: float | None
    frobenius_bound: float


def extended_layout(thc: ThcFactorization, spinful: bool = False) -> ModeLayout:
    """Register layout of the step circuit: one ancilla per extra rank."""
    return ModeLayout(n_system=thc.n, n_ancilla=thc.m - thc.n, spinful=spinful)


def _step_bytes(layout: ModeLayout, sectors: list[tuple[int, ...]]) -> int:
    """Estimated peak bytes of a step engine on ``sectors`` of the extended ``layout``.

    The engine compiles one column of ``U P`` per system state in those
    sectors, over the states of ``layout`` in them, from the compound
    matrices of each spin's particle count.  Counted, not enumerated, so a
    register far too large is refused at once.
    """
    columns = _sector_count(layout.system_only(), sectors)
    rows = _sector_count(layout, sectors)
    compounds = sum(math.comb(layout.sector_size, k) ** 2
                    for k in {k for counts in sectors for k in counts})
    return ((STEP_WORKING_COPIES * 16 * columns + GRID_BYTES_PER_STATE) * rows
            + COMPOUND_COPIES * 16 * compounds)


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


def projected_operators(
    hamiltonian: ElectronicHamiltonian,
    thc: ThcFactorization,
    spinful: bool = False,
) -> tuple[ManyBodyOperator, ManyBodyOperator]:
    """Dense system-mode operators (h_op, vprime_op) for the split H' = h + V'."""
    n = hamiltonian.n_orbitals
    zero4 = np.zeros((n, n, n, n))
    h_only = ElectronicHamiltonian(n, 0.0, hamiltonian.h, zero4)
    return (build_many_body_operator(h_only, spinful=spinful),
            build_many_body_operator(_vprime_hamiltonian(thc), spinful=spinful))


def _vprime_hamiltonian(thc: ThcFactorization) -> ElectronicHamiltonian:
    """The recontracted interaction V' alone, with no one-body part."""
    n = thc.n
    return ElectronicHamiltonian(n, 0.0, np.zeros((n, n)),
                                 projected_interaction(thc.u, thc.vtilde))


def _sectors(psi0: FockState) -> list[tuple[int, ...]]:
    """The (N_up, N_down) of every basis state ``psi0`` occupies, ascending.

    ``(N,)`` when spinless.  Raises ``ValueError`` unless every amplitude of
    ``psi0`` lies at one total particle number.
    """
    layout = psi0.layout
    sectors = list(_occupied_sectors(psi0.rows[psi0.amplitudes != 0], layout.sector_size,
                                     layout.n_sectors))
    totals = sorted({sum(sector) for sector in sectors})
    if len(totals) != 1:
        raise ValueError(f"psi0 must have one particle number, found {totals}")
    return sectors


def _on_rows(state: FockState, rows: np.ndarray) -> FockState:
    """``state`` on the ascending basis ``rows``, which hold every nonzero
    amplitude of it."""
    at = np.searchsorted(state.rows, rows)
    found = state.rows.take(at, mode="clip") == rows
    return FockState(state.layout, np.where(found, state.amplitudes.take(at, mode="clip"), 0),
                     rows)


def _every_sector(layout: ModeLayout) -> list[tuple[int, ...]]:
    """Every per-spin particle count of ``layout``; its states are every basis state."""
    return list(itertools.product(range(layout.sector_size + 1), repeat=layout.n_sectors))


def _sector_count(layout: ModeLayout, sectors: list[tuple[int, ...]]) -> int:
    """How many basis states of ``layout`` lie in ``sectors``, without listing them."""
    return sum(math.prod(math.comb(layout.sector_size, count) for count in counts)
               for counts in sectors)


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
    """One compiled step on the extended ``layout``.

    The engine acts on the support S, the system states whose per-spin
    particle counts are one of ``sectors`` (every sector of ``layout`` by
    default, so S is every system state), and compiles only ``rows``, the
    extended states in those sectors.  A step larger than physical memory
    is refused before it compiles.
    """

    def __init__(
        self,
        thc: ThcFactorization,
        hamiltonian: ElectronicHamiltonian,
        spec: StepSpec,
        layout: ModeLayout,
        sectors: list[tuple[int, ...]] | None = None,
    ) -> None:
        if layout.n_system != thc.n or layout.n_ancilla != thc.m - thc.n:
            raise ValueError(
                f"layout {layout} does not match factorization with "
                f"n = {thc.n}, m = {thc.m}"
            )
        if hamiltonian.n_orbitals != thc.n:
            raise ValueError("Hamiltonian size does not match the factorization")
        if sectors is None:
            sectors = _every_sector(layout)
        _admit_memory("the step", layout.n_modes, _step_bytes(layout, sectors))
        self.layout = layout
        self.sectors = sectors
        # the step conserves each spin's particle number on the extended
        # register, so U P has no nonzero row outside the sectors of S
        self.rows = _sector_states(layout.sector_size, sectors)
        self.support = _sector_states(layout.n_system, sectors)
        # the row of each compiled column: its system state with every
        # ancilla empty (the down half moved from bit n to bit m), in
        # ascending system index; these rows are K_0, the rest leave the vacuum
        n, m = layout.n_system, layout.sector_size
        self.vacuum = np.searchsorted(
            self.rows, (self.support & ((1 << n) - 1)) | ((self.support >> n) << m))
        self.leaving = np.ones(self.rows.size, dtype=bool)
        self.leaving[self.vacuum] = False
        self.spec = spec
        self.thc = thc
        self.sequence = _givens_circuit(thc)
        # one spin's one-body energy per orbital slot; ancillas carry none
        self.energies = np.concatenate([_diagonal_entries(hamiltonian),
                                        np.zeros(layout.n_ancilla)])
        self._dense: np.ndarray | None = None
        self._kraus: np.ndarray | None = None

    def dense_unitary(self) -> np.ndarray:
        """``U P`` on the support, shape ``(|rows|, |S|)``: column ``j`` is the
        image of system state ``S[j]`` in the ancilla vacuum, row ``i`` its
        amplitude on extended state ``rows[i]``.  Compiled one sector at a
        time on its string grid, cached until the step operators are copied
        out."""
        if self._dense is None:
            up = np.zeros((self.rows.size, self.support.size), dtype=complex)
            for counts in self.sectors:
                self._compile_sector(counts, up)
            self._dense = up
        return self._dense

    def _compile_sector(self, counts: tuple[int, ...], up: np.ndarray) -> None:
        """Write the columns of U P on one (N_up, N_down) sector into ``up``,
        on the sector's grid X[d, u] of down and up strings (see the module
        docstring).  Columns compile in at most three chunks, whose three
        work arrays together hold at most one sector block.  Nothing here
        depends on the other sectors, so a sector's block is bit for bit the
        same in every engine that compiles it.
        """
        layout, spec = self.layout, self.spec
        m, n = layout.sector_size, layout.n_system
        n_up, n_down = (*counts, 0)[:2]
        strings = [_string_tables(m, k)[0] for k in (n_down, n_up)]
        # columns: the cells whose strings leave every ancilla empty
        d_sys, u_sys = (np.flatnonzero(s < (1 << n)) for s in strings)
        col_d, col_u = np.repeat(d_sys, u_sys.size), np.tile(u_sys, d_sys.size)
        if not col_d.size:
            return
        rows_at = np.searchsorted(
            self.rows, ((strings[0][:, None] << m) | strings[1][None, :]).ravel())
        cols_at = np.searchsorted(self.support, (strings[0][col_d] << n) | strings[1][col_u])

        # occupation of each orbital slot in each string of either spin
        occ = [((s[:, None] >> np.arange(m)) & 1).astype(float) for s in strings]

        def cells(per_string) -> np.ndarray:
            return per_string(occ[0])[:, None] + per_string(occ[1])[None, :]

        one_body = np.exp(-0.5j * spec.tau * cells(lambda o: o @ self.energies))
        # E = sum_{a<b} vs_ab N_a N_b + 1/2 sum_a vs_aa N_a (N_a - 1), with
        # N_a summed over spin: each spin's pairs, then the cross-spin pairs
        vs = 0.5 * (self.thc.vtilde + self.thc.vtilde.T)
        upper = np.triu(vs, 1)
        theta = cells(lambda o: ((o @ upper) * o).sum(axis=1)) + occ[0] @ vs @ occ[1].T
        ancillas = cells(lambda o: o[:, n:].sum(axis=1))
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
            up[np.ix_(rows_at, cols_at[at])] = x.reshape(-1, width)

    def _kraus_operators(self) -> np.ndarray:
        """``[K_0; G]`` as one ``(2|S|, |S|)`` array: the vacuum block
        ``K_0 = <0|U|., 0>`` on the support, then G = W^dagger W of the rows
        W with an occupied ancilla; ``U P`` is freed once copied out."""
        if self._kraus is None:
            up = self.dense_unitary()
            size = self.support.size
            stack = np.empty((2 * size, size), dtype=complex)
            stack[:size] = up[self.vacuum]
            leaving = up[self.leaving]
            # free U P before the product copies the leaving rows once more
            self._dense = up = None
            stack[-size:] = leaving.conj().T @ leaving
            self._kraus = stack
        return self._kraus

    def step(self, psi: np.ndarray) -> tuple[np.ndarray, float]:
        """One Trotter step of a vector on the support of one particle
        number: ``K_0 psi``, and the weight that left the ancilla vacuum,
        ``psi^dagger G psi``, read from the leaving rows (one product with
        the stack ``[K_0; G]``)."""
        out = self._kraus_operators() @ psi
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
    tau: float,
    spec: StepSpec | None = None,
) -> EvolveResult:
    """Repeat the Trotter step for ``round(t / tau)`` steps and compare to e^{-iHt}.

    ``psi0`` is a pure state on the system-only layout with one total
    particle number (``ValueError`` otherwise).  Only its sectors S are
    stepped, as one vector psi -> K_0 psi; the weight each step moves below
    S, read from the rows that leave the ancilla vacuum, goes to
    ``leaked_weight``.  ``tau`` overrides ``spec.tau`` so sweeps can share
    one spec.  The error is the exact trace distance to the evolution phi of
    ``psi0`` under the full Hamiltonian for ``n_steps * tau``,
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
    spec = StepSpec(tau=tau) if spec is None else dataclasses.replace(spec, tau=tau)
    n_steps = int(round(t / tau))
    sectors = _sectors(psi0)
    leaked = np.zeros(n_steps)
    if n_steps == 0:
        return EvolveResult(error_vs_exact=0.0, n_steps=0, t_simulated=0.0,
                            leaked_weight=leaked)

    # the engine admits the step, and the reference is built (and admitted),
    # evolved and freed before the first step compiles U P: both refusals
    # come before any step runs, and the two never coexist
    layout = extended_layout(thc, spinful=psi0.layout.spinful)
    engine = _StepEngine(thc, hamiltonian, spec, layout, sectors)
    psi0 = _on_rows(psi0, engine.support)
    t_simulated = n_steps * tau
    op = build_many_body_operator(hamiltonian, psi0.layout.spinful, psi0.rows)
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

def trotter_bound(h_op: ManyBodyOperator, vprime_op: ManyBodyOperator, tau: float) -> float:
    """Second-order Trotter bound from the two nested commutator norms.

        tau^3/12 ||[V', [V', h]]|| + tau^3/24 ||[h, [h, V']]||
    """
    if h_op.n_modes != vprime_op.n_modes or not np.array_equal(h_op.rows, vprime_op.rows):
        raise ValueError("operators act on different registers")
    a = h_op.matrix
    b = vprime_op.matrix
    comm_ba = b @ a - a @ b
    nested_b = np.linalg.norm(b @ comm_ba - comm_ba @ b, 2)
    nested_a = np.linalg.norm(a @ comm_ba - comm_ba @ a, 2)
    return float(tau**3 / 12.0 * nested_b + tau**3 / 24.0 * nested_a)


def thc_bound(
    hamiltonian: ElectronicHamiltonian,
    thc: ThcFactorization,
    t: float,
    spinful: bool = False,
) -> ThcBound:
    """Bound ||V_op - V'_op|| t on the factorization's evolution error.

    Uses the exact operator norm of the interaction difference when its
    dense operator fits in memory, and the element-wise bound
    ``N^2 ||V||_2 eps_v`` otherwise; the smaller branch wins.
    """
    n = hamiltonian.n_orbitals
    eps_v, _ = approximation_errors(hamiltonian, thc)
    frobenius = float(n**2 * np.linalg.norm(hamiltonian.eri.reshape(-1)) * eps_v)
    diff = ElectronicHamiltonian(
        n, 0.0, np.zeros((n, n)), hamiltonian.eri - projected_interaction(thc.u, thc.vtilde)
    )
    try:
        operator_norm = build_many_body_operator(diff, spinful=spinful).norm()
    except MemoryRefusal:
        operator_norm = None
    if operator_norm is not None and operator_norm <= frobenius:
        return ThcBound(operator_norm * t, "operator_norm", operator_norm, frobenius)
    return ThcBound(frobenius * t, "frobenius", operator_norm, frobenius)


def projection_error_measured(
    thc: ThcFactorization,
    psi: FockState,
    tau: float,
    variant: str = "basic",
    phases: tuple[float, float, float] = DEFAULT_PHASES,
) -> float:
    """Trace distance between the reset interaction step and the ideal one.

    One step of :func:`evolve` under the recontracted interaction V' alone
    (no one-body part) from ``psi``, a system-only pure state of one
    particle number, against evolution under V' for time ``tau``; this
    isolates the vacuum-projection error of a step.
    """
    spec = StepSpec(tau=tau, variant=variant, phases=phases)
    return evolve(psi, thc, _vprime_hamiltonian(thc), tau, tau, spec).error_vs_exact


def projection_error_bound(
    thc: ThcFactorization,
    tau: float,
    variant: str = "basic",
    phases: tuple[float, float, float] = DEFAULT_PHASES,
    spinful: bool = False,
) -> float:
    """State-independent projection-error bound with exact operator norms.

        eps_Pr <= || P U P - e^{-iV' tau} P || + 1/2 || P_perp U P ||^2

    with P the ancilla-vacuum projector and U the step unitary of V' alone.
    """
    vprime = _vprime_hamiltonian(thc)
    spec = StepSpec(tau=tau, variant=variant, phases=phases)
    engine = _StepEngine(thc, vprime, spec, extended_layout(thc, spinful=spinful))
    up = engine.dense_unitary()
    ideal = build_many_body_operator(vprime, spinful=spinful).propagator(tau)
    term1 = float(np.linalg.norm(up[engine.vacuum] - ideal, 2))
    term2 = 0.5 * float(np.linalg.norm(up[engine.leaving], 2)) ** 2
    return term1 + term2


def error_budget(
    hamiltonian: ElectronicHamiltonian,
    thc: ThcFactorization,
    spec: StepSpec,
    psi: FockState | None = None,
    spinful: bool = False,
) -> ErrorBudget:
    """Assemble the three per-step error contributions for one spec.

    With ``psi`` given, the projection term is the measured trace distance
    from that state; otherwise the state-independent operator bound is used.
    """
    h_op, vprime_op = projected_operators(hamiltonian, thc, spinful)
    eps_tr = trotter_bound(h_op, vprime_op, spec.tau)
    rate = thc_bound(hamiltonian, thc, 1.0, spinful).value
    if psi is None:
        eps_pr = projection_error_bound(thc, spec.tau, spec.variant, spec.phases, spinful)
    else:
        eps_pr = projection_error_measured(thc, psi, spec.tau, spec.variant, spec.phases)
    return ErrorBudget(eps_thc_rate=rate, eps_tr=eps_tr, eps_pr=eps_pr)


def phase_cancellation_sums(
    phases: tuple[float, float, float] = DEFAULT_PHASES
) -> tuple[complex, complex, complex, complex]:
    """The four exponential sums whose vanishing removes leakage at O(tau).

    The first pair controls single-transfer amplitudes (phases entering
    once and doubled); the second pair the double-transfer amplitudes.  All
    four are zero for the default phases.
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
