"""Trotter-step channels built from isometric THC factors, and their errors.

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
one step is the Kraus map rho -> sum_b K_b rho K_b^dagger on the system
density, with K_b = <b| U |., 0> for each ancilla occupation string b; only
the ancilla-vacuum columns U P of the step unitary are ever compiled, and
only on the rows that can be nonzero.  The
extended register exists only inside the step engine, the one place that
splits an extended basis index into its system and ancilla strings; every
public function takes and returns system-only states.

The step conserves the particle number of each spin on the extended
register, so K_0 maps every (N_up, N_down) sector of the system into itself
and each K_b with b != 0 lowers the particle number by the ancillas that b
fills; no weight ever flows back.  A pure state of one total particle
number N, supported on the set S of its (N_up, N_down) sectors, therefore
evolves into psi psi^dagger (+) rho_low, with psi -> K_0 psi step after
step and rho_low below N, while the exact reference phi stays in S.  The
trace distance splits exactly into
1/2 ||psi psi^dagger - phi phi^dagger||_1 + 1/2 tr rho_low, and tr rho_low
is the sum of the weights psi^dagger G psi the steps moved out of S.

One step engine serves every caller.  It compiles the columns on a support
S of whole sectors over the extended states in those sectors, the only rows
U P can reach, keeps the Kraus operators of the rows whose system string
lies in S, and folds the rows with an occupied ancilla into one Gram matrix
for the leaked weight.  ``evolve`` passes the sectors of its input, so only
K_0 is kept, and steps one vector; ``step_channel`` and the projection
errors pass every sector, so S is every system state, and apply the whole
stack of K_b to a density.  The gate
kernels run the same arithmetic on each row whatever the support, so a
sector block is bit for bit those rows of the every-sector one.

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
import warnings
from dataclasses import dataclass

import numpy as np

from .focksim import (
    FockDensity,
    FockState,
    GivensSequence,
    InvariantError,
    ModeLayout,
    RowTables,
    apply_basis_rotation,
    apply_diagonal_one_body,
    apply_diagonal_two_body,
    basis_state,
    exact_evolution,
    givens_decompose,
    phase_on_ancillas,
    trace_distance,
)
from .hamiltonian import (
    ElectronicHamiltonian,
    ManyBodyOperator,
    MemoryRefusal,
    _admit_memory,
    _sector_states,
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
    "step_channel",
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
PARITY_MIXING_TOL = 1e-9
# arrays the size of the compiled block U P alive at once: a layer's input,
# output and row gathers while the step compiles, then U P, the Kraus stack
# and one gather (tracemalloc peaks of sector and every-sector engines at
# 6-20 modes: 3.0-3.7 copies with the per-row tables)
STEP_WORKING_COPIES = 4
# bytes per compiled row of the kernels' tables: indices, keys and phase
# vectors, plus a float64 occupation per orbital slot (engines of 1 MiB or
# more peak at 0.76-0.92 of the estimate, one-column ones at m = 20-28 too;
# smaller ones hold 7-35 KiB of Python objects besides)
KERNEL_BYTES_PER_STATE = 144
KERNEL_BYTES_PER_SLOT = 8


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
    sectors, over the states of ``layout`` in them, and the gate kernels add
    their tables.  Counted, not enumerated, so a register far too large is
    refused at once.
    """
    columns = _sector_count(layout.system_only(), sectors)
    rows = _sector_count(layout, sectors)
    per_row = KERNEL_BYTES_PER_STATE + KERNEL_BYTES_PER_SLOT * layout.sector_size
    return (STEP_WORKING_COPIES * 16 * columns + per_row) * rows


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


def _check_system_layout(layout: ModeLayout, thc: ThcFactorization, name: str) -> None:
    if layout.n_ancilla != 0:
        raise ValueError(f"{name} must live on a system-only layout")
    if layout.n_system != thc.n:
        raise ValueError(f"{name} does not match the factorization size")


def _split_keys(layout: ModeLayout, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """System string ``a`` and ancilla string ``b`` of each extended basis index in ``rows``."""
    a_key = np.zeros(rows.size, dtype=np.int64)
    b_key = np.zeros(rows.size, dtype=np.int64)
    for t, pos in enumerate(layout.system_modes):
        a_key |= ((rows >> pos) & 1) << t
    for t, pos in enumerate(layout.ancilla_modes):
        b_key |= ((rows >> pos) & 1) << t
    return a_key, b_key


def _sectors(psi0: FockState) -> list[tuple[int, ...]]:
    """The (N_up, N_down) of every basis state ``psi0`` occupies, ascending.

    ``(N,)`` when spinless.  Raises ``ValueError`` unless every amplitude of
    ``psi0`` lies at one total particle number.
    """
    layout = psi0.layout
    occupied = psi0.rows[psi0.amplitudes != 0]
    counts = np.zeros((layout.n_sectors, occupied.size), dtype=np.int64)
    for mode in range(layout.n_modes):
        counts[mode // layout.sector_size] += (occupied >> mode) & 1
    sectors = sorted(set(zip(*counts.tolist())))
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


# ---------------------------------------------------------------------------
# The step circuit
# ---------------------------------------------------------------------------

class _StepEngine:
    """One compiled step on the extended ``layout``, applied as a Kraus map.

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
        # the step conserves each spin's particle number on the extended
        # register, so U P has no nonzero row outside the sectors of S
        self.rows = _sector_states(layout.sector_size, sectors)
        self.a_key, self.b_key = _split_keys(layout, self.rows)
        # the row of each compiled column: its system state with every
        # ancilla empty, in ascending system index
        self.vacuum = np.flatnonzero(self.b_key == 0)
        self.support = self.a_key[self.vacuum]
        # the Kraus rule: a row (a, b) is kept when its system string a lies
        # in S (np.isin would import numpy.ma), as row a of K_b, with the
        # ancilla strings b ascending, vacuum first
        at = np.searchsorted(self.support, self.a_key)
        self.kept = self.support.take(at, mode="clip") == self.a_key
        strings = np.flatnonzero(np.bincount(self.b_key[self.kept]))
        self.kraus_shape = (strings.size, self.support.size, self.support.size)
        self.kraus_index = (np.searchsorted(strings, self.b_key[self.kept]), at[self.kept])
        parity = np.array([bin(x).count("1") % 2 for x in self.support.tolist()])
        # pairs of support states of different particle-number parity
        self.mismatch = parity[:, None] != parity[None, :]
        self.spec = spec
        self.vtilde = thc.vtilde
        self.sequence = _givens_circuit(thc)
        # ancillas carry no one-body energy
        entries = np.concatenate([_diagonal_entries(hamiltonian), np.zeros(layout.n_ancilla)])
        self.h_diag = np.tile(entries, layout.n_sectors)
        self._dense: np.ndarray | None = None
        self._kraus: np.ndarray | None = None

    def _apply(self, state: FockState) -> FockState:
        """The step unitary on ``state``: one-body half step, interaction,
        one-body half step.

        The interaction is ``rot . vee(tau) . rot^dagger`` (basic), or four
        such quarter blocks with ancilla phases between them (improved).
        """
        tau = self.spec.tau
        if self.spec.variant == "basic":
            blocks = [(None, tau)]
        else:
            # rightmost factor of V P(phi1) V P(phi2) V P(phi3) V acts first
            phi1, phi2, phi3 = self.spec.phases
            blocks = [(None, tau / 4), (phi3, tau / 4), (phi2, tau / 4), (phi1, tau / 4)]
        # every kernel keeps the rows, so one set of row tables serves the pass
        tables = RowTables(state)
        state = apply_diagonal_one_body(state, self.h_diag, tau / 2)
        for phi, block_tau in blocks:
            if phi is not None:
                state = phase_on_ancillas(state, phi)
            state = apply_basis_rotation(state, self.sequence, tables)
            state = apply_diagonal_two_body(state, self.vtilde, block_tau, tables)
            state = apply_basis_rotation(state, self.sequence, tables, inverse=True)
        return apply_diagonal_one_body(state, self.h_diag, tau / 2)

    def dense_unitary(self) -> np.ndarray:
        """``U P`` on the support, shape ``(|rows|, |S|)``: column ``j`` is the
        image of system state ``S[j]`` in the ancilla vacuum, row ``i`` its
        amplitude on extended state ``rows[i]``.  One pass of the step over
        the unit columns, cached until the step operators are copied out."""
        if self._dense is None:
            # no local keeps the unit columns, so the first layer frees them
            self._dense = self._apply(self._unit_columns()).amplitudes
        return self._dense

    def _unit_columns(self) -> FockState:
        """Column ``j`` is system state ``S[j]`` in the ancilla vacuum."""
        columns = np.zeros((self.rows.size, self.vacuum.size), dtype=complex)
        columns[self.vacuum, np.arange(self.vacuum.size)] = 1.0
        return FockState(self.layout, columns, self.rows)

    def _kraus_operators(self) -> np.ndarray:
        """The kept Kraus stack ``K[b] = <b|U|., 0>`` on the support (vacuum
        first), then G = W^dagger W of the rows W with an occupied ancilla,
        as one ``((k + 1)|S|, |S|)`` array; ``U P`` is freed once copied out.
        On the sectors of one particle number only K_0 is kept: ``[K_0; G]``.
        """
        if self._kraus is None:
            up = self.dense_unitary()
            size = self.kraus_shape[1]
            stack = np.zeros(((self.kraus_shape[0] + 1) * size, size), dtype=complex)
            stack[:-size].reshape(self.kraus_shape)[self.kraus_index] = up[self.kept]
            leaving = up[self.b_key != 0]
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

    def channel(self, rho: np.ndarray) -> tuple[np.ndarray, float]:
        """The Kraus map on a density on the support; also return the weight
        that left the ancilla vacuum, ``tr(G rho)``.

        The occupation-basis reset matches the fermionic channel unless a
        kept block with an occupied ancilla mixes particle-number parities;
        a warning flags that.
        """
        stack = self._kraus_operators()
        size = self.kraus_shape[1]
        # one K_b at a time, vacuum first, so no product holds more than one block
        blocks = ((kraus @ rho) @ np.ascontiguousarray(kraus.conj().T)
                  for kraus in stack[:-size].reshape(self.kraus_shape))
        total, mixing = next(blocks), 0.0
        for block in blocks:
            mixing += float(np.abs(block[self.mismatch]).sum())
            total += block
        if mixing > PARITY_MIXING_TOL:
            warnings.warn(
                "resetting ancillas on a state with parity-mixing coherences "
                f"(weight {mixing:.3e}); occupation-basis trace may not match "
                "the fermionic channel",
                stacklevel=2,
            )
        # G is Hermitian, so vdot(G, rho) = sum_ij G_ji rho_ij = tr(G rho)
        return total, float(np.vdot(stack[-size:], rho).real)


def step_channel(
    rho: FockDensity,
    thc: ThcFactorization,
    hamiltonian: ElectronicHamiltonian,
    spec: StepSpec,
) -> FockDensity:
    """Apply one Trotter step (unitaries plus ancilla reset) to a system density.

    ``rho`` and the result live on the system-only layout; the ancillas
    enter only through the Kraus operators of the step.  ``hamiltonian``
    must carry a diagonal one-body part.
    """
    _check_system_layout(rho.layout, thc, "rho")
    layout = extended_layout(thc, spinful=rho.layout.spinful)
    matrix, _ = _StepEngine(thc, hamiltonian, spec, layout).channel(rho.matrix)
    out = FockDensity(rho.layout, matrix)
    if abs(out.trace() - rho.trace()) > 1e-10:
        raise InvariantError("step channel failed to preserve the trace")
    return out


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
    """Repeat the step channel for ``round(t / tau)`` steps and compare to e^{-iHt}.

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
    _check_system_layout(psi0.layout, thc, "psi0")
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
    rho: FockState | FockDensity,
    tau: float,
    variant: str = "basic",
    phases: tuple[float, float, float] = DEFAULT_PHASES,
) -> float:
    """Trace distance between the reset interaction step and the ideal one.

    Applies the step channel of the recontracted interaction V' alone (no
    one-body part) to ``rho`` (system-only) and compares against evolution
    under V' for time ``tau``; this isolates the vacuum-projection error of
    a step.
    """
    if isinstance(rho, FockState):
        rho = rho.density()
    vprime = _vprime_hamiltonian(thc)
    stepped = step_channel(rho, thc, vprime, StepSpec(tau=tau, variant=variant, phases=phases))
    ideal = exact_evolution(build_many_body_operator(vprime, spinful=rho.layout.spinful),
                            rho, tau)
    return trace_distance(stepped, ideal)


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
    term1 = float(np.linalg.norm(up[engine.b_key == 0] - ideal, 2))
    term2 = 0.5 * float(np.linalg.norm(up[engine.b_key != 0], 2)) ** 2
    return term1 + term2


def error_budget(
    hamiltonian: ElectronicHamiltonian,
    thc: ThcFactorization,
    spec: StepSpec,
    rho: FockState | FockDensity | None = None,
    spinful: bool = False,
) -> ErrorBudget:
    """Assemble the three per-step error contributions for one spec.

    With a state given, the projection term is the measured trace distance
    at that state; otherwise the state-independent operator bound is used.
    """
    h_op, vprime_op = projected_operators(hamiltonian, thc, spinful)
    eps_tr = trotter_bound(h_op, vprime_op, spec.tau)
    rate = thc_bound(hamiltonian, thc, 1.0, spinful).value
    if rho is None:
        eps_pr = projection_error_bound(thc, spec.tau, spec.variant, spec.phases, spinful)
    else:
        eps_pr = projection_error_measured(thc, rho, spec.tau, spec.variant, spec.phases)
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
