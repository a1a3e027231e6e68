"""Exact simulation primitives on small fermionic Fock spaces.

A ``FockState`` holds its number of orbitals and one amplitude vector on a
list of per-spin particle-number sectors (N_up, N_down), every sector by
default; it is the one state type, and ``exact_evolution`` acts on it on
an operator's sectors.  Every orbital holds one mode per spin, and a
state's sectors say what each spin holds: a spinless state is one on
(N, 0) sectors.  Its rows are the cells of those sectors in the
sector-major order of ``hamiltonian``: sector by sector, ascending, and
within a sector its grid of down and up strings row-major, each spin's
k-particle strings ascending as bitmasks with mode 0 as the least
significant bit.  No full-register basis index exists, so a state costs
its sectors' cells only; the strings are int64, and ``hamiltonian``
refuses more than 63 orbitals.

Basis-rotation circuits are defined and decomposed here.  No kernel here
applies one: the step engine of ``algorithm`` runs a circuit once on the
identity over one spin's k-particle strings, read from the string tables
of ``hamiltonian``, to get its compound matrix on them, and compiles its
step from those matrices.

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
import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import ManyBodyOperator, _sector_list, _sector_offsets

__all__ = [
    "InvariantError",
    "FockState",
    "GivensRotation",
    "GivensSequence",
    "basis_state",
    "givens_decompose",
    "exact_evolution",
]


class InvariantError(ValueError):
    """A simulation invariant (trace, rotation count) failed to hold."""


@dataclass
class FockState:
    """Pure state amplitudes on per-spin particle-number sectors.

    ``sectors`` lists ascending (N_up, N_down) pairs of ``n_orbitals``
    orbitals, every sector by default; row ``i`` of ``amplitudes`` is the
    i-th cell of those sectors in sector-major order (module docstring).
    """

    n_orbitals: int
    amplitudes: np.ndarray
    sectors: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        self.sectors = _sector_list(self.n_orbitals, self.sectors)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        want = (_sector_offsets(self.n_orbitals, self.sectors)[-1],)
        if self.amplitudes.shape != want:
            raise ValueError(f"array shape {self.amplitudes.shape} does not match "
                             f"the shape {want} on its sectors")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def basis_state(n_orbitals: int, occupations: str | list[int]) -> FockState:
    """Computational basis state; ``occupations`` holds the 2 n_orbitals
    mode fillings, the up string and then the down string.

    The state lives on its one sector, with one cell set: the cell of the
    spins' strings, each string's rank among the ascending k-particle
    strings being its colex rank sum_i C(c_i, i) over its modes
    c_1 < ... < c_k."""
    occ = [int(c) for c in occupations]
    n = n_orbitals
    if len(occ) != 2 * n or any(o not in (0, 1) for o in occ):
        raise ValueError(f"need {2 * n} binary occupations, got {occupations!r}")
    spins = [[mode for mode in range(n) if occ[start + mode]] for start in (0, n)]
    cell = 0
    for modes in reversed(spins):  # the down string's rank is the major index
        cell = cell * math.comb(n, len(modes)) + sum(
            math.comb(c, i) for i, c in enumerate(modes, start=1))
    amplitudes = np.zeros(math.prod(math.comb(n, len(modes)) for modes in spins), dtype=complex)
    amplitudes[cell] = 1.0
    return FockState(n, amplitudes, [tuple(len(modes) for modes in spins)])


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
# Exact reference
# ---------------------------------------------------------------------------

def exact_evolution(op: ManyBodyOperator, state: FockState, t: float) -> FockState:
    """Evolve a state on the operator's sectors by ``exp(-i op t)`` via its
    eigensystem."""
    if op.n_orbitals != state.n_orbitals:
        raise ValueError(f"operator on {op.n_orbitals} orbitals cannot evolve a "
                         f"{state.n_orbitals}-orbital state")
    if op.sectors != state.sectors:
        raise ValueError("the state does not live on the operator's sectors")
    w, v = op.eigensystem()
    phases = np.exp(-1j * w * t)
    amplitudes = v @ (phases * (v.conj().T @ state.amplitudes))
    return FockState(state.n_orbitals, amplitudes, state.sectors)
