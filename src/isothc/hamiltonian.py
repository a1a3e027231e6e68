"""Electronic-structure Hamiltonians and their many-body matrix representations.

Conventions used throughout the package:

* Two-electron integrals are stored in chemists' notation, ``eri[i, j, k, l]
  = (ij|kl)``, with the full eight-fold permutation symmetry of real
  orbitals.
* The second-quantized Hamiltonian is

      H = sum_ij h[i, j] a+_i a_j
        + 1/2 sum_ijkl eri[i, j, k, l] a+_i a+_k a_l a_j
        + core_energy,

  summed over spin as well when a spinful representation is requested.
* Fermionic modes map to qubits by the Jordan-Wigner convention with mode 0
  as the least significant bit of the basis-state index.  Spinful
  representations place all up-spin modes at 0 .. n-1 and all down-spin
  modes at n .. 2n-1.
* Dense many-body matrices live on a list of basis states, ``rows``
  (ascending basis indices; every basis state by default).  They are
  assembled from tables that record, for each excitation a+_p a_q and each
  listed state, the listed state it leads to and its Jordan-Wigner sign;
  every Hamiltonian term is then a lookup in these tables, with no sparse
  operator algebra.  H conserves the particle number of each spin, so on
  the rows of a few (N_up, N_down) sectors, or of one particle number, the
  matrix is exactly that block of the full one, and its size is the
  block's, not 4**modes.
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "ElectronicHamiltonian",
    "ManyBodyOperator",
    "MemoryRefusal",
    "parse_fcidump",
    "write_fcidump",
    "rotate_to_h_eigenbasis",
    "build_many_body_operator",
    "ground_state_energy",
]

SYMMETRY_TOL = 1e-10
# the eight index permutations of (ij|kl) under which real-orbital integrals
# are symmetric, as numpy transpose axes; the first is the identity
ERI_PERMUTATIONS = (
    (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
    (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0),
)
# arrays the size of a dense many-body matrix alive at once while its
# eigensystem is computed: the matrix, eigh's copy of it, the eigenvectors,
# LAPACK's complex and real workspaces, and a spare for the build's
# temporaries (measured peak at 10 modes: 5.8 copies); a floor that does not
# scale with the matrix: about ten two-body scratch arrays of at least 2**15
# eight-byte entries (tracemalloc: 2.3-2.5 MiB above the copies on blocks of
# 36 and 100 states); and the bytes per entry of the excitation tables,
# n_modes**2 entries per listed state, while they are built (tracemalloc:
# 41.5-44 B per entry on blocks of 120 to 780 states of 16 to 40 modes)
OPERATOR_WORKING_COPIES = 6
OPERATOR_SCRATCH_BYTES = 3 * 2**20
OPERATOR_TABLE_ENTRY_BYTES = 48


def _read_only(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ElectronicHamiltonian:
    """One- and two-body coefficient tensors of a molecular Hamiltonian.

    Instances are immutable; the arrays are defensively copied and marked
    read-only on construction.  ``n_electrons`` and ``ms2`` are optional
    metadata carried along from an FCIDUMP header.
    """

    n_orbitals: int
    core_energy: float
    h: np.ndarray
    eri: np.ndarray
    n_electrons: int | None = None
    ms2: int | None = None

    def __post_init__(self) -> None:
        n = self.n_orbitals
        h = _read_only(self.h)
        eri = _read_only(self.eri)
        if h.shape != (n, n):
            raise ValueError(f"h has shape {h.shape}, expected {(n, n)}")
        if eri.shape != (n, n, n, n):
            raise ValueError(f"eri has shape {eri.shape}, expected {(n,) * 4}")
        if not np.allclose(h, h.T, atol=SYMMETRY_TOL, rtol=0.0):
            raise ValueError("h is not symmetric")
        for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
            if not np.allclose(eri, eri.transpose(perm), atol=SYMMETRY_TOL, rtol=0.0):
                raise ValueError(f"eri violates permutation symmetry {perm}")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "eri", eri)

    def __reduce__(self):
        # unpickle through the constructor, so a copy in a worker process is
        # checked and read-only like the original
        return type(self), (self.n_orbitals, self.core_energy, self.h, self.eri,
                            self.n_electrons, self.ms2)


def _canonical_eri_index(i: int, j: int, k: int, l: int) -> tuple[int, int, int, int]:
    ij = (i, j) if i >= j else (j, i)
    kl = (k, l) if k >= l else (l, k)
    return ij + kl if ij >= kl else kl + ij


def _eri_images(i: int, j: int, k: int, l: int):
    index = (i, j, k, l)
    return {tuple(index[axis] for axis in perm) for perm in ERI_PERMUTATIONS}


# ---------------------------------------------------------------------------
# FCIDUMP parsing and writing
# ---------------------------------------------------------------------------

_HEADER_KV = re.compile(r"([A-Za-z0-9_]+)\s*=\s*([^=]*?)(?=(?:,?\s*[A-Za-z0-9_]+\s*=)|$)")


class FcidumpError(ValueError):
    """Raised for malformed FCIDUMP content."""


def parse_fcidump(path_or_text: str | Path) -> ElectronicHamiltonian:
    """Parse an FCIDUMP file into an :class:`ElectronicHamiltonian`.

    Accepts a filesystem path or raw FCIDUMP text.
    The header namelist is read case-insensitively; ``NORB``, ``NELEC`` and
    ``MS2`` are honored and other keys (``ORBSYM``, ``ISYM``, ...) are
    tolerated and ignored.  Value lines follow the usual layout
    ``value i j k l`` with one-based orbital indices:

    * all four indices zero: core energy,
    * ``k = l = 0``: one-body element ``h[i, j]``,
    * otherwise: two-electron integral ``(ij|kl)`` in chemists' notation,
      expanded to all eight permutation images.

    Duplicate entries that disagree by more than 1e-10 raise
    :class:`FcidumpError` naming the offending line.
    """
    as_path = Path(path_or_text)
    try:
        is_file = as_path.is_file()
    except OSError:
        is_file = False
    if is_file:
        text = as_path.read_text()
    elif isinstance(path_or_text, str) and "&FCI" in path_or_text.upper():
        text = path_or_text
    else:
        raise FcidumpError(f"no such FCIDUMP file: {path_or_text!r}")

    upper = text.upper()
    start = upper.find("&FCI")
    if start < 0:
        raise FcidumpError("missing &FCI header")
    end_match = re.search(r"&END|/", upper[start:])
    if end_match is None:
        raise FcidumpError("unterminated &FCI header")
    header = text[start + 4 : start + end_match.start()]
    body = text[start + end_match.end() :]

    keys: dict[str, str] = {}
    for m in _HEADER_KV.finditer(header):
        keys[m.group(1).upper()] = m.group(2).strip().rstrip(",")
    if "NORB" not in keys:
        raise FcidumpError("header does not define NORB")
    n = int(keys["NORB"].split(",")[0])
    if n < 1:
        raise FcidumpError(f"NORB = {n} out of range")
    n_electrons = int(keys["NELEC"].split(",")[0]) if "NELEC" in keys else None
    ms2 = int(keys["MS2"].split(",")[0]) if "MS2" in keys else None

    h = np.zeros((n, n))
    eri = np.zeros((n, n, n, n))
    core = 0.0
    h_seen: dict[tuple[int, int], float] = {}
    eri_seen: dict[tuple[int, int, int, int], float] = {}

    for lineno, raw in enumerate(body.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise FcidumpError(f"line {lineno}: expected 'value i j k l', got {raw!r}")
        try:
            value = float(parts[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError as exc:
            raise FcidumpError(f"line {lineno}: {exc}") from exc
        for idx in (i, j, k, l):
            if idx < 0 or idx > n:
                raise FcidumpError(f"line {lineno}: index {idx} out of range [0, {n}]")
        if i == j == k == l == 0:
            core = value
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise FcidumpError(f"line {lineno}: malformed one-body indices")
            key = (max(i, j) - 1, min(i, j) - 1)
            if key in h_seen and abs(h_seen[key] - value) > 1e-10:
                raise FcidumpError(f"line {lineno}: conflicting duplicate for h{key}")
            h_seen[key] = value
            h[i - 1, j - 1] = value
            h[j - 1, i - 1] = value
        else:
            if min(i, j, k, l) == 0:
                raise FcidumpError(f"line {lineno}: malformed two-body indices")
            key = _canonical_eri_index(i - 1, j - 1, k - 1, l - 1)
            if key in eri_seen and abs(eri_seen[key] - value) > 1e-10:
                raise FcidumpError(f"line {lineno}: conflicting duplicate for eri{key}")
            eri_seen[key] = value
            for p in _eri_images(i - 1, j - 1, k - 1, l - 1):
                eri[p] = value

    return ElectronicHamiltonian(
        n_orbitals=n, core_energy=core, h=h, eri=eri,
        n_electrons=n_electrons, ms2=ms2,
    )


def write_fcidump(hamiltonian: ElectronicHamiltonian, path: str | Path | None = None,
                  tol: float = 1e-14) -> str:
    """Render an FCIDUMP document; write it to ``path`` when given."""
    H = hamiltonian
    n = H.n_orbitals
    lines = []
    nelec = H.n_electrons if H.n_electrons is not None else 0
    ms2 = H.ms2 if H.ms2 is not None else 0
    lines.append(f"&FCI NORB={n},NELEC={nelec},MS2={ms2},")
    lines.append("  ORBSYM=" + "1," * n)
    lines.append("  ISYM=1,")
    lines.append("&END")
    fmt = "{:23.16E} {:4d} {:4d} {:4d} {:4d}"
    seen: set[tuple[int, int, int, int]] = set()
    for i in range(n):
        for j in range(i + 1):
            for k in range(i + 1):
                for l in range(k + 1):
                    key = _canonical_eri_index(i, j, k, l)
                    if key in seen:
                        continue
                    seen.add(key)
                    value = H.eri[i, j, k, l]
                    if abs(value) > tol:
                        lines.append(fmt.format(value, i + 1, j + 1, k + 1, l + 1))
    for i in range(n):
        for j in range(i + 1):
            if abs(H.h[i, j]) > tol:
                lines.append(fmt.format(H.h[i, j], i + 1, j + 1, 0, 0))
    lines.append(fmt.format(H.core_energy, 0, 0, 0, 0))
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


# ---------------------------------------------------------------------------
# Basis rotation
# ---------------------------------------------------------------------------

def rotate_to_h_eigenbasis(
    hamiltonian: ElectronicHamiltonian,
) -> tuple[ElectronicHamiltonian, np.ndarray]:
    """Rotate the orbital basis so that the one-body matrix is diagonal.

    Returns the rotated Hamiltonian and the orthogonal basis matrix ``b``
    (columns are eigenvectors of ``h`` in ascending eigenvalue order, signs
    fixed so the largest-magnitude component of each column is positive).
    New tensors are ``h' = b.T @ h @ b`` and the correspondingly transformed
    two-body tensor, which has the exact eight-fold symmetry: its eight
    index images are bit for bit equal.  The spectrum is unchanged.
    """
    H = hamiltonian
    _, basis = np.linalg.eigh(H.h)
    for col in range(basis.shape[1]):
        pivot = np.argmax(np.abs(basis[:, col]))
        if basis[pivot, col] < 0:
            basis[:, col] *= -1.0
    h_rot = basis.T @ H.h @ basis
    h_rot = 0.5 * (h_rot + h_rot.T)
    eri_rot = np.einsum(
        "pi,qj,rk,sl,pqrs->ijkl", basis, basis, basis, basis, H.eri, optimize=True
    )
    # average the eight images of each entry, which floating-point noise
    # leaves apart; the terms are added in a different order for each image,
    # so the averages can still differ in the last bit, and every image then
    # takes the value at its class's lexicographically smallest index
    images = [eri_rot.transpose(perm) for perm in ERI_PERMUTATIONS]
    eri_rot = 0.125 * sum(images[1:], images[0])
    flat = np.arange(eri_rot.size).reshape(eri_rot.shape)
    smallest = np.minimum.reduce([flat.transpose(perm) for perm in ERI_PERMUTATIONS])
    eri_rot = eri_rot.reshape(-1)[smallest]
    rotated = ElectronicHamiltonian(
        n_orbitals=H.n_orbitals,
        core_energy=H.core_energy,
        h=h_rot,
        eri=eri_rot,
        n_electrons=H.n_electrons,
        ms2=H.ms2,
    )
    return rotated, basis


# ---------------------------------------------------------------------------
# Many-body matrices
# ---------------------------------------------------------------------------

def _ascending_rows(rows, dim: int) -> np.ndarray:
    """``rows`` as int64 basis indices, checked to ascend strictly within ``[0, dim)``."""
    rows = np.asarray(rows, dtype=np.int64)
    if (rows.ndim != 1 or np.any(np.diff(rows) <= 0)
            or (rows.size and not 0 <= rows[0] <= rows[-1] < dim)):
        raise ValueError("rows must be ascending basis indices of the layout")
    return rows


def _sector_states(size: int, sectors: list[tuple[int, ...]]) -> np.ndarray:
    """Basis indices, ascending, of the states whose per-spin particle counts
    are one of ``sectors``, with ``size`` modes per spin (one spin per entry
    of a sector), built from the occupation strings of each spin."""
    blocks = []
    for counts in sectors:
        states = np.zeros(1, dtype=np.int64)
        for spin, count in enumerate(counts):
            strings = np.array([sum(1 << mode for mode in modes)
                                for modes in itertools.combinations(range(size), count)],
                               dtype=np.int64)
            states = (states[:, None] | (strings << (spin * size))[None, :]).ravel()
        blocks.append(states)
    return np.sort(np.concatenate(blocks))


@dataclass(frozen=True)
class ManyBodyOperator:
    """A Hermitian operator on the basis states ``rows`` of ``n_modes`` modes.

    ``matrix[i, j]`` is the element between basis states ``rows[i]`` and
    ``rows[j]``; ``rows`` holds ascending basis indices, as ``FockState.rows``
    does, and defaults to every basis state.
    """

    n_modes: int
    spinful: bool
    matrix: np.ndarray
    rows: np.ndarray | None = None
    _eig: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = (np.arange(1 << self.n_modes) if self.rows is None
                else _ascending_rows(self.rows, 1 << self.n_modes))
        object.__setattr__(self, "rows", rows)
        if self.matrix.shape != (rows.size, rows.size):
            raise ValueError(f"matrix shape {self.matrix.shape} != {(rows.size, rows.size)}")

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors, computed once and cached."""
        if "w" not in self._eig:
            w, v = np.linalg.eigh(self.matrix)
            self._eig["w"] = w
            self._eig["v"] = v
        return self._eig["w"], self._eig["v"]

    def propagator(self, t: float) -> np.ndarray:
        """The dense unitary ``exp(-i matrix t)``, from the cached eigensystem."""
        w, v = self.eigensystem()
        return (v * np.exp(-1j * w * t)) @ v.conj().T

    def norm(self) -> float:
        """Spectral norm."""
        w, _ = self.eigensystem()
        return float(np.max(np.abs(w)))


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class MemoryRefusal(ValueError):
    """A computation whose estimated memory exceeds physical memory."""


def _admit_memory(what: str, n_modes: int, needed: int) -> None:
    """The package's one register-size admission rule, called where the
    memory is allocated, before it is: ``needed`` estimated bytes for
    ``what`` on ``n_modes`` modes must fit in physical memory."""
    available = _physical_memory_bytes()
    if needed > available:
        raise MemoryRefusal(
            f"{what} on {n_modes} modes needs about {needed / 2**20:.0f} MiB, "
            f"more than the {available / 2**20:.0f} MiB of physical memory"
        )


def operator_memory_bytes(dim: int, n_modes: int) -> int:
    """Estimated peak bytes of a dense many-body operator on ``dim`` basis
    states of ``n_modes`` modes and its eigensystem."""
    return (OPERATOR_WORKING_COPIES * 16 * dim * dim + OPERATOR_SCRATCH_BYTES
            + OPERATOR_TABLE_ENTRY_BYTES * n_modes * n_modes * dim)


def _excitation_tables(n_modes: int, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where a+_p a_q sends each of the ascending basis ``states``, and with which sign.

    ``dest[p, q, x]`` is the position in ``states`` of the basis state
    a+_p a_q maps ``states[x]`` to and ``signs[p, q, x]`` its Jordan-Wigner
    sign; where the product annihilates ``states[x]``, or leads to a state
    that is not listed, the sign is 0 and the position is ``x``.
    """
    modes = np.arange(n_modes)
    occupied = (states >> modes[:, None]) & 1
    below = np.cumsum(occupied, axis=0) - occupied  # occupied modes under each mode
    p, q = modes[:, None, None], modes[None, :, None]
    targets = states - (1 << q) + (1 << p)
    at = np.searchsorted(states, targets)
    valid = ((occupied[None] == 1) & ((p == q) | (occupied[:, None] == 0))
             & (states.take(at, mode="clip") == targets))
    parity = below[None] + below[:, None] - (q < p)
    signs = np.where(valid, 1.0 - 2.0 * (parity & 1), 0.0)
    dest = np.where(valid, at, np.arange(states.size))
    return dest, signs


def build_many_body_operator(
    hamiltonian: ElectronicHamiltonian,
    spinful: bool = False,
    rows: np.ndarray | None = None,
) -> ManyBodyOperator:
    """Build the dense matrix of the Hamiltonian on the basis states ``rows``.

    For the spinful case every orbital carries two modes, up spins at
    0 .. n-1 and down spins at n .. 2n-1, and both ``h`` and ``eri`` are
    summed over spin labels.  ``rows`` are ascending basis indices, every
    basis state by default; a term that leads out of them is dropped, so on
    a union of (N_up, N_down) sectors, which every term maps into itself,
    the matrix is bit for bit that block of the full one.  Dense matrices
    grow as the square of the row count; a build whose estimated memory
    exceeds physical memory is refused before it allocates.
    """
    H = hamiltonian
    n = H.n_orbitals
    n_modes = 2 * n if spinful else n
    dim = 1 << n_modes if rows is None else len(rows)
    _admit_memory("the many-body operator", n_modes, operator_memory_bytes(dim, n_modes))
    states = np.arange(dim) if rows is None else _ascending_rows(rows, 1 << n_modes)
    dest, signs = (x.reshape(-1) for x in _excitation_tables(n_modes, states))
    matrix = np.zeros((dim, dim), dtype=complex)
    entries = matrix.reshape(-1).real  # a view: writes land in the matrix
    columns = np.arange(dim)

    def table_at(p, q):
        """Offsets of the table rows of a+_p a_q over the listed states."""
        return (p * n_modes + q) * dim + columns

    spins = 2 if spinful else 1
    # Terms are added in the order of their indices (orbitals, then spins;
    # one-body before two-body), so every entry sums its terms in one fixed
    # order: np.add.at adds repeated indices one at a time, in order, and is
    # about ten times faster on flat operands.  Mode (i, s) is i + s n.
    i, j, s = np.indices((n, n, spins)).reshape(3, -1)
    h = H.h[i, j]
    kept = h != 0.0
    ij = table_at((i + n * s)[kept, None], (j + n * s)[kept, None])
    np.add.at(entries, (dest[ij] * dim + columns).ravel(), (h[kept, None] * signs[ij]).ravel())

    # 1/2 V_ijkl a+_i a+_k a_l a_j == 1/2 V_ijkl (E_ij E_kl - delta_jk E_il),
    # over the n**4 spins**2 terms a chunk at a time, so that no array grows
    # with their count; a scratch array holds chunk x dim entries: 1/256 of
    # the matrix's bytes, or 2**15 entries on small registers
    shape = (n, n, n, n, spins, spins)
    n_terms = n**4 * spins**2
    chunk = max(1, max(dim * dim // 128, 1 << 15) // max(dim, 1))
    for start in range(0, n_terms, chunk):
        i, j, k, l, s, t = np.unravel_index(np.arange(start, min(start + chunk, n_terms)), shape)
        v = H.eri[i, j, k, l]
        kept = v != 0.0
        mi, mj, mk, ml = (x[kept, None] for x in (i + n * s, j + n * s, k + n * t, l + n * t))
        kl, il = table_at(mk, ml), table_at(mi, ml)
        ij_kl = (mi * n_modes + mj) * dim + dest[kl]  # a+_i a_j after a+_k a_l
        both = signs[ij_kl] * signs[kl]
        contracted = (mj == mk) * signs[il]
        target = np.where(both != 0.0, dest[ij_kl], dest[il])
        weights = 0.5 * v[kept, None] * (both - contracted)
        np.add.at(entries, (target * dim + columns).ravel(), weights.ravel())
    entries[:: dim + 1] += H.core_energy
    return ManyBodyOperator(n_modes=n_modes, spinful=spinful, matrix=matrix, rows=states)


def ground_state_energy(
    hamiltonian: ElectronicHamiltonian,
    n_electrons: int | None = None,
    spinful: bool = False,
) -> float:
    """Lowest eigenvalue in the fixed particle-number sector.

    ``n_electrons`` defaults to the Hamiltonian's metadata; the operator is
    built on the states of that many electrons only.
    """
    if n_electrons is None:
        n_electrons = hamiltonian.n_electrons
    if n_electrons is None:
        raise ValueError("n_electrons not given and not present as metadata")
    n = hamiltonian.n_orbitals
    n_modes = 2 * n if spinful else n
    if not 0 <= n_electrons <= n_modes:
        raise ValueError(f"cannot place {n_electrons} electrons in {n_modes} modes")
    if spinful:
        sectors = [(up, n_electrons - up) for up in range(max(0, n_electrons - n),
                                                          min(n, n_electrons) + 1)]
    else:
        sectors = [(n_electrons,)]
    op = build_many_body_operator(hamiltonian, spinful, _sector_states(n, sectors))
    return float(np.linalg.eigvalsh(op.matrix)[0])
