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
  as the least significant bit of an occupation string.  Spinful
  representations place all up-spin modes at 0 .. n-1 and all down-spin
  modes at n .. 2n-1.
* States and operators are indexed in sector-major order, never by a
  full-register basis index.  A list of (N_up, N_down) sectors ((N,) when
  spinless), ascending and every sector by default, fixes the index
  space: the sectors follow one another in that order, and within a
  sector of n modes per spin its C(n, N_down) x C(n, N_up) grid of down
  and up strings is listed row-major, down-string rank then up-string
  rank, with each spin's k-particle strings ascending as int64 bitmasks
  (mode k at bit k, so at most 63 modes per spin).  On one sector this is
  the ascending order of the basis indices.  ``_sector_offsets`` places
  the sectors, for every module.
* H is built one sector at a time on its string grid, with E_pq =
  E_up_pq (x) 1 + 1 (x) E_down_pq: each spin's tables list, for every
  k-particle string, the k(n - k) + k excitations a+_p a_q that keep it,
  the string each leads to and its Jordan-Wigner sign, and every term is
  a lookup in them.  H keeps each sector, so its matrix is block diagonal;
  a sector's block depends on that sector alone, so the matrix on a few
  sectors is bit for bit those blocks of the full one.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import re
from dataclasses import dataclass
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
# LAPACK's complex and real workspaces, and a spare (measured peak at 10
# modes: 5.8 copies; the build alone, at most 3.7); a floor that does not
# scale with the matrix: a chunk of up to OPERATOR_TERM_CHUNK terms of the
# build, the string tables and small arrays (tracemalloc: at most 1.1 MiB
# above the copies on blocks of 1 to 2300 states of 4 to 63 modes)
OPERATOR_WORKING_COPIES = 6
OPERATOR_SCRATCH_BYTES = 3 * 2**20
OPERATOR_TERM_CHUNK = 2**15


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


def _eri_images(i: int, j: int, k: int, l: int):
    """The eight index images of (ij|kl); the largest keys its class."""
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
            images = _eri_images(i - 1, j - 1, k - 1, l - 1)
            key = max(images)
            if key in eri_seen and abs(eri_seen[key] - value) > 1e-10:
                raise FcidumpError(f"line {lineno}: conflicting duplicate for eri{key}")
            eri_seen[key] = value
            for p in images:
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
                    key = max(_eri_images(i, j, k, l))
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

def _sector_list(size: int, n_spins: int, sectors=None) -> tuple[tuple[int, ...], ...]:
    """``sectors``, per-spin particle counts of ``size`` modes per spin, as an
    ascending tuple; every sector by default."""
    if sectors is None:
        return tuple(itertools.product(range(size + 1), repeat=n_spins))
    listed = tuple(tuple(int(k) for k in counts) for counts in sectors)
    if (any(len(counts) != n_spins or not all(0 <= k <= size for k in counts)
            for counts in listed) or any(a >= b for a, b in zip(listed, listed[1:]))):
        raise ValueError(f"sectors must be ascending counts of {n_spins} spin(s) "
                         f"of {size} modes each, got {sectors!r}")
    return listed


def _sector_offsets(size: int, sectors) -> list[int]:
    """Where the block of each of ``sectors`` starts in sector-major order,
    then the total: the sector (N_up, N_down) of ``size`` modes per spin
    holds C(size, N_down) C(size, N_up) cells."""
    return list(itertools.accumulate(
        (math.prod(math.comb(size, k) for k in counts) for counts in sectors), initial=0))


@dataclass(frozen=True)
class ManyBodyOperator:
    """A Hermitian operator on the (N_up, N_down) sectors ``sectors`` of
    ``n_modes`` modes, every sector by default.

    ``matrix`` is indexed in sector-major order (module docstring), as the
    amplitudes of a ``FockState`` on the same sectors are.
    """

    n_modes: int
    spinful: bool
    matrix: np.ndarray
    sectors: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        n_spins = 2 if self.spinful else 1
        size = self.n_modes // n_spins
        sectors = _sector_list(size, n_spins, self.sectors)
        object.__setattr__(self, "sectors", sectors)
        dim = _sector_offsets(size, sectors)[-1]
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.matrix.shape} != {(dim, dim)}")

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors, from ``eigh`` on every call."""
        return np.linalg.eigh(self.matrix)

    def propagator(self, t: float) -> np.ndarray:
        """The dense unitary ``exp(-i matrix t)``, from the eigensystem."""
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


def operator_memory_bytes(dim: int) -> int:
    """Estimated peak bytes of a dense many-body operator on ``dim`` basis
    states and of its eigensystem."""
    return OPERATOR_WORKING_COPIES * 16 * dim * dim + OPERATOR_SCRATCH_BYTES


@functools.lru_cache(maxsize=8)
def _string_tables(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One spin's k-particle strings of ``n`` modes, ascending; row x of ``pq``,
    ``dest`` and ``signs`` lists the k(n - k) + k a+_p a_q that keep
    ``strings[x]``, by p n + q, the position of the string each leads to and
    its Jordan-Wigner sign.  Read-only, and cached for the last 8 (n, k): a
    simulate run reads four, (n, N_up), (n, N_down), (m, N_up) and
    (m, N_down), for the reference and for the step engine."""
    strings = np.array(sorted(sum(1 << mode for mode in modes)
                              for modes in itertools.combinations(range(n), k)), dtype=np.int64)
    modes = np.arange(n)
    occupied = (strings[:, None] >> modes) & 1
    below = np.cumsum(occupied, axis=1) - occupied  # occupied modes under each mode
    # a+_p a_q keeps a string when q is occupied and p is empty or is q
    x, p, q = np.nonzero((occupied[:, None, :] == 1)
                         & ((modes[:, None] == modes) | (occupied[:, :, None] == 0)))
    dest = np.searchsorted(strings, strings[x] - (1 << q) + (1 << p))
    signs = 1.0 - 2.0 * ((below[x, p] + below[x, q] - (q < p)) & 1)
    tables = (strings, *(a.reshape(strings.size, -1) for a in (p * n + q, dest, signs)))
    for table in tables:
        table.flags.writeable = False
    return tables


def _chained(first: tuple, second: tuple, weight, size: int) -> np.ndarray:
    """sum of weight(pq_2, pq_1) E_2 E_1 over the excitations E_1 of ``first``
    and then E_2 of ``second``, (pq, dest, signs) tables on the same ``size``
    states, as a flat dense block.  The states go a chunk at a time, with at
    most as many terms as the block has entries (or OPERATOR_TERM_CHUNK)."""
    (pq_1, dest_1, signs_1), (pq_2, dest_2, signs_2) = first, second
    block = np.zeros(size * size)  # np.bincount returns integers for no terms
    column = np.arange(size)[:, None, None]
    step = max(1, max(size * size, OPERATOR_TERM_CHUNK) // max(pq_1.shape[1] * pq_2.shape[1], 1))
    for x in (slice(start, start + step) for start in range(0, size, step)):
        mid = dest_1[x]  # where E_1 leads, and E_2 starts
        weights = weight(pq_2[mid], pq_1[x, :, None]) * (signs_2[mid] * signs_1[x, :, None])
        block += np.bincount((dest_2[mid] * size + column[x]).ravel(), weights.ravel(), size * size)
    return block


def build_many_body_operator(
    hamiltonian: ElectronicHamiltonian,
    spinful: bool = False,
    sectors=None,
) -> ManyBodyOperator:
    """Build the dense matrix of the Hamiltonian on the (N_up, N_down)
    ``sectors``, ascending, every sector by default, in sector-major order.

    For the spinful case every orbital carries two modes, up spins at
    0 .. n-1 and down spins at n .. 2n-1, and both ``h`` and ``eri`` are
    summed over spin labels.  Each sector's block is written at its offset;
    on a few sectors the matrix is bit for bit those blocks of the full
    one.  A build whose estimated memory exceeds physical memory is refused
    before it allocates.
    """
    H = hamiltonian
    n = H.n_orbitals
    n_spins = 2 if spinful else 1
    n_modes = n_spins * n
    sectors = _sector_list(n, n_spins, sectors)
    offsets = _sector_offsets(n, sectors)
    dim = offsets[-1]
    _admit_memory("the many-body operator", n_modes, operator_memory_bytes(dim))

    # H = sum_pq K_pq E_pq + 1/2 sum_pqrs V_pqrs E_pq E_rs + core, with
    # K_pq = h_pq - 1/2 sum_r V_prrq and E_pq = E_up_pq + E_down_pq
    one_body = (H.h - 0.5 * np.einsum("prrq->pq", H.eri)).reshape(-1)
    two_body = H.eri.reshape(n * n, n * n)
    spins = [(*counts, 0)[:2] for counts in sectors]  # a spinless down string is empty
    within = {}  # the terms within one spin, dense on its k-particle strings
    for k in set(itertools.chain(*spins)):
        strings, pq, dest, signs = _string_tables(n, k)
        within[k] = _chained((pq, dest, signs), (pq, dest, signs),
                             lambda x, y: 0.5 * two_body[x, y], strings.size)
        within[k] += np.bincount((dest * strings.size + np.arange(strings.size)[:, None]).ravel(),
                                 (one_body[pq] * signs).ravel(), strings.size**2)
    matrix = np.zeros((dim, dim), dtype=complex)
    for (n_up, n_down), start in zip(spins, offsets):
        (up, pq_u, dest_u, signs_u), (down, pq_d, dest_d, signs_d) = (
            _string_tables(n, n_up), _string_tables(n, n_down))
        c_u, c_d = up.size, down.size
        # the sector on its cells (d, u) of a down and an up string, at d c_u + u:
        # within_down (x) 1 + 1 (x) within_up + sum_pqrs W_pqrs E_up_pq E_down_rs,
        # with W_pqrs the average of V_pqrs and V_rspq
        d, u = np.divmod(np.arange(c_d * c_u), c_u)
        cross = _chained((pq_u[u], d[:, None] * c_u + dest_u[u], signs_u[u]),
                         (pq_d[d], dest_d[d] * c_u + u[:, None], signs_d[d]),
                         lambda x, y: 0.5 * (two_body[x, y] + two_body[y, x]), c_d * c_u)
        block = (within[n_down].reshape(c_d, 1, c_d, 1) * np.eye(c_u)[None, :, None, :]
                 + np.eye(c_d)[:, None, :, None] * within[n_up].reshape(1, c_u, 1, c_u))
        cells = slice(start, start + c_d * c_u)
        matrix.real[cells, cells] = (block.reshape(-1) + cross).reshape(c_d * c_u, -1)
    matrix.reshape(-1).real[:: dim + 1] += H.core_energy
    return ManyBodyOperator(n_modes=n_modes, spinful=spinful, matrix=matrix, sectors=sectors)


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
    op = build_many_body_operator(hamiltonian, spinful, sectors)
    return float(np.linalg.eigvalsh(op.matrix)[0])
