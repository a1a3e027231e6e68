#!/usr/bin/env python3
"""Generate the bundled H2/STO-6G FCIDUMP from closed-form Gaussian integrals.

Every basis function is a contraction of s-type Gaussians, so the overlap,
kinetic, nuclear-attraction, and electron-repulsion integrals all have
textbook closed forms in the Boys function F0; no external chemistry
package is required.  The two molecular orbitals of the symmetric dimer
are fixed by symmetry (gerade and ungerade combinations), which
simultaneously diagonalizes the overlap and the core Hamiltonian, so no
self-consistent loop is needed either.

Prints the Hartree-Fock and exact (full-CI) ground-state energies as a
sanity check, then writes the integrals in the molecular-orbital basis.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np
from scipy.special import erf

from isothc.hamiltonian import ElectronicHamiltonian, ground_state_energy, write_fcidump

BOHR_PER_ANGSTROM = 1.8897259886

# STO-6G hydrogen 1s: six primitives fit to a zeta = 1.24 Slater function
EXPONENTS = np.array([
    35.52322122, 6.513143725, 1.822142904,
    0.625955266, 0.243076747, 0.100112428,
])
CONTRACTION = np.array([
    0.00916359628, 0.04936149294, 0.16853830490,
    0.37056279970, 0.41649152980, 0.13033408410,
])


def boys0(t: np.ndarray) -> np.ndarray:
    """F0(t) = (1/2) sqrt(pi/t) erf(sqrt(t)), continuous through t = 0."""
    t = np.asarray(t, dtype=float)
    safe = np.where(t < 1e-12, 1.0, t)
    series = 1.0 - t / 3.0
    closed = 0.5 * np.sqrt(np.pi / safe) * erf(np.sqrt(safe))
    return np.where(t < 1e-12, series, closed)


def normalized_coefficients() -> np.ndarray:
    """Contraction weights times primitive norms, renormalized as a whole."""
    d = CONTRACTION * (2.0 * EXPONENTS / np.pi) ** 0.75
    p = EXPONENTS[:, None] + EXPONENTS[None, :]
    norm = np.sqrt(d @ ((np.pi / p) ** 1.5) @ d)
    return d / norm


def one_electron_matrices(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overlap and core (kinetic plus nuclear attraction) AO matrices."""
    d = normalized_coefficients()
    a = EXPONENTS[:, None]
    b = EXPONENTS[None, :]
    p = a + b
    mu = a * b / p
    n_ao = len(centers)
    overlap = np.zeros((n_ao, n_ao))
    core = np.zeros((n_ao, n_ao))
    for i, za in enumerate(centers):
        for j, zb in enumerate(centers):
            ab2 = (za - zb) ** 2
            gauss = (np.pi / p) ** 1.5 * np.exp(-mu * ab2)
            overlap[i, j] = d @ gauss @ d
            kinetic = d @ (mu * (3.0 - 2.0 * mu * ab2) * gauss) @ d
            zp = (a * za + b * zb) / p
            attraction = 0.0
            for zc in centers:
                weight = -2.0 * np.pi / p * np.exp(-mu * ab2)
                attraction += d @ (weight * boys0(p * (zp - zc) ** 2)) @ d
            core[i, j] = kinetic + attraction
    return overlap, core


def two_electron_tensor(centers: np.ndarray) -> np.ndarray:
    """Chemists'-notation AO repulsion integrals (ij|kl)."""
    d = normalized_coefficients()
    a = EXPONENTS[:, None, None, None]
    b = EXPONENTS[None, :, None, None]
    c = EXPONENTS[None, None, :, None]
    e = EXPONENTS[None, None, None, :]
    p, q = a + b, c + e
    prefactor = 2.0 * np.pi**2.5 / (p * q * np.sqrt(p + q))
    n_ao = len(centers)
    eri = np.zeros((n_ao,) * 4)
    for i, z1 in enumerate(centers):
        for j, z2 in enumerate(centers):
            for k, z3 in enumerate(centers):
                for l, z4 in enumerate(centers):
                    zp = (a * z1 + b * z2) / p
                    zq = (c * z3 + e * z4) / q
                    gauss = np.exp(-a * b / p * (z1 - z2) ** 2
                                   - c * e / q * (z3 - z4) ** 2)
                    t = p * q / (p + q) * (zp - zq) ** 2
                    primitive = prefactor * gauss * boys0(t)
                    eri[i, j, k, l] = np.einsum(
                        "i,j,k,l,ijkl->", d, d, d, d, primitive
                    )
    return eri


def h2_hamiltonian(bond_length_angstrom: float) -> ElectronicHamiltonian:
    """Molecular-orbital integrals of H2 at the given bond length."""
    r = bond_length_angstrom * BOHR_PER_ANGSTROM
    centers = np.array([0.0, r])
    overlap, core = one_electron_matrices(centers)
    eri_ao = two_electron_tensor(centers)

    # symmetry-adapted orbitals diagonalize overlap and core at once
    s01 = overlap[0, 1]
    basis = np.array([
        [1.0 / np.sqrt(2.0 * (1.0 + s01)), 1.0 / np.sqrt(2.0 * (1.0 - s01))],
        [1.0 / np.sqrt(2.0 * (1.0 + s01)), -1.0 / np.sqrt(2.0 * (1.0 - s01))],
    ])
    identity = basis.T @ overlap @ basis
    assert np.allclose(identity, np.eye(2), atol=1e-12)
    h_mo = basis.T @ core @ basis
    assert abs(h_mo[0, 1]) < 1e-12
    eri_mo = np.einsum("pi,qj,rk,sl,pqrs->ijkl", basis, basis, basis, basis, eri_ao)

    return ElectronicHamiltonian(
        n_orbitals=2,
        core_energy=1.0 / r,
        h=h_mo,
        eri=eri_mo,
        n_electrons=2,
        ms2=0,
    )


def main() -> None:
    default_out = Path(__file__).resolve().parents[1] / "src/isothc/data/h2_sto6g.fcidump"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bond-length", type=float, default=0.741,
                        help="H-H distance in angstrom (default: 0.741)")
    parser.add_argument("--out", type=Path, default=default_out)
    args = parser.parse_args()

    hamiltonian = h2_hamiltonian(args.bond_length)
    hartree_fock = (
        2.0 * hamiltonian.h[0, 0]
        + hamiltonian.eri[0, 0, 0, 0]
        + hamiltonian.core_energy
    )
    exact = ground_state_energy(hamiltonian, n_electrons=2)
    print(f"bond length   {args.bond_length:.4f} angstrom")
    print(f"E(HF)         {hartree_fock:+.6f} hartree")
    print(f"E(FCI)        {exact:+.6f} hartree")
    assert exact < hartree_fock

    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_fcidump(hamiltonian, args.out)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
