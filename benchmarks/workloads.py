"""The three benchmark workloads: seeded inputs, CLI arguments, exact counts, checks.

Each workload is one ``isothc`` CLI invocation on files generated here from
the benchmark seed; the program only ever sees those files.

* ``factorize-n6m12`` runs only through ``thc``: 3 restarts x 2000 Adam
  iterations on a 6-orbital Hamiltonian planted at THC rank 12 plus a small
  eight-fold-symmetric noise term.  Each iteration is dominated by fixed
  per-call overhead (two pseudoinverses, einsum path planning, factor
  validation), so refinement-core changes move it and nothing else does.
* ``simulate-h2`` evolves the bundled H2 integrals (6-mode register, 64 x 64
  density) over seven step sizes, 7520 Trotter steps in all.  Per-call
  overhead dominates: step bookkeeping, the ancilla reset, gate-by-gate
  compilation of 14 small step unitaries.  Its inputs do not depend on the
  seed, and its error slopes (about 1 basic, 2 improved) check correctness.
* ``simulate-n3m5`` uses the same functions on a 10-mode register (1024 x
  1024 density) with exact planted factors.  Dense kernels dominate: 2048
  compiled columns and two 1024^3 complex matrix products per step.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from isothc.cli import fit_loglog
from isothc.hamiltonian import (
    ElectronicHamiltonian,
    parse_fcidump,
    rotate_to_h_eigenbasis,
    write_fcidump,
)
from isothc.thc import (
    ThcFactorization,
    approximation_errors,
    contract_vtilde,
    exact_factorize,
    projected_interaction,
    random_co_isometry,
)

# Reference values recorded at the default seed must match to this relative
# tolerance.  The runs are deterministic at a fixed BLAS thread count; the
# slack covers last-digit differences between BLAS kernels on other CPUs.
REFERENCE_RTOL = 1e-6
# Fitted error slopes on simulate-h2 must lie within this distance of the
# first- and second-order values.
SLOPE_WINDOW = 0.15
# Relative size of the noise added to the planted factorize Hamiltonian.
FACTORIZE_NOISE = 1e-3
# Exact factorizations drawn for H2; the one with the smallest core l1 norm
# keeps the largest step sizes in the perturbative regime.
H2_EXACT_SEEDS = 10

REFERENCE_FILE = Path(__file__).with_name("reference.json")
H2_FCIDUMP = Path("src/isothc/data/h2_sto6g.fcidump")


# Every simulate workload runs both step variants.
VARIANTS = ("basic", "improved")


@dataclass(frozen=True)
class Workload:
    """One CLI invocation and the sizes that define it."""

    name: str
    kind: str  # "factorize" or "simulate"
    time_limit_s: float
    n: int
    m: int
    # factorize
    restarts: int = 0
    rounds: tuple[int, int] = (0, 0)
    # simulate
    n_electrons: int = 0
    t: float = 0.0
    taus: tuple[float, ...] = ()
    bundled_h2: bool = False

    # exact counts; they repeat from run to run

    @property
    def register_modes(self) -> int:
        return 2 * self.m if self.kind == "simulate" else 0

    @property
    def fock_dim(self) -> int:
        return 2 ** self.register_modes if self.kind == "simulate" else 0

    @property
    def density_bytes(self) -> int:
        """Computed, not measured: one complex128 density of the register."""
        return 16 * 4 ** self.register_modes if self.kind == "simulate" else 0

    @property
    def engines(self) -> int:
        return len(VARIANTS) * len(self.taus) if self.kind == "simulate" else 0

    @property
    def compile_columns(self) -> int:
        return self.engines * self.fock_dim

    def steps_per_tau(self, tau: float) -> int:
        return int(round(self.t / tau))

    @property
    def trotter_steps(self) -> int:
        return len(VARIANTS) * sum(self.steps_per_tau(tau) for tau in self.taus)

    @property
    def adam_iterations(self) -> int:
        return self.restarts * sum(self.rounds)

    def counts(self) -> dict[str, int]:
        return {
            "algorithm.register_modes": self.register_modes,
            "algorithm.fock_dim": self.fock_dim,
            "focksim.density_bytes": self.density_bytes,
            "algorithm.compile.columns": self.compile_columns,
            "algorithm.trotter_steps": self.trotter_steps,
            "thc.adam_iterations": self.adam_iterations,
        }


H2_TAUS = (0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("factorize-n6m12", "factorize", time_limit_s=60.0, n=6, m=12,
                 restarts=3, rounds=(1000, 1000)),
        Workload("simulate-h2", "simulate", time_limit_s=40.0, n=2, m=3,
                 n_electrons=2, t=2.0, taus=H2_TAUS, bundled_h2=True),
        Workload("simulate-n3m5", "simulate", time_limit_s=90.0, n=3, m=5,
                 n_electrons=3, t=1.0, taus=(0.1,)),
    )
}

# Tiny versions of the same workloads for the smoke test.
SMOKE_WORKLOADS = {
    "factorize-n6m12": Workload("factorize-n6m12", "factorize", time_limit_s=30.0,
                                n=3, m=4, restarts=2, rounds=(15, 15)),
    "simulate-h2": Workload("simulate-h2", "simulate", time_limit_s=30.0, n=2, m=3,
                            n_electrons=2, t=0.1, taus=(0.02, 0.01), bundled_h2=True),
    "simulate-n3m5": Workload("simulate-n3m5", "simulate", time_limit_s=30.0,
                              n=2, m=3, n_electrons=2, t=0.2, taus=(0.1,)),
}


# ---------------------------------------------------------------------------
# inputs


def _symmetrize8(x: np.ndarray) -> np.ndarray:
    """Average over the eight permutations of real chemists'-notation integrals."""
    perms = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
             (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)]
    return sum(x.transpose(p) for p in perms) / 8.0


def planted_hamiltonian(
    n: int, m: int, seed: int, noise: float, diagonal_h: bool
) -> tuple[ElectronicHamiltonian, np.ndarray]:
    """Two-body tensor recontracted from random rank-m factors, plus noise.

    Returns the Hamiltonian and the planted co-isometry.  With
    ``diagonal_h`` the one-body matrix is diagonal with ascending entries,
    so the orbital basis already is the one-body eigenbasis and the planted
    factors stay exact after the CLI's eigenbasis rotation.
    """
    rng = np.random.default_rng(seed)
    u = random_co_isometry(n, m, rng)
    a = rng.normal(size=(m, m))
    vtilde = (a + a.T) / (2.0 * m)
    eri = projected_interaction(u=u, vtilde=vtilde)
    if noise > 0.0:
        term = _symmetrize8(rng.normal(size=(n, n, n, n)))
        eri = eri + noise * np.linalg.norm(eri) / np.linalg.norm(term) * term
    if diagonal_h:
        h = np.diag(np.sort(rng.uniform(-1.5, -0.5, size=n)))
    else:
        b = rng.normal(size=(n, n))
        h = -0.25 * (b + b.T)
    core = float(rng.uniform(0.0, 1.0))
    return ElectronicHamiltonian(n, core, h, eri, n_electrons=n, ms2=0), u


def _exact_thc_json(rotated: ElectronicHamiltonian, u: np.ndarray) -> str:
    vtilde, htilde = contract_vtilde(u, rotated)
    thc = ThcFactorization(u=u, vtilde=vtilde, htilde=htilde)
    eps_v, eps_h = approximation_errors(rotated, thc)
    return ThcFactorization(u=u, vtilde=vtilde, htilde=htilde, eps_v=eps_v,
                            eps_h=eps_h, config={"method": "planted"}).to_json()


def make_inputs(workload: Workload, seed: int, root: Path, outdir: Path) -> dict:
    """Write the workload's input files under ``outdir``; return their paths."""
    outdir.mkdir(parents=True, exist_ok=True)
    inputs: dict = {}
    if workload.kind == "factorize":
        ham, _ = planted_hamiltonian(workload.n, workload.m, seed, FACTORIZE_NOISE,
                                     diagonal_h=False)
        inputs["fcidump"] = str(outdir / "integrals.fcidump")
        write_fcidump(ham, inputs["fcidump"])
        return inputs
    if workload.bundled_h2:
        inputs["fcidump"] = str(root / H2_FCIDUMP)
        rotated, _ = rotate_to_h_eigenbasis(parse_fcidump(inputs["fcidump"]))
        candidates = [exact_factorize(rotated, m=workload.m, seed=s)
                      for s in range(H2_EXACT_SEEDS)]
        thc = min(candidates, key=lambda f: float(np.abs(f.vtilde).sum()))
        thc_json = thc.to_json()
    else:
        ham, u = planted_hamiltonian(workload.n, workload.m, seed, 0.0, diagonal_h=True)
        inputs["fcidump"] = str(outdir / "integrals.fcidump")
        write_fcidump(ham, inputs["fcidump"])
        rotated, _ = rotate_to_h_eigenbasis(parse_fcidump(inputs["fcidump"]))
        thc_json = _exact_thc_json(rotated, u)
    inputs["thc"] = str(outdir / "thc.json")
    Path(inputs["thc"]).write_text(thc_json)
    return inputs


def cli_argv(workload: Workload, inputs: dict, outdir: Path) -> list[str]:
    """Arguments to ``isothc.cli.main`` for one invocation."""
    if workload.kind == "factorize":
        return [
            "factorize", "--fcidump", inputs["fcidump"], "--m", str(workload.m),
            "--restarts", str(workload.restarts),
            "--rounds-phase1", str(workload.rounds[0]),
            "--rounds-phase2", str(workload.rounds[1]),
            "--outdir", str(outdir),
        ]
    return [
        "simulate", "--fcidump", inputs["fcidump"], "--thc", inputs["thc"],
        "--spinful", "--n-electrons", str(workload.n_electrons),
        "--t", repr(workload.t), "--tau", *(repr(tau) for tau in workload.taus),
        "--variants", *VARIANTS,
        "--outdir", str(outdir),
    ]


# ---------------------------------------------------------------------------
# output checks


def starting_eps_v(workload: Workload, inputs: dict) -> float:
    """Best eps_v among the refinement's random starting points.

    The CLI's default seed 0 gives restart r the co-isometry drawn from seed
    r; the core is re-solved in closed form exactly as the refinement does.
    """
    rotated, _ = rotate_to_h_eigenbasis(parse_fcidump(inputs["fcidump"]))
    best = math.inf
    for restart in range(workload.restarts):
        u = random_co_isometry(rotated.n_orbitals, workload.m, restart)
        vtilde, htilde = contract_vtilde(u, rotated)
        eps_v, _ = approximation_errors(
            rotated, ThcFactorization(u=u, vtilde=vtilde, htilde=htilde)
        )
        best = min(best, eps_v)
    return best


def load_reference(workload: Workload, seed: int) -> dict | None:
    """Reference values for this workload and seed, if recorded."""
    recorded = json.loads(REFERENCE_FILE.read_text()).get(workload.name)
    if recorded is None:
        return None
    if workload.bundled_h2 or recorded["seed"] == seed:
        return recorded
    return None


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REFERENCE_RTOL * abs(reference)


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def check_factorize(workload: Workload, outdir: Path, context: dict) -> list[str]:
    """Problems with one factorize run's outputs; empty when all checks pass."""
    problems = []
    rows = _read_csv(outdir / "metrics.csv")
    if len(rows) != 1 or int(rows[0]["m"]) != workload.m:
        return [f"metrics.csv: expected one row for m = {workload.m}, got {rows}"]
    eps_v = float(rows[0]["eps_v"])
    if not (math.isfinite(eps_v) and 0.0 <= eps_v <= 1.0):
        problems.append(f"eps_v {eps_v!r} is not a finite value in [0, 1]")
    restarts = _read_csv(outdir / "restarts.csv")
    if len(restarts) != workload.restarts:
        problems.append(f"restarts.csv has {len(restarts)} rows, want {workload.restarts}")
    try:
        thc = ThcFactorization.from_json((outdir / f"thc_m{workload.m}.json").read_text())
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"written factors do not load: {exc}")
    else:
        if thc.u.shape != (workload.n, workload.m):
            problems.append(f"written factors have shape {thc.u.shape}")
        if thc.eps_v is None or not _close(thc.eps_v, eps_v):
            problems.append(f"factor file eps_v {thc.eps_v} != metrics.csv {eps_v}")
    start = context["starting_eps_v"]
    if eps_v > start * (1.0 + 1e-12):
        problems.append(f"eps_v {eps_v:.6e} is worse than the best start {start:.6e}")
    reference = context.get("reference")
    if reference is not None and not _close(eps_v, reference["eps_v"]):
        problems.append(
            f"eps_v {eps_v:.12e} differs from the reference {reference['eps_v']:.12e}"
        )
    return problems


def simulate_errors(outdir: Path) -> dict[str, dict[float, float]]:
    """error_scaling.csv as {variant: {tau: error}}."""
    table: dict[str, dict[float, float]] = {}
    for row in _read_csv(outdir / "error_scaling.csv"):
        table.setdefault(row["variant"], {})[float(row["tau"])] = float(row["error"])
    return table


def check_simulate(workload: Workload, outdir: Path, context: dict) -> list[str]:
    """Problems with one simulate run's outputs; empty when all checks pass."""
    problems = []
    rows = _read_csv(outdir / "error_scaling.csv")
    expected = {(v, tau): workload.steps_per_tau(tau)
                for v in VARIANTS for tau in workload.taus}
    seen = {(row["variant"], float(row["tau"])): int(row["steps"]) for row in rows}
    if seen != expected:
        return [f"error_scaling.csv rows {sorted(seen.items())} != {sorted(expected.items())}"]
    errors = simulate_errors(outdir)
    for variant, by_tau in errors.items():
        for tau, error in by_tau.items():
            if not (math.isfinite(error) and 0.0 <= error <= 1.0):
                problems.append(f"{variant} tau={tau}: error {error!r} not in [0, 1]")
    for tau in workload.taus:
        if not errors["improved"][tau] < errors["basic"][tau]:
            problems.append(
                f"tau={tau}: improved error {errors['improved'][tau]:.3e} does not "
                f"beat basic {errors['basic'][tau]:.3e}"
            )
    if workload.bundled_h2:
        for variant, order in (("basic", 1.0), ("improved", 2.0)):
            taus = sorted(errors[variant])
            slope = fit_loglog(taus, [errors[variant][tau] for tau in taus]).slope
            if abs(slope - order) > SLOPE_WINDOW:
                problems.append(
                    f"{variant} slope {slope:.3f} outside {order} +/- {SLOPE_WINDOW}"
                )
    reference = context.get("reference")
    if reference is not None:
        for variant, by_tau in reference["errors"].items():
            for tau_text, ref in by_tau.items():
                got = errors[variant][float(tau_text)]
                if not _close(got, ref):
                    problems.append(
                        f"{variant} tau={tau_text}: error {got:.12e} differs from "
                        f"the reference {ref:.12e}"
                    )
    return problems


def check_outputs(workload: Workload, outdir: Path, context: dict) -> list[str]:
    if workload.kind == "factorize":
        return check_factorize(workload, outdir, context)
    return check_simulate(workload, outdir, context)


def check_context(workload: Workload, seed: int, inputs: dict, smoke: bool) -> dict:
    """Per-run data the checks compare against, computed once per run."""
    context: dict = {"reference": None if smoke else load_reference(workload, seed)}
    if workload.kind == "factorize":
        context["starting_eps_v"] = starting_eps_v(workload, inputs)
    return context


def output_summary(workload: Workload, seed: int, outdir: Path) -> dict:
    """The checked output values of one run, in the layout of reference.json."""
    if workload.kind == "factorize":
        eps_v = float(_read_csv(outdir / "metrics.csv")[0]["eps_v"])
        return {"seed": seed, "eps_v": eps_v}
    errors = {variant: {repr(tau): err for tau, err in by_tau.items()}
              for variant, by_tau in simulate_errors(outdir).items()}
    return {"seed": seed, "errors": errors}
