"""Batch front end: factorization runs, step simulations, resource tables, fits.

Every subcommand reads a flat JSON config document and/or mirroring
command-line flags (flags win over config values), each declared once in
its subcommand's option table; a document value passes through its flag's
conversion.  factorize's refinement settings form one ``RefineConfig``, which
holds their defaults and checks them.  Runs are deterministic for a given
config and seed.  Outputs are machine readable: CSV tables with a header
row, JSON documents, and a manifest recording the inputs, the config (with
factorize's seed), and the package version.  Files are written atomically
(write-temp-then-rename); reports go to stdout unless an output directory
is given.

Factorizations are always computed in the eigenbasis of the one-body
matrix, so the one-body evolution of a later simulation run is a diagonal
phase layer.  The Hartree-Fock initial state occupies the n_electrons
lowest one-body eigenmodes; this convention is flagged in the manifest.

Exit codes: 0 on success, 1 on a domain error (invalid parameter values,
infeasible requests), 2 on an input/output error (missing or malformed
files).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .algorithm import (
    DEFAULT_PHASES,
    StepSpec,
    _givens_circuit,
    evolve,
    hartree_fock_state,
)
from .focksim import ModeLayout, basis_state
from .hamiltonian import (
    ElectronicHamiltonian,
    parse_fcidump,
    rotate_to_h_eigenbasis,
)
from .resources import MottaParams, estimate_step, motta_estimate, render_comparison
from .thc import (
    RefineConfig,
    ThcFactorFile,
    ThcFactorization,
    exact_factorize,
    factorize_hamiltonian,
)


class InputError(Exception):
    """A missing or malformed input file; mapped to exit code 2."""


@dataclass(frozen=True)
class FitResult:
    """Least-squares line through log-log data."""

    slope: float
    intercept: float
    points_used: int
    r_squared: float

    def __post_init__(self) -> None:
        if self.points_used < 2:
            raise ValueError("need at least 2 points for a fit")

    def to_json(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "points_used": self.points_used,
            "r_squared": self.r_squared,
        }


def fit_loglog(x, y, k_last: int | None = None) -> FitResult:
    """Fit log y = slope log x + intercept over the last ``k_last`` points.

    Points are sorted by x before selecting the tail; ``k_last = None``
    uses the whole series.  All values must be strictly positive.
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("x and y must be one-dimensional with equal lengths")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs strictly positive values")
    k = xs.size if k_last is None else k_last
    if not 2 <= k <= xs.size:
        raise ValueError(f"k_last must be between 2 and {xs.size}, got {k}")
    order = np.argsort(xs, kind="stable")[xs.size - k:]
    lx, ly = np.log(xs[order]), np.log(ys[order])
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = ly - (slope * lx + intercept)
    total = ly - ly.mean()
    ss_tot = float(total @ total)
    r_squared = 1.0 - float(residual @ residual) / ss_tot if ss_tot > 0 else 1.0
    return FitResult(float(slope), float(intercept), int(k), r_squared)


# ---------------------------------------------------------------------------
# output plumbing


@dataclass(frozen=True)
class CommandOutput:
    """What a subcommand produced: a report plus named artifact files."""

    report: str
    artifacts: dict[str, str]
    manifest: dict


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a temporary file in the same directory, then rename."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc


def _load_hamiltonian(path: str | Path) -> ElectronicHamiltonian:
    text = _read_text(path)
    try:
        return parse_fcidump(text)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_thc(path: str | Path) -> ThcFactorization:
    text = _read_text(path)
    try:
        return ThcFactorization.from_json(text)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_factor_file(path: str | Path) -> ThcFactorFile:
    try:
        return ThcFactorFile.load(path)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _manifest(command: str, cfg: dict, input_keys: tuple[str, ...], **notes) -> dict:
    inputs = {
        key: str(Path(cfg[key]).resolve())
        for key in input_keys
        if cfg.get(key) is not None
    }
    manifest = {
        "command": command,
        "version": __version__,
        "seed": cfg.get("seed"),
        "inputs": inputs,
        "config": {k: v for k, v in cfg.items() if k != "outdir"},
    }
    if notes:
        manifest["notes"] = notes
    return manifest


# ---------------------------------------------------------------------------
# factorize


def _factorize_one(payload: tuple) -> tuple[int, str, list[dict], float]:
    """One sweep point; top-level so a process pool can pickle it."""
    hamiltonian, m, factors, method, config = payload
    start = time.perf_counter()
    if method == "exact":
        thc = exact_factorize(hamiltonian, m=m, seed=config.seed)
        rows = []
    else:
        thc, rows = factorize_hamiltonian(hamiltonian, m, config, factors)
    wall = time.perf_counter() - start
    return m, thc.to_json(), rows, wall


def cmd_factorize(cfg: dict) -> CommandOutput:
    """Factorize an FCIDUMP at one or more THC ranks; emit factors and metrics."""
    _require(cfg, "fcidump", "m")
    m_values = _unique(cfg["m"], "m", int)
    config = RefineConfig(**{f.name: cfg[f.name] for f in fields(RefineConfig)})
    if cfg["jobs"] < 1:
        raise ValueError(f"jobs = {cfg['jobs']} must be at least 1")
    hamiltonian = _load_hamiltonian(cfg["fcidump"])
    rotated, _ = rotate_to_h_eigenbasis(hamiltonian)
    if cfg["factor_file"] is not None and len(m_values) > 1:
        raise ValueError("an external factor file fixes m; drop the sweep")
    factors = None
    if cfg["factor_file"] is not None:
        factors = _load_factor_file(cfg["factor_file"])

    payloads = [(rotated, m, factors, cfg["method"], config) for m in m_values]
    if cfg["jobs"] > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=cfg["jobs"]) as pool:
            results = list(pool.map(_factorize_one, payloads))
    else:
        results = [_factorize_one(p) for p in payloads]

    metrics: list[list] = []
    restart_rows: list[list] = []
    artifacts: dict[str, str] = {}
    for m, thc_json, rows, wall in results:
        thc = ThcFactorization.from_json(thc_json)
        l1_core = float(np.abs(thc.vtilde).sum())
        metrics.append([m, f"{thc.eps_v:.12e}", f"{thc.eps_h:.12e}",
                        f"{l1_core:.12e}", f"{wall:.3f}"])
        for row in rows:
            restart_rows.append([m, row["restart"], row["seed"],
                                 f"{row['eps_v']:.12e}", f"{row['l1_vtilde']:.12e}"])
        artifacts[f"thc_m{m}.json"] = thc_json

    report = csv_text(["m", "eps_v", "eps_h", "l1_vtilde", "wall_time"], metrics)
    artifacts["metrics.csv"] = report
    if restart_rows:
        artifacts["restarts.csv"] = csv_text(
            ["m", "restart", "seed", "eps_v", "l1_vtilde"], restart_rows
        )
    manifest = _manifest("factorize", cfg, ("fcidump", "factor_file"),
                         basis="one-body eigenbasis of the input integrals")
    isometrize_health = [{"m": m, **row["isometrize"]} for m, _, rows, _ in results
                         for row in rows if "isometrize" in row]
    if isometrize_health:
        manifest["health"] = {"isometrize": isometrize_health}
    return CommandOutput(report, artifacts, manifest)


# ---------------------------------------------------------------------------
# simulate


def _initial_state(cfg: dict, rotated: ElectronicHamiltonian):
    spec = str(cfg["initial_state"])
    spinful = cfg["spinful"]
    if spec == "hartree_fock":
        if cfg["n_electrons"] is None:
            raise ValueError("n_electrons is required for the hartree_fock state")
        return hartree_fock_state(rotated, cfg["n_electrons"], spinful=spinful)
    if set(spec) <= {"0", "1"}:
        layout = ModeLayout(rotated.n_orbitals, 0, spinful=spinful)
        return basis_state(layout, spec)
    raise ValueError(
        f"initial_state must be 'hartree_fock' or a 0/1 occupation string, got {spec!r}"
    )


def cmd_simulate(cfg: dict) -> CommandOutput:
    """Evolve the initial state by Trotter steps over a tau grid and compare to exact evolution."""
    _require(cfg, "fcidump", "thc", "t", "tau")
    hamiltonian = _load_hamiltonian(cfg["fcidump"])
    rotated, _ = rotate_to_h_eigenbasis(hamiltonian)
    thc = _load_thc(cfg["thc"])
    if thc.n != rotated.n_orbitals:
        raise ValueError(
            f"factorization has n = {thc.n}, integrals have n = {rotated.n_orbitals}"
        )
    psi0 = _initial_state(cfg, rotated)
    taus = _unique(cfg["tau"], "tau", float)
    # every step is checked before the first one runs
    specs = [StepSpec(tau=tau, variant=variant, phases=cfg["phases"])
             for variant in dict.fromkeys(_as_list(cfg["variants"])) for tau in taus]

    rows: list[list] = []
    leakage: list[dict] = []
    for spec in specs:
        result = evolve(psi0, thc, rotated, cfg["t"], spec)
        rows.append([spec.variant, f"{spec.tau:.10g}", result.n_steps,
                     f"{result.error_vs_exact:.12e}"])
        leaked = result.leaked_weight if result.n_steps else np.zeros(1)
        leakage.append({"variant": spec.variant, "tau": spec.tau,
                        "max": float(leaked.max()), "mean": float(leaked.mean())})

    report = csv_text(["variant", "tau", "steps", "error"], rows)
    artifacts = {
        "error_scaling.csv": report,
        "givens_sequence.json": _givens_circuit(thc).to_json(),
    }
    manifest = _manifest(
        "simulate", cfg, ("fcidump", "thc"),
        basis="one-body eigenbasis of the input integrals",
        hartree_fock="n_electrons lowest one-body eigenmodes",
    )
    manifest["health"] = {"leaked_weight": leakage}
    return CommandOutput(report, artifacts, manifest)


# ---------------------------------------------------------------------------
# estimate


def cmd_estimate(cfg: dict) -> CommandOutput:
    """Render the per-step resource table, optionally against the baseline."""
    _require(cfg, "n", "m")
    if (cfg["motta_l"] is None) != (cfg["motta_xi"] is None):
        raise ValueError("give both motta_l and motta_xi, or neither")
    step = estimate_step(
        cfg["n"], cfg["m"],
        spinful=cfg["spinful"],
        architecture=cfg["architecture"],
        eps_rot=cfg["eps_rot"],
    )
    motta = None
    if cfg["motta_l"] is not None:
        motta = motta_estimate(
            MottaParams(n=cfg["n"], l=cfg["motta_l"], xi=cfg["motta_xi"]),
            eps_rot=cfg["eps_rot"],
        )
    report = render_comparison(step, motta) + "\n"
    payload: dict = {"this_work": step.to_json()}
    if motta is not None:
        payload["baseline"] = motta.to_json()
        payload["ratios"] = {
            key: getattr(motta, key) / getattr(step, key)
            for key in ("qubits", "circuit_depth", "single_qubit_rotations")
        }
    artifacts = {
        "estimate.txt": report,
        "estimate.json": json.dumps(payload, indent=2) + "\n",
    }
    return CommandOutput(report, artifacts, _manifest("estimate", cfg, ()))


# ---------------------------------------------------------------------------
# fit


def _read_series(path: str | Path, x_column: str | None, y_column: str | None):
    text = _read_text(path)
    rows = [row for row in csv.reader(text.splitlines()) if row]
    if len(rows) < 2:
        raise InputError(f"{path}: need a header row and at least one data row")
    header = [name.strip() for name in rows[0]]

    def column(name: str | None, default: int) -> int:
        if name is None:
            if default >= len(header):
                raise InputError(f"{path}: need at least {default + 1} columns")
            return default
        if name not in header:
            raise InputError(f"{path}: no column named {name!r} in {header}")
        return header.index(name)

    ix, iy = column(x_column, 0), column(y_column, 1)
    try:
        x = [float(row[ix]) for row in rows[1:]]
        y = [float(row[iy]) for row in rows[1:]]
    except (ValueError, IndexError) as exc:
        raise InputError(f"{path}: non-numeric or missing cell ({exc})") from exc
    return x, y


def cmd_fit(cfg: dict) -> CommandOutput:
    """Fit a power law to a CSV series on log-log axes."""
    _require(cfg, "csv")
    x, y = _read_series(cfg["csv"], cfg["x_column"], cfg["y_column"])
    fit = fit_loglog(x, y, cfg["k_last"])
    report = json.dumps(fit.to_json(), indent=2) + "\n"
    return CommandOutput(report, {"fit.json": report}, _manifest("fit", cfg, ("csv",)))


# ---------------------------------------------------------------------------
# config plumbing


_REFINE = RefineConfig()


def _option(key: str, default=None, **flag) -> tuple[str, object, dict]:
    """One option: its config key, its default and its flag's keywords."""
    return key, default, flag


_FACTORIZE_OPTIONS = (
    _option("fcidump", help="FCIDUMP integrals file"),
    _option("m", nargs="+", type=int, help="THC rank, or a sweep of ranks"),
    _option("method", "refine", choices=("refine", "exact")),
    _option("restarts", _REFINE.restarts, type=int),
    _option("factor_file", help="external THC factors to isometrize (JSON or matrix text)"),
    _option("delta", _REFINE.delta, type=float, help="row-weight lower bound"),
    _option("rounds_phase1", _REFINE.rounds_phase1, type=int),
    _option("rounds_phase2", _REFINE.rounds_phase2, type=int),
    _option("lr_phase1", _REFINE.lr_phase1, type=float),
    _option("lr_phase2", _REFINE.lr_phase2, type=float),
    _option("target_eps_v", _REFINE.target_eps_v, type=float),
    _option("jobs", 1, type=int, help="worker processes for sweeps"),
    _option("seed", _REFINE.seed, type=int),
)
_SIMULATE_OPTIONS = (
    _option("fcidump"),
    _option("thc", help="factorization JSON from the factorize command"),
    _option("t", type=float, help="total evolution time"),
    _option("tau", nargs="+", type=float, help="time-step grid"),
    _option("variants", ("basic", "improved"), nargs="+", choices=("basic", "improved")),
    _option("initial_state", "hartree_fock", help="'hartree_fock' or a 0/1 occupation string"),
    _option("n_electrons", type=int),
    _option("spinful", False, action=argparse.BooleanOptionalAction),
    _option("phases", DEFAULT_PHASES, nargs=3, type=float,
            help="improved-variant counting phases"),
)
_ESTIMATE_OPTIONS = (
    _option("n", type=int, help="orbital count"),
    _option("m", type=int, help="THC rank"),
    _option("spinful", True, action=argparse.BooleanOptionalAction),
    _option("architecture", "all-to-all", choices=("all-to-all", "linear")),
    _option("motta_l", type=int, help="baseline first-factorization rank"),
    _option("motta_xi", type=int, help="baseline average second rank"),
    _option("eps_rot", type=float, help="rotation synthesis precision for T counts"),
)
_FIT_OPTIONS = (
    _option("csv", help="input series with a header row"),
    _option("x_column"),
    _option("y_column"),
    _option("k_last", type=int, help="fit only the last k points sorted by x"),
)
# every subcommand ends with these two; --config names the document, no setting
_CONFIG = _option("config", help="JSON config document; flags override it")
_OUTDIR = _option("outdir", help="directory for artifacts and the manifest")

_SUBCOMMANDS = {
    "factorize": ("fit isometric THC factors to an FCIDUMP", _FACTORIZE_OPTIONS),
    "simulate": ("run Trotter steps against exact evolution", _SIMULATE_OPTIONS),
    "estimate": ("closed-form resource counts for one step", _ESTIMATE_OPTIONS),
    "fit": ("power-law fit of a CSV series", _FIT_OPTIONS),
}
_DEFAULTS = {
    command: {key: default for key, default, _ in (*options, _OUTDIR)}
    for command, (_, options) in _SUBCOMMANDS.items()
}
FACTORIZE_DEFAULTS, SIMULATE_DEFAULTS, ESTIMATE_DEFAULTS, FIT_DEFAULTS = _DEFAULTS.values()
_HANDLERS = {
    "factorize": cmd_factorize,
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "fit": cmd_fit,
}


def _require(cfg: dict, *keys: str) -> None:
    missing = [key for key in keys if cfg.get(key) is None]
    if missing:
        raise ValueError(f"missing required parameter(s): {', '.join(missing)}")


def _as_list(value) -> list:
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def _unique(value, name: str, kind: type) -> list:
    values = [kind(v) for v in _as_list(value)]
    unique = list(dict.fromkeys(values))
    if len(unique) < len(values):
        warnings.warn(f"duplicate {name} values removed", stacklevel=2)
    return unique


def _document_value(key: str, value, flag: dict):
    """A config document's value, converted as its flag converts its text."""
    convert = flag.get("type")
    if convert is None:
        return value
    try:
        # through the text, as on the command line: 1.5 is no int, true no number
        if "nargs" in flag:
            return [convert(str(item)) for item in _as_list(value)]
        return convert(str(value))
    except ValueError:
        raise ValueError(f"config key {key}: invalid {convert.__name__} value {value!r}") from None


def merged_config(command: str, args: argparse.Namespace) -> dict:
    """Layer defaults, then the JSON config document (null keeps a default), then flags."""
    defaults = _DEFAULTS[command]
    cfg = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            document = json.loads(_read_text(config_path))
        except json.JSONDecodeError as exc:
            raise InputError(f"{config_path}: {exc}") from exc
        if not isinstance(document, dict):
            raise InputError(f"{config_path}: config must be a JSON object")
        unknown = sorted(set(document) - set(defaults))
        if unknown:
            raise ValueError(
                f"unknown config key(s) for {command}: {', '.join(unknown)}"
            )
        flags = {key: flag for key, _, flag in (*_SUBCOMMANDS[command][1], _OUTDIR)}
        cfg.update((key, _document_value(key, value, flags[key]))
                   for key, value in document.items() if value is not None)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isothc",
        description="Isometric THC factorization, step simulation, and resource estimates.",
    )
    parser.add_argument("--version", action="version", version=f"isothc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for key, _, flag in (*options, _CONFIG, _OUTDIR):
            p.add_argument("--" + key.replace("_", "-"), **flag)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = merged_config(args.command, args)
        output = _HANDLERS[args.command](cfg)
        if cfg.get("outdir"):
            outdir = Path(cfg["outdir"])
            outdir.mkdir(parents=True, exist_ok=True)
            files = dict(output.artifacts)
            files["manifest.json"] = json.dumps(output.manifest, indent=2) + "\n"
            for name, text in files.items():
                path = outdir / name
                atomic_write_text(path, text)
                print(f"wrote {path}")
        else:
            sys.stdout.write(output.report)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
