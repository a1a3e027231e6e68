"""Command-line behavior: configs, artifacts, exit codes, and the fit utility."""

import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from isothc import cli, hamiltonian
from isothc.algorithm import (
    DEFAULT_PHASES,
    _sectors,
    _step_bytes,
    _StepEngine,
    hartree_fock_state,
)
from isothc.cli import (
    ESTIMATE_DEFAULTS,
    FIT_DEFAULTS,
    SIMULATE_DEFAULTS,
    FitResult,
    atomic_write_text,
    cmd_simulate,
    csv_text,
    fit_loglog,
    main,
)
from isothc.focksim import ModeLayout, basis_state
from isothc.hamiltonian import (
    OPERATOR_SCRATCH_BYTES,
    ElectronicHamiltonian,
    _sector_offsets,
    operator_memory_bytes,
    write_fcidump,
)
from isothc.thc import ThcFactorization, projected_interaction, random_co_isometry


@pytest.fixture()
def toy_fcidump(tmp_path):
    ham = oracles.random_hamiltonian(2, np.random.default_rng(5), scale=0.5)
    path = tmp_path / "toy.fcidump"
    write_fcidump(ham, path)
    return path


def run_factorize(tmp_path, toy_fcidump, *extra):
    outdir = tmp_path / "fac"
    code = main([
        "factorize", "--fcidump", str(toy_fcidump), "--outdir", str(outdir),
        "--restarts", "2", "--rounds-phase1", "40", "--rounds-phase2", "20",
        *extra,
    ])
    return code, outdir


# ---------------------------------------------------------------------------
# log-log fitting


def test_fit_exact_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_loglog(x, 3.0 * x**2)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.points_used == 5
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_invariant_under_y_scaling():
    rng = np.random.default_rng(3)
    x = np.linspace(1.0, 9.0, 8)
    y = x**1.7 * np.exp(rng.normal(scale=0.05, size=8))
    base = fit_loglog(x, y, k_last=5)
    scaled = fit_loglog(x, 40.0 * y, k_last=5)
    assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
    assert scaled.intercept == pytest.approx(base.intercept + math.log(40.0), abs=1e-10)


def test_fit_k_last_takes_tail_after_sorting():
    # unsorted input; the tail by x is {4, 8}, which lies on slope 3
    x = [8.0, 1.0, 4.0]
    y = [8.0**3, 99.0, 4.0**3]
    fit = fit_loglog(x, y, k_last=2)
    assert fit.slope == pytest.approx(3.0, abs=1e-12)
    assert fit.points_used == 2


def test_fit_domain_errors():
    with pytest.raises(ValueError, match="positive"):
        fit_loglog([1.0, 2.0], [1.0, -2.0])
    with pytest.raises(ValueError, match="k_last"):
        fit_loglog([1.0, 2.0], [1.0, 2.0], k_last=3)
    with pytest.raises(ValueError, match="k_last"):
        fit_loglog([1.0, 2.0], [1.0, 2.0], k_last=1)
    with pytest.raises(ValueError, match="at least 2"):
        FitResult(slope=1.0, intercept=0.0, points_used=1, r_squared=1.0)


# ---------------------------------------------------------------------------
# file plumbing


def test_csv_text_is_rfc4180():
    text = csv_text(["a", "b"], [[1, "x,y"], [2, 'q"o']])
    assert text == 'a,b\r\n1,"x,y"\r\n2,"q""o"\r\n'


def test_atomic_write_leaves_no_temporaries(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_text(target, "{}\n")
    atomic_write_text(target, '{"v": 1}\n')
    assert target.read_text() == '{"v": 1}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


# ---------------------------------------------------------------------------
# factorize command


def test_factorize_writes_artifacts_and_manifest(tmp_path, toy_fcidump):
    code, outdir = run_factorize(tmp_path, toy_fcidump, "--m", "3", "--seed", "1")
    assert code == 0
    thc = ThcFactorization.from_json((outdir / "thc_m3.json").read_text())
    assert thc.n == 2 and thc.m == 3
    lines = (outdir / "metrics.csv").read_text().splitlines()
    assert lines[0] == "m,eps_v,eps_h,l1_vtilde,wall_time"
    assert len(lines) == 2
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["command"] == "factorize"
    assert manifest["seed"] == 1
    assert manifest["version"]
    assert manifest["inputs"]["fcidump"].endswith("toy.fcidump")


def test_factorize_manifest_records_isometrization_of_factor_file(tmp_path, toy_fcidump):
    code, outdir = run_factorize(tmp_path, toy_fcidump, "--m", "3")
    assert code == 0
    assert "health" not in json.loads((outdir / "manifest.json").read_text())

    factors = tmp_path / "factors.json"
    x = np.random.default_rng(8).normal(size=(2, 3))
    factors.write_text(json.dumps({"n": 2, "m": 3, "x": x.reshape(-1).tolist()}))
    outdir = tmp_path / "fac-file"
    assert main(["factorize", "--fcidump", str(toy_fcidump), "--m", "3",
                 "--factor-file", str(factors), "--rounds-phase1", "10",
                 "--rounds-phase2", "10", "--outdir", str(outdir)]) == 0
    health = json.loads((outdir / "manifest.json").read_text())["health"]
    [entry] = health["isometrize"]
    assert entry["m"] == 3
    assert isinstance(entry["converged"], bool)
    assert isinstance(entry["n_iter"], int) and entry["n_iter"] >= 0
    assert entry["residual_norm"] >= 0.0
    lines = (outdir / "restarts.csv").read_text().splitlines()
    assert lines[0] == "m,restart,seed,eps_v,l1_vtilde"


def test_factorize_exact_method_hits_floor(tmp_path, toy_fcidump):
    code, outdir = run_factorize(tmp_path, toy_fcidump, "--m", "4", "--method", "exact")
    assert code == 0
    row = (outdir / "metrics.csv").read_text().splitlines()[1].split(",")
    assert float(row[1]) <= 1e-10


def test_factorize_sweep_one_row_per_m(tmp_path, toy_fcidump):
    code, outdir = run_factorize(tmp_path, toy_fcidump, "--m", "2", "3")
    assert code == 0
    lines = (outdir / "metrics.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "3"]
    assert (outdir / "thc_m2.json").exists()
    assert (outdir / "thc_m3.json").exists()


def test_factorize_worker_pool_matches_serial(tmp_path, toy_fcidump):
    _, serial = run_factorize(tmp_path / "a", toy_fcidump, "--m", "2", "3")
    _, pooled = run_factorize(tmp_path / "b", toy_fcidump, "--m", "2", "3",
                              "--jobs", "2")
    strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
    # identical up to the wall-time column
    assert strip((serial / "metrics.csv").read_text()) == strip(
        (pooled / "metrics.csv").read_text()
    )
    assert (serial / "thc_m3.json").read_text() == (pooled / "thc_m3.json").read_text()


def test_factorize_workers_get_the_integrals_simulate_evolves(tmp_path, toy_fcidump,
                                                             monkeypatch):
    # a pool worker unpickles its payload: the Hamiltonian comes back through
    # its constructor, checked and read-only, and bit for bit the tensors that
    # simulate evolves under
    received, evolved = [], []
    factorize_one, evolve = cli._factorize_one, cli.evolve

    def unpickled_payload(payload):
        received.append(pickle.loads(pickle.dumps(payload))[0])
        return factorize_one(payload)

    def recorded_hamiltonian(psi0, thc, hamiltonian, *args, **kwargs):
        evolved.append(hamiltonian)
        return evolve(psi0, thc, hamiltonian, *args, **kwargs)

    monkeypatch.setattr(cli, "_factorize_one", unpickled_payload)
    monkeypatch.setattr(cli, "evolve", recorded_hamiltonian)
    code, outdir = run_factorize(tmp_path, toy_fcidump, "--m", "3")
    assert code == 0
    assert main(["simulate", "--fcidump", str(toy_fcidump),
                 "--thc", str(outdir / "thc_m3.json"), "--n-electrons", "1",
                 "--t", "0.05", "--tau", "0.05", "--variants", "basic"]) == 0
    (worker,), (simulated,) = received, evolved
    assert isinstance(worker, ElectronicHamiltonian)
    assert not worker.h.flags.writeable and not worker.eri.flags.writeable
    assert np.array_equal(worker.h, simulated.h)
    assert np.array_equal(worker.eri, simulated.eri)


def test_factorize_report_to_stdout_without_outdir(toy_fcidump, capsys):
    code = main([
        "factorize", "--fcidump", str(toy_fcidump), "--m", "4",
        "--method", "exact",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("m,eps_v,eps_h,l1_vtilde,wall_time")


def test_config_document_merges_and_flags_win(tmp_path, toy_fcidump):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "fcidump": str(toy_fcidump), "m": 2, "method": "exact",
        "outdir": str(tmp_path / "fac"),
    }))
    assert main(["factorize", "--config", str(config), "--m", "3"]) == 0
    assert (tmp_path / "fac" / "thc_m3.json").exists()
    assert not (tmp_path / "fac" / "thc_m2.json").exists()


def test_unknown_config_key_is_a_domain_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"fcidmp": "x"}))
    assert main(["factorize", "--config", str(config)]) == 1
    assert "unknown config key" in capsys.readouterr().err


def write_config(tmp_path, document) -> str:
    config = tmp_path / "run.json"
    config.write_text(json.dumps(document))
    return str(config)


def test_config_document_count_as_text_is_converted(tmp_path, toy_fcidump):
    config = write_config(tmp_path, {"restarts": "2", "rounds_phase1": 5, "rounds_phase2": 5})
    outdir = tmp_path / "fac"
    assert main(["factorize", "--fcidump", str(toy_fcidump), "--m", "3",
                 "--config", config, "--outdir", str(outdir)]) == 0
    assert len((outdir / "restarts.csv").read_text().splitlines()) == 1 + 2
    assert json.loads((outdir / "manifest.json").read_text())["config"]["restarts"] == 2


def test_config_document_fractional_count_is_a_domain_error(tmp_path, toy_fcidump, capsys):
    config = write_config(tmp_path, {"rounds_phase1": 1.0})
    assert main(["factorize", "--fcidump", str(toy_fcidump), "--m", "3",
                 "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key rounds_phase1: invalid int value 1.0")
    assert "Traceback" not in err


def test_missing_input_file_exits_two(tmp_path, capsys):
    assert main(["factorize", "--fcidump", str(tmp_path / "nope"), "--m", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_fcidump_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.fcidump"
    bad.write_text("not an integrals file\n")
    assert main(["factorize", "--fcidump", str(bad), "--m", "2"]) == 2
    assert "bad.fcidump" in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [
    ("no_x.json", json.dumps({"n": 2, "m": 3})),
    ("short_x.json", json.dumps({"n": 2, "m": 3, "x": [0.1, 0.2, 0.3]})),
    ("words.txt", "a b c\nd e f\n"),
    ("null_n.json", json.dumps({"n": None, "m": 3, "x": [0.1] * 6})),
], ids=["no-x", "short-x", "words", "null-n"])
def test_malformed_factor_file_exits_two_without_traceback(
    tmp_path, toy_fcidump, capsys, name, text
):
    factors = tmp_path / name
    factors.write_text(text)
    assert main(["factorize", "--fcidump", str(toy_fcidump), "--m", "3",
                 "--factor-file", str(factors)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, text", [
    ("list.json", json.dumps([1, 2])),
    ("null_n.json", json.dumps({"n": None, "m": 2, "u": [1.0, 0.0, 0.0, 1.0],
                                "vtilde": [1.0, 0.0, 0.0, 1.0]})),
], ids=["list", "null-n"])
def test_malformed_thc_file_exits_two_without_traceback(
    tmp_path, toy_fcidump, capsys, name, text
):
    thc_path = tmp_path / name
    thc_path.write_text(text)
    assert main(["simulate", "--fcidump", str(toy_fcidump), "--thc", str(thc_path),
                 "--t", "0.05", "--tau", "0.05", "--initial-state", "11"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err
    assert "Traceback" not in err


def test_package_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, isothc.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_simulate_loads_no_numpy_ma(tmp_path):
    # numpy 2.4's np.unique imports numpy.ma (about 13 ms) on first use
    root = Path(__file__).resolve().parents[1]
    fcidump = root / "src" / "isothc" / "data" / "h2_sto6g.fcidump"
    assert main(["factorize", "--fcidump", str(fcidump), "--m", "3", "--method", "exact",
                 "--outdir", str(tmp_path / "fac")]) == 0
    argv = ["simulate", "--fcidump", str(fcidump), "--thc", str(tmp_path / "fac" / "thc_m3.json"),
            "--t", "0.2", "--tau", "0.1", "--spinful", "--n-electrons", "2",
            "--outdir", str(tmp_path / "sim")]
    probe = ("import sys, isothc.cli; code = isothc.cli.main(sys.argv[1:]); "
             "print(code, 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "0 False"


def test_factorize_zero_restarts_exits_one_without_traceback(toy_fcidump, capsys):
    assert main(["factorize", "--fcidump", str(toy_fcidump), "--m", "3",
                 "--restarts", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n_restarts = 0 must be at least 1")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value, message", [
    ("--rounds-phase1", "-5", "error: rounds -5, 1000 must be >= 0"),
    ("--lr-phase1", "-1", "error: learning rates -1.0, 0.0005 must be > 0"),
    ("--delta", "-1", "error: delta = -1.0 must be nonnegative"),
    ("--target-eps-v", "-1", "error: target_eps_v = -1.0 must be nonnegative"),
    ("--jobs", "0", "error: jobs = 0 must be at least 1"),
], ids=["rounds", "lr", "delta", "target", "jobs"])
def test_factorize_out_of_range_setting_exits_one(toy_fcidump, capsys, flag, value, message):
    assert main(["factorize", "--fcidump", str(toy_fcidump), "--m", "3", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err


def test_missing_required_parameter_exits_one(toy_fcidump, capsys):
    assert main(["factorize", "--fcidump", str(toy_fcidump)]) == 1
    assert "missing required" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate command


@pytest.fixture()
def factorized(tmp_path, toy_fcidump):
    code, outdir = run_factorize(tmp_path, toy_fcidump, "--m", "4",
                                 "--method", "exact")
    assert code == 0
    return toy_fcidump, outdir / "thc_m4.json"


def test_simulate_writes_scaling_csv_and_sequence(tmp_path, factorized):
    fcidump, thc_path = factorized
    outdir = tmp_path / "sim"
    code = main([
        "simulate", "--fcidump", str(fcidump), "--thc", str(thc_path),
        "--t", "0.05", "--tau", "0.05", "0.025", "--variants", "basic",
        "--initial-state", "11", "--outdir", str(outdir),
    ])
    assert code == 0
    lines = (outdir / "error_scaling.csv").read_text().splitlines()
    assert lines[0] == "variant,tau,steps,error"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["basic", "0.05", "1"], ["basic", "0.025", "2"]]
    sequence = oracles.givens_sequence_from_json(
        (outdir / "givens_sequence.json").read_text())
    thc = ThcFactorization.from_json(thc_path.read_text())
    np.testing.assert_allclose(
        oracles.single_particle_matrix(sequence)[:, : thc.n], thc.u.T.astype(complex),
        atol=1e-10,
    )


def test_simulate_zero_time_gives_zero_errors(factorized, capsys):
    fcidump, thc_path = factorized
    code = main([
        "simulate", "--fcidump", str(fcidump), "--thc", str(thc_path),
        "--t", "0", "--tau", "0.1", "--initial-state", "11",
    ])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["0.000000000000e+00"] * 2


def test_simulate_negative_time_exits_one_without_traceback(factorized, capsys):
    fcidump, thc_path = factorized
    code = main([
        "simulate", "--fcidump", str(fcidump), "--thc", str(thc_path),
        "--t", "-1", "--tau", "0.1", "--initial-state", "11",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: evolution time t = -1 must be nonnegative")
    assert "Traceback" not in err


def test_simulate_config_document_time_as_text_is_converted(tmp_path, factorized, capsys):
    fcidump, thc_path = factorized
    code = main([
        "simulate", "--fcidump", str(fcidump), "--thc", str(thc_path),
        "--config", write_config(tmp_path, {"t": "1"}), "--tau", "0.5",
        "--variants", "basic", "--initial-state", "11",
    ])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[:3] == ["basic", "0.5", "2"]


def test_simulate_checks_every_step_before_the_first_evolves(tmp_path, factorized, capsys,
                                                             monkeypatch):
    def no_evolve(*args, **kwargs):
        raise AssertionError("a step ran before every step was checked")

    monkeypatch.setattr(cli, "evolve", no_evolve)
    fcidump, thc_path = factorized
    code = main([
        "simulate", "--fcidump", str(fcidump), "--thc", str(thc_path),
        "--config", write_config(tmp_path, {"variants": ["basic", "bogus"]}),
        "--t", "0.05", "--tau", "0.05", "--initial-state", "11",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown variant 'bogus'")
    assert "Traceback" not in err


def test_simulate_null_phases_in_config_keep_the_default_phases(tmp_path, factorized):
    fcidump, thc_path = factorized
    outdir = tmp_path / "sim"
    code = main([
        "simulate", "--fcidump", str(fcidump), "--thc", str(thc_path),
        "--config", write_config(tmp_path, {"phases": None}),
        "--t", "0.05", "--tau", "0.05", "--initial-state", "11", "--outdir", str(outdir),
    ])
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"]["phases"] == list(DEFAULT_PHASES)


def test_simulate_duplicate_taus_warn_and_collapse(factorized):
    fcidump, thc_path = factorized
    cfg = {**SIMULATE_DEFAULTS, "fcidump": str(fcidump), "thc": str(thc_path),
           "t": 0.05, "tau": [0.05, 0.05], "variants": ["basic"],
           "initial_state": "11"}
    with pytest.warns(UserWarning, match="duplicate tau"):
        output = cmd_simulate(cfg)
    assert len(output.report.splitlines()) == 2


def refuse_to_compile(monkeypatch):
    def no_compile(*args, **kwargs):
        raise AssertionError("a refused simulate compiled or ran a step")

    monkeypatch.setattr(_StepEngine, "dense_unitary", no_compile)
    monkeypatch.setattr(_StepEngine, "step", no_compile)


def test_simulate_mode_cap_rejected_before_running(tmp_path, toy_fcidump, capsys,
                                                   monkeypatch):
    # 8 ranks x 2 spin sectors = 16 modes; the step's memory estimate is
    # compared with physical memory, patched here to just below it
    code, outdir = run_factorize(tmp_path, toy_fcidump, "--m", "8",
                                 "--method", "exact")
    assert code == 0
    capsys.readouterr()
    thc = ThcFactorization.from_json((outdir / "thc_m8.json").read_text())
    psi0 = basis_state(ModeLayout(2, 0, spinful=True), "1111")
    needed = _step_bytes(thc.n, thc.m, _sectors(psi0))
    monkeypatch.setattr(hamiltonian, "_physical_memory_bytes", lambda: needed - 1)
    refuse_to_compile(monkeypatch)
    code = main([
        "simulate", "--fcidump", str(toy_fcidump),
        "--thc", str(outdir / "thc_m8.json"),
        "--t", "1", "--tau", "0.1", "--initial-state", "1111", "--spinful",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "16 modes" in err and "physical memory" in err


def test_simulate_admits_twenty_modes_in_512_mib(tmp_path, monkeypatch):
    # n = 5, m = 10 spinful is a 20-mode register; the Hartree-Fock state's
    # (3, 2) sector has 100 system states and 5400 extended ones, so the step
    # fits where the full 2^20 rows once needed 6.5 GiB
    rng = np.random.default_rng(20)
    n, m = 5, 10
    vtilde = rng.normal(size=(m, m))
    thc = ThcFactorization(u=random_co_isometry(n, m, rng), vtilde=0.5 * (vtilde + vtilde.T))
    ham = ElectronicHamiltonian(n, 0.0, np.diag(np.arange(n, dtype=float)),
                                projected_interaction(thc.u, thc.vtilde))
    write_fcidump(ham, tmp_path / "n5.fcidump")
    (tmp_path / "thc.json").write_text(thc.to_json())
    argv = ["simulate", "--fcidump", str(tmp_path / "n5.fcidump"),
            "--thc", str(tmp_path / "thc.json"), "--spinful", "--n-electrons", "5",
            "--t", "0.1", "--tau", "0.05", "--variants", "basic",
            "--outdir", str(tmp_path / "sim")]

    # the exact reference is charged by its block, the 100 system states of
    # the (3, 2) sector, not by the 2^10 states of the 10 system modes
    psi0 = hartree_fock_state(ham, 5, spinful=True)
    reference = operator_memory_bytes(_sector_offsets(5, _sectors(psi0))[-1])
    assert reference == operator_memory_bytes(100) == 6 * 16 * 100**2 + OPERATOR_SCRATCH_BYTES
    assert reference < _step_bytes(thc.n, thc.m, _sectors(psi0))

    monkeypatch.setattr(hamiltonian, "_physical_memory_bytes", lambda: 512 * 2**20)
    assert main(argv) == 0
    rows = (tmp_path / "sim" / "error_scaling.csv").read_text().splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("basic,0.05,2,")
    assert math.isfinite(float(rows[0].split(",")[3]))


def test_simulate_two_electrons_in_eighteen_spinful_orbitals(tmp_path):
    # a 38-mode register (n = 18, m = 19 spinful) of few electrons: the
    # Hartree-Fock state and the step live on the (1, 1) sector alone
    rng = np.random.default_rng(36)
    n, m = 18, 19
    vtilde = rng.normal(size=(m, m))
    thc = ThcFactorization(u=random_co_isometry(n, m, rng), vtilde=0.5 * (vtilde + vtilde.T))
    ham = ElectronicHamiltonian(n, 0.0, np.diag(np.sort(rng.normal(size=n))),
                                projected_interaction(thc.u, thc.vtilde))
    write_fcidump(ham, tmp_path / "n18.fcidump")
    (tmp_path / "thc.json").write_text(thc.to_json())
    assert main(["simulate", "--fcidump", str(tmp_path / "n18.fcidump"),
                 "--thc", str(tmp_path / "thc.json"), "--spinful", "--n-electrons", "2",
                 "--t", "0.1", "--tau", "0.05", "--variants", "basic",
                 "--outdir", str(tmp_path / "sim")]) == 0
    rows = (tmp_path / "sim" / "error_scaling.csv").read_text().splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("basic,0.05,2,")
    assert math.isfinite(float(rows[0].split(",")[3]))


def test_simulate_refuses_a_reference_larger_than_memory(tmp_path, capsys, monkeypatch):
    # with no ancillas (m = n) the step compiles |S| columns over |S| rows, so
    # the dense reference on the (1, 1) sector's 9 states is the larger charge
    rng = np.random.default_rng(21)
    n = 3
    vtilde = rng.normal(size=(n, n))
    thc = ThcFactorization(u=random_co_isometry(n, n, rng), vtilde=0.5 * (vtilde + vtilde.T))
    ham = ElectronicHamiltonian(n, 0.0, np.diag(np.arange(n, dtype=float)),
                                projected_interaction(thc.u, thc.vtilde))
    write_fcidump(ham, tmp_path / "n3.fcidump")
    (tmp_path / "thc.json").write_text(thc.to_json())
    psi0 = hartree_fock_state(ham, 2, spinful=True)
    step = _step_bytes(thc.n, thc.m, _sectors(psi0))
    assert step < operator_memory_bytes(_sector_offsets(3, _sectors(psi0))[-1]) == (
        operator_memory_bytes(9))
    monkeypatch.setattr(hamiltonian, "_physical_memory_bytes", lambda: step)
    refuse_to_compile(monkeypatch)
    assert main(["simulate", "--fcidump", str(tmp_path / "n3.fcidump"),
                 "--thc", str(tmp_path / "thc.json"), "--spinful", "--n-electrons", "2",
                 "--t", "0.1", "--tau", "0.05"]) == 1
    err = capsys.readouterr().err
    assert "many-body operator on 6 modes" in err and "physical memory" in err


def test_simulate_trace_drift_exits_one_without_traceback(factorized, capsys,
                                                         monkeypatch):
    fcidump, thc_path = factorized
    step = _StepEngine.step

    def drifting_step(self, rho):
        out, leaked = step(self, rho)
        return 1.01 * out, leaked

    monkeypatch.setattr(_StepEngine, "step", drifting_step)
    code = main([
        "simulate", "--fcidump", str(fcidump), "--thc", str(thc_path),
        "--t", "0.05", "--tau", "0.05", "--initial-state", "11",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: evolution failed to preserve the trace")
    assert "Traceback" not in err


def test_simulate_manifest_records_leaked_weight(tmp_path, factorized):
    fcidump, thc_path = factorized
    outdir = tmp_path / "sim"
    code = main([
        "simulate", "--fcidump", str(fcidump), "--thc", str(thc_path),
        "--t", "0.1", "--tau", "0.05", "0.025", "--initial-state", "11",
        "--outdir", str(outdir),
    ])
    assert code == 0
    health = json.loads((outdir / "manifest.json").read_text())["health"]
    records = health["leaked_weight"]
    assert [(r["variant"], r["tau"]) for r in records] == [
        ("basic", 0.05), ("basic", 0.025), ("improved", 0.05), ("improved", 0.025)]
    for record in records:
        assert 0.0 <= record["mean"] <= record["max"] < 1.0
    # the improved step cancels the leading leakage amplitudes
    by_key = {(r["variant"], r["tau"]): r["max"] for r in records}
    assert by_key[("improved", 0.05)] < by_key[("basic", 0.05)]
    # the CSV keeps its columns
    header = (outdir / "error_scaling.csv").read_text().splitlines()[0]
    assert header == "variant,tau,steps,error"


def test_simulate_method_option_is_gone(factorized, capsys):
    fcidump, thc_path = factorized
    with pytest.raises(SystemExit):
        main(["simulate", "--fcidump", str(fcidump), "--thc", str(thc_path),
              "--t", "0.05", "--tau", "0.05", "--method", "fused"])
    assert "method" not in SIMULATE_DEFAULTS


def test_simulate_seed_option_is_gone(factorized, capsys):
    # only factorize draws random numbers
    fcidump, thc_path = factorized
    with pytest.raises(SystemExit):
        main(["simulate", "--fcidump", str(fcidump), "--thc", str(thc_path),
              "--t", "0.05", "--tau", "0.05", "--seed", "1"])
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    for defaults in (SIMULATE_DEFAULTS, ESTIMATE_DEFAULTS, FIT_DEFAULTS):
        assert "seed" not in defaults


def test_simulate_hartree_fock_requires_electron_count(factorized, capsys):
    fcidump, thc_path = factorized
    code = main([
        "simulate", "--fcidump", str(fcidump), "--thc", str(thc_path),
        "--t", "0.05", "--tau", "0.05",
    ])
    assert code == 1
    assert "n_electrons" in capsys.readouterr().err


def test_simulate_rejects_bad_initial_state(factorized, capsys):
    fcidump, thc_path = factorized
    code = main([
        "simulate", "--fcidump", str(fcidump), "--thc", str(thc_path),
        "--t", "0.05", "--tau", "0.05", "--initial-state", "12",
    ])
    assert code == 1
    assert "initial_state" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# estimate command


def test_estimate_prints_comparison_table(capsys):
    code = main(["estimate", "--n", "76", "--m", "450",
                 "--motta-l", "394", "--motta-xi", "51"])
    assert code == 0
    out = capsys.readouterr().out
    assert "655,496" in out and "6,108,576" in out and "Ratio" in out


def test_estimate_json_artifact_has_ratios(tmp_path):
    outdir = tmp_path / "est"
    code = main(["estimate", "--n", "76", "--m", "450", "--motta-l", "394",
                 "--motta-xi", "51", "--eps-rot", "1e-6",
                 "--outdir", str(outdir)])
    assert code == 0
    payload = json.loads((outdir / "estimate.json").read_text())
    assert payload["this_work"]["single_qubit_rotations"] == 655_496
    assert payload["this_work"]["t_gates"] == 32 * 655_496
    assert payload["ratios"]["circuit_depth"] == pytest.approx(46.22, abs=0.01)


def test_estimate_motta_params_come_in_pairs(capsys):
    assert main(["estimate", "--n", "4", "--m", "6", "--motta-l", "3"]) == 1
    assert "motta" in capsys.readouterr().err


def test_estimate_infeasible_rank_exits_one(capsys):
    code = main(["estimate", "--n", "4", "--m", "6",
                 "--motta-l", "3", "--motta-xi", "5"])
    assert code == 1
    assert "xi" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit command


@pytest.fixture()
def series_csv(tmp_path):
    path = tmp_path / "series.csv"
    x = np.array([1.0, 2.0, 4.0, 8.0])
    path.write_text("n,value\r\n" + "".join(
        f"{a:g},{2.0 * a**1.5:.12g}\r\n" for a in x))
    return path


def test_fit_command_reads_named_columns(series_csv, capsys):
    code = main(["fit", "--csv", str(series_csv), "--x-column", "n",
                 "--y-column", "value", "--k-last", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["slope"] == pytest.approx(1.5, abs=1e-10)
    assert payload["points_used"] == 3


def test_fit_command_defaults_to_first_two_columns(series_csv, capsys):
    assert main(["fit", "--csv", str(series_csv)]) == 0
    assert json.loads(capsys.readouterr().out)["points_used"] == 4


def test_fit_missing_column_exits_two(series_csv, capsys):
    assert main(["fit", "--csv", str(series_csv), "--y-column", "nope"]) == 2
    assert "nope" in capsys.readouterr().err


def test_fit_nonpositive_values_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\r\n1,1\r\n2,-4\r\n")
    assert main(["fit", "--csv", str(path)]) == 1
    assert "positive" in capsys.readouterr().err


def test_fit_writes_manifest_with_outdir(series_csv, tmp_path):
    outdir = tmp_path / "fit"
    assert main(["fit", "--csv", str(series_csv), "--outdir", str(outdir)]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["inputs"]["csv"].endswith("series.csv")
    assert json.loads((outdir / "fit.json").read_text())["points_used"] == 4
