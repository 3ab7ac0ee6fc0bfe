import csv
import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phi4vqe import cli, fock_space, qubit_encoding, vqe
from phi4vqe.cli import CONFIG_SCHEMAS, check_config, main


def run(tmp_path, command, cfg, extra=None, name="config.json"):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    argv = [command, "--config", str(cfg_path), "--out", str(out_dir)]
    if extra:
        argv += extra
    return main(argv), out_dir


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


MODEL = {"L": 2, "m_sq": 1.0, "delta_m": 0.0, "n_max": 4}


# ---------------------------------------------------------------- config plumbing

def test_missing_config_file(tmp_path, capsys):
    code = main(["spectrum", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "config" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["spectrum", "--config", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_top_level_must_be_object(tmp_path, capsys):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]")
    assert main(["spectrum", "--config", str(path)]) == 1


# ---------------------------------------------------------------- spectrum

def spectrum_cfg(**overrides):
    cfg = {
        "model": dict(MODEL),
        "lambda_grid": [0.0, 6.0],
        "n_max_values": [4],
        "eigenvalue_count": 4,
    }
    cfg.update(overrides)
    return cfg


def test_spectrum_happy_path(tmp_path):
    code, out = run(tmp_path, "spectrum", spectrum_cfg())
    assert code == 0
    header, rows = read_csv(out / "gaps.csv")
    assert header == ["lambda", "gap_nmax4 (lattice units)"]
    by_lambda = {float(r[0]): float(r[1]) for r in rows}
    assert by_lambda[0.0] == pytest.approx(1.0, abs=1e-10)

    header, rows = read_csv(out / "eigenvalues.csv")
    assert header == ["lambda", "n_max", "level", "energy (lattice units)"]
    assert len(rows) == 2 * 4

    record = json.loads((out / "record.json").read_text())
    assert record["schema"] == "phi4vqe/1"
    assert record["command"] == "spectrum"
    assert record["seed"] == 0
    assert record["degenerate_points"] == []


def test_spectrum_csv_cells_round_trip(tmp_path):
    code, out = run(tmp_path, "spectrum", spectrum_cfg(lambda_grid=[8.21]))
    assert code == 0
    record = json.loads((out / "record.json").read_text())
    _, rows = read_csv(out / "gaps.csv")
    assert float(rows[0][1]) == record["gaps"]["4"][0][1]


def test_spectrum_at_three_sites_matches_the_dense_oracle(tmp_path, dense_parts):
    cfg = spectrum_cfg(model={"L": 3, "m_sq": 1.0, "m0_sq": -1.5}, lambda_grid=[6.0],
                       n_max_values=[8])
    code, out = run(tmp_path, "spectrum", cfg)
    assert code == 0
    H0, A, B = dense_parts(3, 1.0, 8)
    levels = np.linalg.eigvalsh(H0 - 2.5 * A + 6.0 * B)
    _, rows = read_csv(out / "gaps.csv")
    assert abs(float(rows[0][1]) - (levels[1] - levels[0])) < 1e-10


def test_spectrum_rejects_double_mass_spec(tmp_path, capsys):
    bad = dict(MODEL, m0_sq=-1.5)
    code, _ = run(tmp_path, "spectrum", spectrum_cfg(model=bad))
    assert code == 1
    assert "model" in capsys.readouterr().err


def test_spectrum_rejects_missing_grid(tmp_path, capsys):
    cfg = spectrum_cfg()
    del cfg["lambda_grid"]
    code, _ = run(tmp_path, "spectrum", cfg)
    assert code == 1
    assert "lambda_grid" in capsys.readouterr().err


def test_spectrum_rejects_negative_coupling(tmp_path, capsys):
    code, _ = run(tmp_path, "spectrum", spectrum_cfg(lambda_grid=[-1.0]))
    assert code == 1
    assert "lambda_grid" in capsys.readouterr().err


def test_spectrum_rejects_bad_seed(tmp_path):
    code, _ = run(tmp_path, "spectrum", spectrum_cfg(seed=-1))
    assert code == 1


# ---------------------------------------------------------------- counterterm

def test_counterterm_firstorder_values(tmp_path):
    cfg = {
        "firstorder": {
            "m_sq_values": [1.0],
            "L_values": [2, "inf"],
            "lambda_grid": [0.0, 1.0],
        }
    }
    code, out = run(tmp_path, "counterterm", cfg)
    assert code == 0
    header, rows = read_csv(out / "firstorder.csv")
    assert header[0] == "lambda"
    assert "L=2" in header[1] and "L=inf" in header[2]
    table = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
    assert table[0.0] == (0.0, 0.0)
    finite, continuum = table[1.0]
    assert finite == pytest.approx(-(1.0 / 8.0) * (1.0 + 1.0 / math.sqrt(5.0)), abs=1e-12)
    assert continuum == pytest.approx(-math.log(64.0) / (8.0 * math.pi), abs=1e-12)


def test_counterterm_continuum_needs_light_mass(tmp_path, capsys):
    cfg = {
        "firstorder": {
            "m_sq_values": [65.0],
            "L_values": ["inf"],
            "lambda_grid": [1.0],
        }
    }
    code, _ = run(tmp_path, "counterterm", cfg)
    assert code == 1
    assert "m_sq" in capsys.readouterr().err


def test_counterterm_roots(tmp_path):
    cfg = {
        "roots": {
            "L": 2, "m_sq": 1.0, "n_max": 4, "target_m_sq": 1.0,
            "lambda_values": [6.0], "sweep_points": 7, "sweep_halfwidth": 1.0,
        }
    }
    code, out = run(tmp_path, "counterterm", cfg)
    assert code == 0
    _, rows = read_csv(out / "roots.csv")
    assert float(rows[0][1]) == pytest.approx(-1.05196962, abs=1e-6)
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-6)
    _, sweep_rows = read_csv(out / "sweep.csv")
    assert len(sweep_rows) == 7
    gaps = [float(r[2]) for r in sweep_rows]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_counterterm_bracket_failure_is_reported_not_fatal(tmp_path):
    cfg = {
        "roots": {
            "L": 2, "m_sq": 1.0, "n_max": 4, "target_m_sq": 10_000.0,
            "lambda_values": [0.0], "sweep_points": 5,
        }
    }
    code, out = run(tmp_path, "counterterm", cfg)
    assert code == 0
    _, rows = read_csv(out / "roots.csv")
    assert math.isnan(float(rows[0][1]))
    record = json.loads((out / "record.json").read_text())
    assert record["roots"][0]["failure"]
    assert record["roots"][0]["delta_m_root"] is None


def test_counterterm_requires_some_section(tmp_path, capsys):
    code, _ = run(tmp_path, "counterterm", {})
    assert code == 1


# ---------------------------------------------------------------- critical

def test_critical_curve_free_intercept(tmp_path):
    cfg = {
        "model": {"L": 2, "m_sq": 1.0, "n_max": 8},
        "curves": {"target_gap_sq_values": [1.5], "lambda_grid": [0.0]},
    }
    code, out = run(tmp_path, "critical", cfg)
    assert code == 0
    header, rows = read_csv(out / "curve.csv")
    assert header == ["lambda", "m0_sq[target_gap_sq=1.5] (lattice units)"]
    assert float(rows[0][1]) == pytest.approx(1.5, abs=1e-4)


def test_critical_curve_bracket_failure_is_recorded_not_fatal(tmp_path):
    cfg = {
        "model": {"L": 2, "m_sq": 1.0, "n_max": 4},
        "curves": {"target_gap_sq_values": [0.25, 10_000.0], "lambda_grid": [0.0, 2.5]},
    }
    code, out = run(tmp_path, "critical", cfg)
    assert code == 0
    _, rows = read_csv(out / "curve.csv")
    assert all(not math.isnan(float(r[1])) and math.isnan(float(r[2])) for r in rows)
    record = json.loads((out / "record.json").read_text())
    assert [len(points) for points in record["curves"].values()] == [2, 2]
    assert all(m0 is None for _, m0 in record["curves"]["10000.0"])
    failures = record["curve_failures"]
    assert [(f["target_gap_sq"], f["lambda"]) for f in failures] == [(10_000.0, 0.0),
                                                                   (10_000.0, 2.5)]
    assert all("no sign change" in f["failure"] for f in failures)


def test_critical_fit_benchmark_window(tmp_path):
    cfg = {
        "model": {"L": 2, "m_sq": 1.0, "n_max": 8},
        "fits": [{"m0_sq": -1.5, "lambda_grid": [3.5, 4.0, 4.5, 5.0, 5.5, 6.0]}],
        "fit_window": 6,
    }
    code, out = run(tmp_path, "critical", cfg)
    assert code == 0
    fits = json.loads((out / "fits.json").read_text())
    assert len(fits) == 1
    assert 0.7 <= fits[0]["nu"] <= 1.3
    assert fits[0]["lambda_c"] < 3.5
    assert len(fits[0]["slopes"]) == 5
    assert fits[0]["converged"] is True
    fields = {field.name for field in dataclasses.fields(fock_space.CriticalFit)}
    assert set(fits[0]) == fields | {"m0_sq", "lambda_grid", "gaps"}
    assert json.loads((out / "record.json").read_text())["fits"] == fits


def test_critical_fits_say_which_bound_set_the_answer(tmp_path):
    # at n_max 4 the least-squares minimum sits on lambda_c = 3.5 - 20
    fits = []
    for n_max in (4, 8):
        cfg = {
            "model": {"L": 2, "m_sq": 1.0, "n_max": n_max},
            "fits": [{"m0_sq": -1.5, "lambda_grid": [3.5, 4.0, 4.5, 5.0, 5.5, 6.0]}],
        }
        (tmp_path / str(n_max)).mkdir()
        code, out = run(tmp_path / str(n_max), "critical", cfg)
        assert code == 0
        fits += json.loads((out / "fits.json").read_text())
        assert json.loads((out / "record.json").read_text())["fits"] == fits[-1:]
    assert [fit["at_bound"] for fit in fits] == ["lambda_c", None]
    assert fits[0]["lambda_c"] == 3.5 - 20.0


def test_critical_flat_data_exits_two(tmp_path, capsys):
    # one mode with two levels: phi^2 and phi^4 are multiples of the identity,
    # so the gap is the same at every coupling
    cfg = {
        "model": {"L": 1, "m_sq": 1.0, "n_max": 2},
        "fits": [{"m0_sq": 1.0, "lambda_grid": [3.0, 4.0, 5.0, 6.0]}],
        "fit_window": 4,
    }
    code, _ = run(tmp_path, "critical", cfg)
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_critical_rejects_repeated_fit_coupling(tmp_path, capsys):
    cfg = {
        "model": {"L": 2, "m_sq": 1.0, "n_max": 8},
        "fits": [{"m0_sq": -1.5, "lambda_grid": [3.5, 4.0, 4.0, 4.5, 5.0, 5.5]}],
    }
    code, out = run(tmp_path, "critical", cfg)
    assert code == 1
    assert "fits[0].lambda_grid: a coupling repeats" in capsys.readouterr().err
    assert not out.exists()


def test_critical_rejects_short_fit_grid(tmp_path, capsys):
    cfg = {
        "model": {"L": 2, "m_sq": 1.0, "n_max": 4},
        "fits": [{"m0_sq": 1.0, "lambda_grid": [3.0, 4.0]}],
    }
    code, _ = run(tmp_path, "critical", cfg)
    assert code == 1


# ---------------------------------------------------------------- vqe

def vqe_cfg(**overrides):
    cfg = {
        "model": {"L": 2, "m_sq": 1.0, "m0_sq": -1.5, "n_max": 4},
        "lambda_grid": [6.0],
        "ansatz": ["entangled"],
        "backend": {"kind": "exact"},
    }
    cfg.update(overrides)
    return cfg


def test_vqe_exact_matches_oracle_columns(tmp_path):
    code, out = run(tmp_path, "vqe", vqe_cfg())
    assert code == 0
    header, rows = read_csv(out / "benchmark.csv")
    assert header[0] == "lambda"
    row = rows[0]
    gap, gap_exact = float(row[6]), float(row[10])
    assert gap == pytest.approx(gap_exact, abs=1e-6)
    assert row[11] == "pass"

    record = json.loads((out / "record.json").read_text())
    assert record["verdict"] == {
        "criterion": "within_tolerance", "points_passing": 1, "points_total": 1,
    }
    assert record["points"][0]["seed"] == [0, 0]


def test_vqe_seed_flag_overrides_config(tmp_path):
    code, out = run(tmp_path, "vqe", vqe_cfg(seed=5), extra=["--seed", "9"])
    assert code == 0
    record = json.loads((out / "record.json").read_text())
    assert record["seed"] == 9
    assert record["points"][0]["seed"] == [9, 0]


def test_vqe_rejects_unknown_backend(tmp_path, capsys):
    code, _ = run(tmp_path, "vqe", vqe_cfg(backend={"kind": "tensor"}))
    assert code == 1
    assert "backend" in capsys.readouterr().err


def test_vqe_rejects_unknown_ansatz_naming_every_table_entry(tmp_path, capsys):
    code, out = run(tmp_path, "vqe", vqe_cfg(ansatz=["entangled", "ladder"]))
    assert code == 1
    assert capsys.readouterr().err == "ansatz[1]: must be one of product, entangled\n"
    assert not out.exists()


def test_out_dir_that_cannot_be_created_is_a_config_error(tmp_path, capsys):
    (tmp_path / "out").write_text("a file in the way")
    code, out = run(tmp_path, "vqe", vqe_cfg())
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("out_dir: ") and "Traceback" not in err
    assert out.read_text() == "a file in the way"  # so no record.json was written in it


@pytest.mark.parametrize("blocked", ["benchmark.csv", "record.json"])
def test_an_output_file_that_cannot_be_written_is_reported(tmp_path, capsys, blocked):
    # a directory in the way of an output file used to end in an IsADirectoryError traceback
    (tmp_path / "out" / blocked).mkdir(parents=True)
    code, out = run(tmp_path, "vqe", vqe_cfg())
    assert code == 1
    assert capsys.readouterr().err == f"{out / blocked}: Is a directory\n"
    assert not (out / "record.json").is_file()


def test_vqe_rejects_wrong_truncation(tmp_path, capsys):
    cfg = vqe_cfg()
    cfg["model"]["n_max"] = 6
    code, _ = run(tmp_path, "vqe", cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert "n_max" in err


def test_vqe_rejects_noise_keys_on_exact_backend(tmp_path, capsys):
    code, _ = run(tmp_path, "vqe", vqe_cfg(backend={"kind": "exact", "readout": 0.03}))
    assert code == 1
    assert "backend" in capsys.readouterr().err


def test_vqe_rejects_partial_readout_tables(tmp_path, capsys):
    backend = {"kind": "noisy_mitigated", "readout_p10": [0.01, 0.02]}
    code, _ = run(tmp_path, "vqe", vqe_cfg(backend=backend))
    assert code == 1
    assert "readout" in capsys.readouterr().err


def test_uniform_readout_and_equal_per_qubit_tables_write_the_same_benchmark(tmp_path):
    # both spellings build one readout channel, so the draws and every cell agree
    common = {"kind": "noisy_mitigated", "shots": 256, "calibration_shots": 1000, "p_dep": 0.02}
    outputs = []
    for name, rates in (("uniform", {"readout": 0.03}),
                        ("tables", {"readout_p10": [0.03, 0.03], "readout_p01": [0.03, 0.03]})):
        code, out = run(tmp_path, "vqe", vqe_cfg(backend=dict(common, **rates)), name=f"{name}.json")
        assert code == 0
        outputs.append((out / "benchmark.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_vqe_sampled_backend_runs_and_records_shots(tmp_path):
    cfg = vqe_cfg(backend={"kind": "sampled", "shots": 1024}, ansatz="product",
                  lambda_grid=[2.0])
    code, out = run(tmp_path, "vqe", cfg)
    assert code == 0
    record = json.loads((out / "record.json").read_text())
    point = record["points"][0]
    assert point["shots"] == 1024
    assert record["verdict"]["criterion"] == "within_one_sigma"
    assert point["gap_err"] > 0.0


def test_vqe_noisy_point_builds_hamiltonian_once(tmp_path, monkeypatch):
    # optimizer, oracle and mitigation comparison share one build per point,
    # and only the two benchmark sectors are Pauli-encoded, once each
    builds, encodes = [], []
    build_H = vqe.build_H
    encode_matrix = qubit_encoding.encode_matrix
    monkeypatch.setattr(vqe, "build_H", lambda params: builds.append(params) or build_H(params))
    monkeypatch.setattr(qubit_encoding, "encode_matrix",
                        lambda M: encodes.append(M) or encode_matrix(M))
    vqe.benchmark_sectors.cache_clear()
    backend = {"kind": "noisy_mitigated", "shots": 256, "calibration_shots": 1000,
               "p_dep": 0.02, "readout": 0.03}
    code, out = run(tmp_path, "vqe", vqe_cfg(backend=backend))
    assert code == 0
    assert "mitigation" in json.loads((out / "record.json").read_text())["points"][0]
    assert len(builds) == 1
    assert len(encodes) == 2


def test_vqe_record_writes_json_booleans(tmp_path):
    backend = {"kind": "noisy_mitigated", "shots": 256, "calibration_shots": 1000,
               "readout_correction": False}
    code, out = run(tmp_path, "vqe", vqe_cfg(backend=backend))
    assert code == 0
    text = (out / "record.json").read_text()
    record = json.loads(text)
    assert record["config"]["backend"]["readout_correction"] is False
    assert isinstance(record["points"][0]["within_one_sigma"], bool)
    assert '"readout_correction": false' in text

    code, out = run(tmp_path, "vqe", vqe_cfg())
    assert code == 0
    assert json.loads((out / "record.json").read_text())["points"][0]["within_tolerance"] is True


def test_counterterm_root_that_does_not_converge_is_reported_not_fatal(tmp_path, monkeypatch):
    monkeypatch.setattr(fock_space, "_brentq", functools.partial(fock_space._brentq, maxiter=2))
    cfg = {"roots": {"L": 2, "m_sq": 1.0, "n_max": 4, "target_m_sq": 1.0,
                     "lambda_values": [6.0], "sweep_points": 3}}
    code, out = run(tmp_path, "counterterm", cfg)
    assert code == 0
    failure = json.loads((out / "record.json").read_text())["roots"][0]["failure"]
    assert failure.startswith("Brent's method did not converge in 2 iterations")


# ---------------------------------------------------------------- the outputs list

@pytest.mark.parametrize("command,cfg", [
    ("spectrum", spectrum_cfg()),
    ("counterterm", {
        "firstorder": {"m_sq_values": [1.0], "L_values": [2], "lambda_grid": [0.0]},
        "roots": {"L": 2, "m_sq": 1.0, "n_max": 4, "target_m_sq": 10_000.0,
                  "lambda_values": [0.0], "sweep_points": 3},
    }),
    ("critical", {
        "model": {"L": 2, "m_sq": 1.0, "n_max": 4},
        "curves": {"target_gap_sq_values": [10_000.0], "lambda_grid": [0.0]},
        "fits": [{"m0_sq": -1.5, "lambda_grid": [3.5, 4.0, 4.5, 5.0]}],
    }),
    ("vqe", vqe_cfg()),
], ids=["spectrum", "counterterm", "critical", "vqe"])
def test_record_lists_the_files_written_before_it_in_write_order(tmp_path, monkeypatch,
                                                                 command, cfg):
    # the counterterm root and the critical curve point fail their bracket
    written = []

    def recording_open(path, mode="r", **kwargs):
        if "w" in mode:
            written.append(Path(path).name)
        return open(path, mode, **kwargs)

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    code, out = run(tmp_path, command, cfg)
    assert code == 0
    record = json.loads((out / "record.json").read_text())
    assert written[-1] == "record.json"
    assert record["outputs"] == written[:-1]
    assert sorted(os.listdir(out)) == sorted(written)


# ---------------------------------------------------------------- validation, field by field

def counterterm_cfg():
    return {
        "firstorder": {"m_sq_values": [1.0], "L_values": [2, "inf"], "lambda_grid": [0.0]},
        "roots": {"L": 2, "m_sq": 1.0, "n_max": 4, "target_m_sq": 1.0, "lambda_values": [6.0]},
    }


def critical_cfg():
    return {
        "model": {"L": 2, "m_sq": 1.0, "n_max": 4},
        "curves": {"target_gap_sq_values": [1.5], "lambda_grid": [0.0]},
        "fits": [{"m0_sq": -1.5, "lambda_grid": [3.5, 4.0, 4.5, 5.0]}],
    }


NOISY = {"kind": "noisy_mitigated", "shots": 64}

CONFIGS = {"spectrum": spectrum_cfg, "counterterm": counterterm_cfg,
           "critical": critical_cfg, "vqe": vqe_cfg}

VQE_SIZE = ("model.n_max: the two-qubit ansatz needs 4-state (Z2, P) sectors (0, 0) and (1, 0), "
            "which only (L, n_max) = (1, 8) and (2, 4) give")

# (command, dotted path to set or delete, bad value, path every error line must start with)
BAD_FIELDS = [
    ("spectrum", "model", [], "model"),
    ("spectrum", "model.L", 0, "model.L"),
    ("spectrum", "model.m_sq", 0.0, "model.m_sq"),
    ("spectrum", "model.m_sq", 10**400, "model.m_sq"),  # too large for a float
    ("spectrum", "model.delta_m", "x", "model.delta_m"),
    ("spectrum", "model.n_max", 1, "model.n_max"),
    ("spectrum", "lambda_grid", [], "lambda_grid"),
    ("spectrum", "n_max_values", [], "n_max_values"),
    ("spectrum", "n_max_values", [4, 1], "n_max_values[1]"),
    ("spectrum", "eigenvalue_count", 0, "eigenvalue_count"),
    ("spectrum", "seed", -1, "seed"),
    ("spectrum", "seed", 1.5, "seed"),
    ("counterterm", "firstorder", 3, "firstorder"),
    ("counterterm", "firstorder.m_sq_values", [0.0], "firstorder.m_sq_values[0]"),
    ("counterterm", "firstorder.L_values", [2, 0], "firstorder.L_values[1]"),
    ("counterterm", "firstorder.lambda_grid", [-1.0], "firstorder.lambda_grid[0]"),
    ("counterterm", "roots", [], "roots"),
    ("counterterm", "roots.L", True, "roots.L"),
    ("counterterm", "roots.m_sq", -1.0, "roots.m_sq"),
    ("counterterm", "roots.n_max", 1, "roots.n_max"),
    ("counterterm", "roots.target_m_sq", 0.0, "roots.target_m_sq"),
    ("counterterm", "roots.lambda_values", [], "roots.lambda_values"),
    ("counterterm", "roots.sweep_points", 1, "roots.sweep_points"),
    ("counterterm", "roots.sweep_halfwidth", 0.0, "roots.sweep_halfwidth"),
    ("critical", "model.L", 0, "model.L"),
    ("critical", "model.m_sq", "1", "model.m_sq"),
    ("critical", "model.n_max", None, "model.n_max"),
    ("critical", "curves", [], "curves"),
    ("critical", "curves.target_gap_sq_values", [0.0], "curves.target_gap_sq_values[0]"),
    ("critical", "curves.target_gap_sq_values", [], "curves.target_gap_sq_values"),
    ("critical", "curves.lambda_grid", [-0.5], "curves.lambda_grid[0]"),
    ("critical", "fits", [], "fits"),
    ("critical", "fits", ["x"], "fits[0]"),
    ("critical", "fits.0.m0_sq", "x", "fits[0].m0_sq"),
    ("critical", "fits.0.lambda_grid", [3.0, 4.0], "fits[0].lambda_grid"),
    ("critical", "fit_window", 3, "fit_window"),
    ("vqe", "model.n_max", None, "model.n_max"),
    ("vqe", "model.n_max", 5, f"{VQE_SIZE}; got (2, 5)"),
    ("vqe", "model.n_max", 8, f"{VQE_SIZE}; got (2, 8)"),
    ("vqe", "model.L", 1, f"{VQE_SIZE}; got (1, 4)"),
    ("vqe", "lambda_grid", [float("nan")], "lambda_grid[0]"),
    ("vqe", "ansatz", [], "ansatz"),
    ("vqe", "ansatz", "ring", "ansatz[0]"),
    ("vqe", "backend", "exact", "backend"),
    ("vqe", "backend", {"kind": "sampled", "shots": 0}, "backend.shots"),
    ("vqe", "backend", dict(NOISY, calibration_shots=0), "backend.calibration_shots"),
    # above 2**63 - 1, the largest shot count a multinomial draw accepts
    ("vqe", "backend", {"kind": "sampled", "shots": 10**29}, "backend.shots"),
    ("vqe", "backend", dict(NOISY, calibration_shots=10**29), "backend.calibration_shots"),
    ("vqe", "backend", dict(NOISY, p_dep=1.0), "backend.p_dep"),
    ("vqe", "backend", dict(NOISY, readout=0.5), "backend.readout"),
    ("vqe", "backend", dict(NOISY, readout_p10=[0.1], readout_p01=[0.1, 0.1]), "backend.readout_p10"),
    ("vqe", "backend", dict(NOISY, readout_p10=[0.1, 1.0], readout_p01=[0.1, 0.1]),
     "backend.readout_p10"),
    ("vqe", "backend", dict(NOISY, readout=0.1, readout_p10=[0.1, 0.1], readout_p01=[0.1, 0.1]),
     "backend"),
    # rules the hand-written validation lacked: each of these used to pass validation
    ("vqe", "backend", dict(NOISY, readout_p10=[0.1, 0.6], readout_p01=[0.1, 0.5]),
     "backend: qubit 1"),
    ("vqe", "backend", dict(NOISY, readout_correction="no"), "backend.readout_correction"),
    ("vqe", "backend", dict(NOISY, purification=1), "backend.purification"),
    ("vqe", "backend", {"kind": "sampled", "shot": 64}, "backend.shot"),
    ("vqe", "backend", {"kind": "sampled", "readout": 0.03}, "backend.readout"),
    # keys the exact or sampled backend does not read
    ("vqe", "backend", {"kind": "exact", "shots": 64}, "backend.shots"),
    ("vqe", "backend", {"kind": "exact", "calibration_shots": 5}, "backend.calibration_shots"),
    ("vqe", "backend", {"kind": "exact", "readout_correction": True}, "backend.readout_correction"),
    ("vqe", "backend", {"kind": "exact", "purification": False}, "backend.purification"),
    ("vqe", "backend", {"kind": "sampled", "calibration_shots": 5}, "backend.calibration_shots"),
    ("vqe", "backend", {"kind": "sampled", "readout_correction": False},
     "backend.readout_correction"),
    ("vqe", "backend", {"kind": "sampled", "purification": False}, "backend.purification"),
    ("vqe", "threads", 2, "threads"),
    ("vqe", "model.mass", 1.0, "model.mass"),
    ("counterterm", "roots.sweep", 5, "roots.sweep"),
    ("critical", "fits.0.window", 6, "fits[0].window"),
    ("critical", "model.m0_sq", -1.5, "model.m0_sq"),
]


def test_check_config_reads_numpy_numbers_like_python_numbers():
    # a numpy integer used to fail every integer field while a numpy float passed as a number;
    # JSON configs hold neither, so CLI runs read the same
    cfg = vqe_cfg(seed=np.uint32(3), lambda_grid=[np.float64(6.0), np.int64(2)],
                  backend={"kind": "sampled", "shots": np.int64(2**63 - 1)})
    cfg["model"].update(L=np.int64(2), n_max=np.int32(4), m_sq=np.float32(1.0))
    assert check_config("vqe", cfg)[1] == []
    shots = "backend.shots: must be an integer in [1, 9223372036854775807]"
    for bad in (np.int64(0), np.float64(64.0), np.bool_(True), 2**63):
        cfg["backend"]["shots"] = bad
        assert check_config("vqe", cfg)[1] == [shots], bad


def _set_path(cfg, dotted, value):
    *parents, last = dotted.split(".")
    for key in parents:
        cfg = cfg[int(key)] if isinstance(cfg, list) else cfg[key]
    if value is None:
        del cfg[last]
    else:
        cfg[last] = value


@pytest.mark.parametrize("command,dotted,value,path", BAD_FIELDS,
                         ids=[f"{c}:{d}={v!r}" for c, d, v, _ in BAD_FIELDS])
def test_bad_field_is_a_config_error_naming_its_path(tmp_path, capsys, command, dotted, value, path):
    cfg = CONFIGS[command]()
    _set_path(cfg, dotted, value)
    code, _ = run(tmp_path, command, cfg)
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(line.startswith(path) for line in lines), lines


def test_threads_flag_is_gone(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(spectrum_cfg()))
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
              "--threads", "2"])
    assert exc.value.code == 2


def test_module_runs_as_a_script(tmp_path):
    # python -m phi4vqe.cli used to exit 0 without running the command
    cfg = vqe_cfg(model={"L": 1, "m_sq": 1.0, "m0_sq": -1.5, "n_max": 8})
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    src = str(Path(vqe.__file__).resolve().parents[1])

    def run_module(config):
        return subprocess.run([sys.executable, "-m", "phi4vqe.cli", "vqe", "--config", str(config),
                               "--out", str(tmp_path / "out")],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)

    done = run_module(tmp_path / "config.json")
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["benchmark.csv", "record.json"]
    missing = run_module(tmp_path / "nope.json")
    assert missing.returncode == 1
    assert missing.stderr.startswith("config: ")


# ---------------------------------------------------------------- cold start

COLD_START = """
import json, sys
import phi4vqe
import phi4vqe.cli as cli

for command in ("spectrum", "vqe", "counterterm", "critical"):
    path = sys.argv[1] + "/" + command + ".json"
    assert cli.main([command, "--config", path, "--out", path + ".out"]) == 0, command
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_no_command_loads_scipy(tmp_path):
    # every command runs on numpy alone: the root solver and the critical fit too
    roots = {"roots": {"L": 2, "m_sq": 1.0, "n_max": 4, "target_m_sq": 1.0,
                       "lambda_values": [6.0], "sweep_points": 3}}
    for command, cfg in (("spectrum", spectrum_cfg()), ("vqe", vqe_cfg()),
                         ("counterterm", roots), ("critical", critical_cfg())):
        (tmp_path / f"{command}.json").write_text(json.dumps(cfg))
    src = str(Path(vqe.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


PARSER_ONCE = """
import json, sys
import phi4vqe.cli as cli

built = [cli._parser.cache_info().currsize]
for run in range(2):
    assert cli.main(["spectrum", "--config", sys.argv[1], "--out", sys.argv[1] + f".{run}"]) == 0
    built.append(cli._parser.cache_info().misses)
print(json.dumps(built))
"""


def test_main_builds_its_parser_on_the_first_call_only(tmp_path):
    # importing the CLI builds no parser, and the first main call's parser serves every later call
    (tmp_path / "spectrum.json").write_text(json.dumps(spectrum_cfg()))
    src = str(Path(vqe.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", PARSER_ONCE, str(tmp_path / "spectrum.json")],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0, 1, 1]


# ---------------------------------------------------------------- README drift

def readme_examples():
    """(command, config) for every ```json block of the README's Command line section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for part in section.split("\n### ")[1:]:
        command = part.split("\n", 1)[0].strip()
        examples += [(command, json.loads(block))
                     for block in re.findall(r"```json\n(.*?)```", part, re.S)]
    return examples


def test_readme_library_example_runs(tmp_path):
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_config_examples_pass_the_schema():
    examples = readme_examples()
    assert {command for command, _ in examples} == set(CONFIG_SCHEMAS)
    for command, cfg in examples:
        assert check_config(command, cfg)[1] == [], command
