"""End-to-end command behavior: output contracts and exit codes."""

import csv
import io
import json
import math

import pytest

from levytail import bounds as bd
from levytail import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# === constants and functionals ===============================================


def test_constants_text_output(capsys):
    code, out, err = run(capsys, "constants", "--alpha", "0.5")
    assert code == 0
    assert err == ""
    table = dict(line.split("=", 1) for line in out.strip().splitlines())
    expect = bd.constants(0.5)
    assert set(table) == set(expect)
    assert float(table["C1"]) == pytest.approx(expect["C1"], rel=1e-15)


def test_constants_json_round_trips(capsys):
    code, out, _ = run(capsys, "constants", "--alpha", "1.5", "--m", "2.0",
                       "--eps", "1.25", "--format", "json")
    assert code == 0
    table = json.loads(out)
    expect = bd.constants(1.5, M=2.0, eps=1.25)
    assert table.keys() == expect.keys()
    for k, v in expect.items():
        assert table[k] == pytest.approx(v, rel=1e-15)


def test_functionals_reports_values_and_sources(capsys):
    code, out, _ = run(capsys, "functionals", "--model", "cauchy",
                       "--eps", "0.5")
    assert code == 0
    table = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(table["lambda_eps"]) == pytest.approx(4.0 / math.pi, rel=1e-12)
    assert float(table["sigma2"]) == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert float(table["b"]) == 0.0
    assert table["lambda_eps.source"] == "closed_form"


# === bound ===================================================================


def test_bound_inside_window(capsys):
    code, out, _ = run(capsys, "bound", "--model", "cauchy", "--eps", "0.5",
                       "--t", "0.01", "--theorem", "ps2")
    assert code == 0
    table = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert table["theorem"] == "ps2"
    assert table["valid"] == "true"
    assert "window" not in table
    assert 0.0 < float(table["value"]) <= 1.0


def test_bound_outside_window_still_reports(capsys):
    code, out, _ = run(capsys, "bound", "--model", "cauchy", "--eps", "0.5",
                       "--t", "0.3", "--theorem", "ps2")
    assert code == 0
    table = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert table["valid"] == "false"
    assert table["window"].startswith("violated: needs t below ")


def test_bound_json_carries_constants(capsys):
    code, out, _ = run(capsys, "bound", "--model", "power_law(1,0.5)",
                       "--eps", "0.5", "--t", "0.001", "--theorem", "teo1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["theorem"] == "teo1"
    assert doc["constants_used"]["branch"] == "symmetric_small_eps"


# === validate ================================================================


def test_validate_csv_schema_and_summary(capsys):
    code, out, _ = run(capsys, "validate", "--model", "cauchy",
                       "--eps-grid", "1.0", "--t-grid", "0.001,0.002",
                       "--theorem", "lambda2bis")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("model,eps,t,truth,ci_low,ci_high,lambda_eps,"
                        "residual,bound,theorem,valid,margin")
    assert lines[-1] == "pass=2 fail=0 skip=0"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "cauchy"
    assert first[9] == "lambda2bis"
    assert first[10] == "true"


def test_csv_quotes_model_names_with_commas(capsys, tmp_path):
    model = "cpp(1, uniform(1,2))"
    code, out, _ = run(capsys, "validate", "--model", model,
                       "--eps-grid", "2.3", "--t-grid", "0.1,0.2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.rsplit("\n", 2)[0])))
    assert len(rows) == 2
    for row in rows:
        assert None not in row and len(row) == 12
        assert row["model"] == "cpp(1,uniform(1,2))"
        assert row["theorem"] == "teo1"
    dest = tmp_path / "curve.csv"
    code, _, _ = run(capsys, "rate", "--model", model, "--eps", "2.3",
                     "--t-grid", "1e-3:1e-1", "--out", str(dest))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(dest.read_text())))
    assert len(rows) == 25
    assert all(None not in row and len(row) == 8 for row in rows)
    assert {row["model"] for row in rows} == {"cpp(1,uniform(1,2))"}


def test_validate_out_file_keeps_stdout_summary_only(capsys, tmp_path):
    dest = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "validate", "--model", "cauchy",
                       "--eps-grid", "0.5,1.0", "--t-grid", "1e-3:1e-2",
                       "--theorem", "ps2", "--out", str(dest))
    assert code == 0
    assert out.strip().startswith("pass=")
    text = dest.read_text()
    assert text.startswith("model,eps,t,")
    # 13 t points per eps from the 12-per-decade grid
    assert len(text.strip().splitlines()) == 1 + 2 * 13


def test_validate_catches_false_class_declaration(capsys):
    # the claimed envelope M = 0.001 is far below the actual uniform jump
    # density, so the small-jump bound undershoots the exact tail
    model = ("cpp(2, uniform(0.4, 0.6)); class_alpha=1.5; class_M=0.001; "
             "symmetric=true; variation=infinite")
    code, out, _ = run(capsys, "validate", "--model", model,
                       "--eps-grid", "0.75", "--t-grid", "0.2",
                       "--theorem", "ps2")
    assert code == 5
    assert "fail=1" in out.strip().splitlines()[-1]


def test_validate_json_rows(capsys):
    code, out, _ = run(capsys, "validate", "--model", "cauchy",
                       "--eps-grid", "1.0", "--t-grid", "0.001",
                       "--theorem", "ps2", "--format", "json")
    assert code == 0
    body, summary = out.rsplit("\n", 2)[0], out.strip().splitlines()[-1]
    rows = json.loads(body)
    assert rows[0]["model"] == "cauchy"
    assert rows[0]["status"] == "PASS"
    assert summary == "pass=1 fail=0 skip=0"


# === rate ====================================================================


def test_rate_recovers_cauchy_cubic(capsys, tmp_path):
    dest = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "rate", "--model", "cauchy", "--eps", "1.0",
                       "--t-grid", "1e-4:1e-2", "--out", str(dest))
    assert code == 0
    table = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(table["slope"]) == pytest.approx(3.0, abs=0.05)
    assert int(table["points_used"]) == 25
    header = dest.read_text().splitlines()[0]
    assert header == "model,eps,t,truth,ci_low,ci_high,lambda_eps,residual"


def test_rate_too_few_points_is_numeric_error(capsys):
    code, _, err = run(capsys, "rate", "--model", "cauchy", "--eps", "1.0",
                       "--t-grid", "0.01,0.02")
    assert code == 3
    assert "3 resolved points" in err


# === simulate ================================================================


def test_simulate_repeats_and_shards_are_byte_identical(capsys):
    base = ("simulate", "--model", "cauchy", "--eps", "1.0", "--t", "0.05",
            "--n", "20000", "--seed", "7")
    _, first, _ = run(capsys, *base, "--shards", "1")
    _, again, _ = run(capsys, *base, "--shards", "1")
    _, sharded, _ = run(capsys, *base, "--shards", "4")
    assert first == again == sharded
    table = dict(line.split("=", 1) for line in first.strip().splitlines())
    assert 0.0 <= float(table["p_hat"]) <= 1.0
    assert table["method"] == "wilson"


def test_simulate_smalljump_mode(capsys):
    code, out, _ = run(capsys, "simulate", "--smalljump", "--model",
                       "power_law(1,1.5)", "--eps", "0.5", "--t", "0.01",
                       "--n", "10000", "--delta", "0.01", "--x", "0.5",
                       "--seed", "3")
    assert code == 0
    table = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(table["bias"]) > 0.0
    assert float(table["ci_high"]) <= 1.0


def test_simulate_json_output(capsys):
    code, out, _ = run(capsys, "simulate", "--model", "gamma", "--eps", "0.5",
                       "--t", "0.1", "--n", "5000", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) >= {"p_hat", "ci_low", "ci_high", "n", "confidence",
                        "method", "bias", "margin"}
    assert doc["n"] == 5000


# === configuration ===========================================================


def test_config_file_fills_missing_options(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for the demo\neps = 0.5\n")
    code, out, _ = run(capsys, "functionals", "--model", "cauchy",
                       "--config", str(cfg))
    assert code == 0
    table = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(table["lambda_eps"]) == pytest.approx(4.0 / math.pi, rel=1e-12)


def test_flag_beats_config_value(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = 0.5\n")
    code, out, _ = run(capsys, "functionals", "--model", "cauchy",
                       "--config", str(cfg), "--eps", "1.0")
    assert code == 0
    table = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(table["lambda_eps"]) == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_config_accepts_dashed_keys(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps-grid = 1.0\nt-grid = 0.001\ntheorem = ps2\n")
    code, out, _ = run(capsys, "validate", "--model", "cauchy",
                       "--config", str(cfg))
    assert code == 0
    assert "pass=1" in out


# === failure modes ===========================================================


def test_exit_codes(capsys, tmp_path):
    # hypothesis violation: ps2 needs alpha in [1, 2)
    code, _, err = run(capsys, "bound", "--model", "gamma", "--eps", "0.5",
                       "--t", "0.01", "--theorem", "ps2")
    assert code == 2
    assert "class_alpha" in err

    # unknown theorem name
    code, _, err = run(capsys, "bound", "--model", "cauchy", "--eps", "0.5",
                       "--t", "0.01", "--theorem", "teorema")
    assert code == 2

    # malformed grid
    code, _, err = run(capsys, "validate", "--model", "cauchy",
                       "--eps-grid", "0.5", "--t-grid", "abc")
    assert code == 2

    # missing required option
    code, _, err = run(capsys, "validate", "--model", "cauchy",
                       "--t-grid", "0.001")
    assert code == 2
    assert "eps" in err

    # unknown config key
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("paths = 100\n")
    code, _, err = run(capsys, "constants", "--alpha", "0.5",
                       "--config", str(cfg))
    assert code == 2
    assert "paths" in err

    # missing config file
    code, _, err = run(capsys, "constants", "--alpha", "0.5",
                       "--config", str(tmp_path / "absent.cfg"))
    assert code == 2


def test_no_applicable_bound_is_exit_four(capsys):
    code, _, err = run(capsys, "bound", "--model", "gamma; variation=infinite",
                       "--eps", "0.5", "--t", "0.01", "--theorem", "auto")
    assert code == 4
    assert "no residual bound applies" in err
