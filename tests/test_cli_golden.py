"""CLI output pinned byte for byte.

Each case's expected stdout sits in ``tests/golden/<name>.txt``.  The files
were written by an earlier revision of the program, so these tests check that
refactors leave the output bytes unchanged.  Gamma truths are left out on
purpose: their last digits follow the incomplete gamma routine.
"""

from pathlib import Path

import pytest

from levytail import cli

GOLDEN = Path(__file__).with_name("golden")

CASES = {
    "validate_cauchy_csv": ["validate", "--model", "cauchy",
                            "--eps-grid", "0.5,1", "--t-grid", "0.01:0.1:3"],
    "validate_cauchy_json": ["validate", "--model", "cauchy",
                             "--eps-grid", "0.5,1", "--t-grid", "0.01:0.1:3",
                             "--format", "json"],
    "validate_cpp_csv": ["validate", "--model", "cpp(1,uniform(1,2))",
                         "--eps-grid", "1.5,2.5,4", "--t-grid", "0.01:0.9:3"],
    "validate_cpp_json": ["validate", "--model", "cpp(1,uniform(1,2))",
                          "--eps-grid", "1.5,2.5,4", "--t-grid", "0.01:0.9:3",
                          "--format", "json"],
    "validate_cauchy_decades": ["validate", "--model", "cauchy",
                                "--eps-grid", "1", "--t-grid", "0.01:0.1"],
    "functionals_tempered_stable": ["functionals", "--model",
                                    "tempered_stable(0.5,1)", "--eps", "0.5"],
    "bound_json": ["bound", "--model", "cauchy", "--eps", "0.5", "--t", "0.01",
                   "--format", "json"],
    "constants_fv": ["constants", "--alpha", "0.5"],
    "constants_iv_json": ["constants", "--alpha", "1.5", "--m", "2",
                          "--eps", "1.25", "--format", "json"],
    "simulate_seed_11": ["simulate", "--model", "cauchy", "--eps", "1",
                         "--t", "0.5", "--n", "20000", "--seed", "11"],
    "functionals_stable": ["functionals", "--model", "stable(1.5,1)",
                           "--eps", "0.7"],
    "functionals_cpp": ["functionals", "--model", "cpp(2,uniform(0.5,1.5))",
                        "--eps", "0.7"],
    "simulate_cpp": ["simulate", "--model", "cpp(2,uniform(0.5,1.5))",
                     "--eps", "1.2", "--t", "0.5", "--n", "20000",
                     "--seed", "11"],
    "simulate_gamma": ["simulate", "--model", "gamma", "--eps", "0.5",
                       "--t", "0.3", "--n", "20000", "--seed", "11"],
    "simulate_inverse_gaussian": ["simulate", "--model", "inverse_gaussian",
                                  "--eps", "1", "--t", "0.5", "--n", "20000",
                                  "--seed", "11"],
    "simulate_stable": ["simulate", "--model", "stable(1.5,1)", "--eps", "1",
                        "--t", "0.05", "--n", "20000", "--seed", "11"],
    # Monte Carlo through the small-jump scheme
    "simulate_power_law_budget": ["simulate", "--model", "power_law(1,0.5)",
                                  "--eps", "0.75", "--t", "0.01",
                                  "--n", "40000", "--seed", "3",
                                  "--delta", "1e-3", "--bias-budget", "1"],
    "simulate_tempered_stable": ["simulate", "--model",
                                 "tempered_stable(1.2,1)", "--eps", "0.75",
                                 "--t", "0.002", "--n", "40000",
                                 "--seed", "4"],
    "simulate_power_law_refine_cp": ["simulate", "--model", "power_law(1,0.5)",
                                     "--eps", "0.75", "--t", "0.01",
                                     "--n", "40000", "--seed", "5", "--refine",
                                     "--method", "clopper_pearson"],
    "simulate_smalljump_json": ["simulate", "--smalljump", "--model",
                                "power_law(1,0.5)", "--eps", "0.75",
                                "--t", "0.01", "--n", "40000", "--seed", "6",
                                "--format", "json"],
    "simulate_smalljump_pos_plain": ["simulate", "--smalljump", "--model",
                                     "power_law(1,0.5)", "--eps", "0.5",
                                     "--x", "0.4", "--t", "0.01",
                                     "--n", "40000", "--seed", "7",
                                     "--side", "pos", "--widen", "plain",
                                     "--delta", "1e-3"],
    "validate_tempered_stable_mc_json": ["validate", "--model",
                                         "tempered_stable(0.5,1)",
                                         "--eps-grid", "0.5,0.75",
                                         "--t-grid", "1e-3:1e-2:3",
                                         "--truth", "mc", "--n", "20000",
                                         "--seed", "9", "--format", "json"],
    "rate_cpp_mc": ["rate", "--model", "cpp(2,uniform(0.5,1.5))",
                    "--eps", "1.2", "--t-grid", "0.05:1:6", "--truth", "mc",
                    "--n", "100000", "--seed", "11"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(capsys, name):
    assert cli.main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
