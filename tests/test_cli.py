import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from martkit.cli import CHECK_OPS, _build_parser, main

REFERENCE_VALUES = ["1/2", "-1/5", "3/10", "4/5", "9/10", "3/2", "3/5",
                 "-1/10", "2/5", "9/10", "13/10", "-1/5", "1/2", "7/10"]


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def walk_scenario(**overrides):
    doc = {
        "name": "walk",
        "mode": "exact",
        "seed": 1,
        "model": {"kind": "fair_walk", "horizon": 2},
        "checks": [
            {"name": "is_martingale", "op": "classify", "assert": "martingale"},
        ],
    }
    doc.update(overrides)
    return doc


def test_passing_scenario_exits_zero(tmp_path, capsys):
    src = write_json(tmp_path / "s.json", walk_scenario())
    code = main(["run", src, "--out-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] is_martingale" in out
    assert "walk: 1/1 checks passed" in out


def test_failed_assertion_exits_one_with_a_witness(tmp_path, capsys):
    doc = walk_scenario(model={"kind": "biased_walk", "p_up": "3/4", "horizon": 2})
    src = write_json(tmp_path / "s.json", doc)
    code = main(["run", src, "--out-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] is_martingale" in out


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x",', encoding="utf-8")
    code = main(["run", str(bad), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.json:1:" in err


def test_exact_mode_rejects_monte_carlo_ops(tmp_path, capsys):
    doc = walk_scenario(checks=[{"name": "mc", "op": "mc_stats", "trials": 10}])
    src = write_json(tmp_path / "s.json", doc)
    code = main(["run", src, "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "exact mode rejects Monte Carlo checks" in err


def test_unknown_op_exits_two(tmp_path, capsys):
    doc = walk_scenario(checks=[{"name": "x", "op": "no_such_op"}])
    src = write_json(tmp_path / "s.json", doc)
    assert main(["run", src, "--out-dir", str(tmp_path / "out")]) == 2


def test_duplicate_check_names_exit_two(tmp_path):
    doc = walk_scenario()
    doc["checks"] = doc["checks"] * 2
    src = write_json(tmp_path / "s.json", doc)
    assert main(["run", src, "--out-dir", str(tmp_path / "out")]) == 2


def test_bad_check_name_exits_two(tmp_path):
    doc = walk_scenario()
    doc["checks"][0]["name"] = "has space"
    src = write_json(tmp_path / "s.json", doc)
    assert main(["run", src, "--out-dir", str(tmp_path / "out")]) == 2


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2


def test_python_dash_m_runs_the_cli_from_the_source_tree(tmp_path, capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "martkit", "selftest", "--seed", "42"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "selftest: ok"
    # selftest reads the reference path with the crossings reader and op
    ref = src / "martkit" / "scenarios" / "reference_path.json"
    assert main(["crossings", "--band", "0,1", "--path", str(ref), "--out-dir", str(tmp_path / "cr")]) == 0
    assert ((tmp_path / "martkit_out" / "reference_path.csv").read_bytes()
            == (tmp_path / "cr" / "crossings.csv").read_bytes())


def test_run_writes_deterministic_csv(tmp_path):
    src = write_json(tmp_path / "s.json", walk_scenario())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", src, "--out-dir", str(out1)]) == 0
    assert main(["run", src, "--out-dir", str(out2)]) == 0
    names = sorted(p.name for p in out1.glob("*.csv"))
    assert names == ["walk__is_martingale.csv", "walk__summary.csv"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = (out1 / "walk__summary.csv").read_text()
    assert summary.splitlines()[0] == "check,op,holds,detail"
    assert "\r" not in summary


def test_crossings_reproduces_the_reference_table(tmp_path, capsys):
    src = write_json(tmp_path / "fig.json", {"mode": "exact", "values": REFERENCE_VALUES})
    code = main(["crossings", "--band", "0,1", "--path", src])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "atom,n,sigma,tau"
    rows = [tuple(l.split(",")) for l in lines[1:-1]]
    assert [(r[2], r[3]) for r in rows] == [
        ("0", "1"), ("5", "7"), ("10", "11"), ("13", "13"), ("13", "13")
    ]
    assert lines[-1] == "upcrossings_before,2"


def test_crossings_band_must_parse(tmp_path, capsys):
    src = write_json(tmp_path / "fig.json", {"mode": "exact", "values": REFERENCE_VALUES})
    assert main(["crossings", "--band", "zero|one", "--path", src]) == 2


def test_bc_meets_its_match_threshold(capsys):
    code = main(["bc", "--model", "independent", "--prob", "0.5", "--horizon", "40",
                 "--trials", "400", "--seed", "5", "--min-match", "0.9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "match_fraction = " in out
    assert "p_horizon_mean = " in out


def test_bc_fails_when_the_threshold_is_unreachable(capsys):
    # constant coins always fire in the tail while a huge cut predicts
    # settling, so agreement collapses to zero
    code = main(["bc", "--model", "independent", "--prob", "0.5",
                 "--horizon", "40", "--trials", "200", "--seed", "5",
                 "--cut", "1000", "--min-match", "0.99"])
    assert code == 1


@pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--block-size", "-3")])
def test_bc_counts_below_one_exit_two(flag, value, capsys):
    code = main(["bc", "--prob", "0.5", "--horizon", "20", flag, value])
    assert code == 2
    assert f"error: {flag}: expected an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["20", "200"])  # Philox kernel and trial_rng paths
@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_bc_seed_outside_64_bits_exits_two(horizon, seed, capsys):
    # -1 once ran as 2^64 - 1 at horizon 20 and raised OverflowError at 200
    code = main(["bc", "--prob", "0.5", "--horizon", horizon, "--trials", "10", "--seed", seed])
    assert code == 2
    assert "error: --seed: expected an integer in 0..18446744073709551615" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_scenario_values_exit_two(bad, tmp_path, capsys):
    # json accepts these literals; a NaN value once classified as a martingale
    src = tmp_path / "s.json"
    src.write_text(
        '{"name": "nonfinite", "mode": "float",'
        ' "space": {"mode": "float", "weights": [0.5, 0.5]},'
        ' "process": {"values": [[0.0, 0.0], [1.0, %s]]},'
        ' "checks": [{"name": "m", "op": "classify", "assert": "martingale"}]}' % bad,
        encoding="utf-8",
    )
    code = main(["run", str(src), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_converge_prints_diagnostic_rows(capsys):
    code = main(["converge", "--model", "fair_walk", "--horizon", "4",
                 "--cutoff", "4", "--bands=-1/2,1/2", "--l1-bound", "2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "bounded_fraction,,1"
    assert lines[1] == "unbounded_measure,,0"
    assert any(line.startswith("violations a=-1/2 b=1/2,") for line in lines)
    assert any(line.startswith("chain_bound a=-1/2 b=1/2,") and line.endswith(",true")
               for line in lines)


def test_ui_prints_both_curves(capsys):
    code = main(["ui", "--family", "shrinking_spike", "--horizon", "4",
                 "--deltas", "1/4,1/16", "--cs", "0,2,4"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l1_bound,,1"
    assert "analyst,1/4,1/2" in lines
    assert "analyst,1/16,1/4" in lines
    assert "probabilist,0,1" in lines
    assert "probabilist,4,1/4" in lines


def test_check_requires_exact_scenarios(tmp_path, capsys):
    doc = walk_scenario(mode="float")
    src = write_json(tmp_path / "s.json", doc)
    assert main(["check", src, "--out-dir", str(tmp_path / "out")]) == 2


def run_checks(tmp_path, capsys, checks, mode="float", **top):
    doc = {"name": "keys", "mode": mode, "seed": 3, "checks": checks, **top}
    src = write_json(tmp_path / "s.json", doc)
    code = main(["run", src, "--out-dir", str(tmp_path / "out")])
    return code, capsys.readouterr().err


MC_STATS = {"name": "m", "op": "mc_stats", "model": {"kind": "fair_walk"},
            "trials": 20, "horizon": 8, "window": 4,
            "bands": [[-0.5, 0.5]], "violation_ks": [1, 2]}
BC = {"name": "b", "op": "borel_cantelli", "model": {"kind": "independent", "prob": 0.5},
      "horizon": 8, "trials": 20}
BC_FLOATS = ("divergence_cut", "min_match")


@pytest.mark.parametrize("key", ["bands", "osc_tol", "min_osc_fraction", "final_mean_abs_max",
                                 "decay_factor_min", "divergence_cut", "min_match"])
def test_non_finite_check_floats_exit_two(key, tmp_path, capsys):
    # a band [[NaN, 0.5]] once ran and wrote the row band=(nan,0.5) k=1
    nan = float("nan")
    check = BC if key in BC_FLOATS else MC_STATS
    check = dict(check, **{key: [[nan, 0.5]] if key == "bands" else nan})
    code, err = run_checks(tmp_path, capsys, [check])
    assert code == 2
    assert f"$.checks[0].{key}" in err and "finite" in err


@pytest.mark.parametrize("check, mode, path", [
    ({"op": "upcrossing_estimate", "band": ["-1/2", "1/2"], "n": 2}, "exact", ".n: unknown key"),
    ({"op": "upcrossing_estimate", "band": ["-1/2", "1/2"], "bogus": 7}, "exact", ".bogus: unknown key"),
    ({"op": "upcrossing_estimate_sup", "band": ["-1/2", "1/2"], "check_classification": False},
     "exact", ".check_classification: unknown key"),
    ({"op": "vitali", "family": {"builtin": "shrinking_spike", "horizon": 4},
      "expect_lp_decay": "true"}, "float", ".expect_lp_decay: expected true or false"),
    (dict(MC_STATS, violation_ks=[1.5]), "float", ".violation_ks[0]: expected an integer"),
    (dict(MC_STATS, model={"kind": "fair_walk", "stpe": 1}), "float", ".model.stpe: unknown key"),
], ids=["n", "bogus", "check_classification", "expect_lp_decay", "violation_ks", "check_model"])
def test_malformed_check_keys_exit_two(check, mode, path, tmp_path, capsys):
    check = dict(check, name="c")
    code, err = run_checks(tmp_path, capsys, [check], mode=mode,
                           model={"kind": "fair_walk", "horizon": 2})
    assert code == 2
    assert f"$.checks[0]{path}" in err


def test_unknown_key_in_the_scenario_model_exits_two(tmp_path, capsys):
    doc = walk_scenario(model={"kind": "fair_walk", "horizon": 2, "p_up": "3/4"})
    src = write_json(tmp_path / "s.json", doc)
    assert main(["run", src, "--out-dir", str(tmp_path / "out")]) == 2
    assert "$.model.p_up: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--cut", "--min-match"])
def test_bc_non_finite_floats_exit_two(flag, capsys):
    # --cut nan once exited 0 with match_fraction = 0.0
    code = main(["bc", "--prob", "0.5", "--horizon", "20", "--trials", "100", flag, "nan"])
    assert code == 2
    assert f"error: {flag}: " in capsys.readouterr().err


def test_readme_lists_every_check_op_and_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        cells = line.split("|")
        if line.startswith("| `") and len(cells) > 2:
            rows[cells[1].strip().strip("`")] = cells[2]
    assert sorted(rows) == sorted(CHECK_OPS)
    for op, (_, keys) in CHECK_OPS.items():
        names = set(keys) | {k.alt[0] for k in keys.values() if k.alt}
        missing = [name for name in names if f"`{name}`" not in rows[op]]
        assert not missing, f"README row for {op} lacks {missing}"


def test_readme_command_lines_parse():
    # parse only: a flag deleted or renamed in the parser cannot linger in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("martkit ")]
    assert lines
    parser = _build_parser()
    for line in lines:
        command = re.split(r"\s{2,}", line)[0]  # drop the aligned description
        args = parser.parse_args(shlex.split(command)[1:])
        assert args.command == shlex.split(command)[1]
    # every subcommand is documented by at least one command line
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {shlex.split(line)[1] for line in lines} == set(subcommands.choices)


@pytest.mark.parametrize("flags, flag", [
    (["--horizon", "10", "--tail-start", "20"], "--tail-start"),
    (["--horizon", "10", "--tail-start", "0"], "--tail-start"),
    (["--horizon", "0"], "--horizon"),
    (["--horizon", "10", "--prob", "1.5"], "--prob"),
], ids=["tail_start_past_horizon", "tail_start_zero", "horizon_zero", "prob_above_one"])
def test_bc_range_errors_exit_two(flags, flag, capsys):
    # each once ended in a ValueError traceback from check_borel_cantelli
    code = main(["bc", "--prob", "0.5", "--trials", "10", *flags])
    assert code == 2
    assert f"error: {flag}" in capsys.readouterr().err


def test_unknown_top_level_scenario_key_exits_two(tmp_path, capsys):
    # "sead" once ran the classify check and exited 0
    src = write_json(tmp_path / "s.json", walk_scenario(sead=5))
    assert main(["run", src, "--out-dir", str(tmp_path / "out")]) == 2
    assert "$.sead: unknown key" in capsys.readouterr().err



def explicit_scenario():
    return {
        "name": "docs", "mode": "exact",
        "space": {"mode": "exact", "weights": ["1/2", "1/2"]},
        "process": {"values": [["0", "0"], ["1", "-1"]]},
        "filtration": {"atoms": 2, "steps": [[[0, 1]], [[0], [1]]]},
        "checks": [{"name": "c", "op": "condexp_agreement",
                    "f": {"values": ["1", "2"]}, "sub": {"atoms": 2, "blocks": [[0, 1]]}}],
    }


@pytest.mark.parametrize("where, path", [
    (lambda d: d["space"], "$.space"),
    (lambda d: d["process"], "$.process"),
    (lambda d: d["filtration"], "$.filtration"),
    (lambda d: d["checks"][0]["f"], "$.checks[0].f"),
    (lambda d: d["checks"][0]["sub"], "$.checks[0].sub"),
], ids=["space", "process", "filtration", "f", "sub"])
def test_unknown_keys_in_instance_documents_exit_two(where, path, tmp_path, capsys):
    # a filtration's misspelt "ambiant" once ran with the singleton ambient
    doc = explicit_scenario()
    assert main(["run", write_json(tmp_path / "ok.json", doc), "--out-dir", str(tmp_path / "out")]) == 0
    where(doc)["ambiant"] = [[0, 1]]
    src = write_json(tmp_path / "s.json", doc)
    assert main(["run", src, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"{path}.ambiant: unknown key" in capsys.readouterr().err


MISSING = object()


def documents_scenario(mode="exact"):
    """An explicit scenario whose checks hold a stopping time, a random
    variable and a partition document."""
    doc = explicit_scenario()
    doc["checks"].insert(0, {"name": "o", "op": "optional_stopping", "tau": [0, 0], "sigma": [1, 1]})
    if mode == "float":
        doc["mode"] = doc["space"]["mode"] = "float"
        doc["space"]["weights"] = [0.5, 0.5]
    return doc


@pytest.mark.parametrize("keys, value, path, text", [
    (("space", "weights", 1), True, "$.space.weights[1]", ""),
    (("space", "weights", 1), "junk", "$.space.weights[1]", ""),
    (("space", "weights", 1), "1/0", "$.space.weights[1]", "'1/0' has a zero denominator"),
    (("space", "weights", 1), 0.5, "$.space.weights[1]", ""),
    (("space", "mode"), "float", "$.space.mode", ""),
    (("space", "weights"), MISSING, "$.space", ""),
    (("process", "values"), [["1", "2"], ["3"]], "$.process.values", ""),
    (("process", "values"), [], "$.process.values", ""),
    (("filtration", "steps"), [[[0], [1]], [[0, 1]]], "$.filtration.steps", ""),
    (("filtration", "steps"), [], "$.filtration.steps", ""),
    (("filtration", "steps", 1, 1, 0), True, "$.filtration.steps[1][1][0]", ""),
    (("checks", 0, "tau", 1), "x", "$.checks[0].tau[1]", ""),
    (("checks", 0, "tau", 1), -1, "$.checks[0].tau[1]", ""),
    # each of these once named only the check, $.checks[0]
    (("checks", 0, "tau"), [0, 0, 0], "$.checks[0].tau", "expected 2 times, one per atom"),
    (("checks", 0, "sigma"), [1], "$.checks[0].sigma", "expected 2 times, one per atom"),
    (("checks", 0, "tau"), ["inf", 0], "$.checks[0].tau", "expected finite times <= 1"),
    (("checks", 0, "sigma"), [1, 2], "$.checks[0].sigma", "expected finite times <= 1"),
    (("checks", 0), {"name": "o", "op": "optional_stopping", "tau": [1, 0], "sigma": [0, 1]},
     "$.checks[0].sigma", "expected each time >= tau's"),
    (("checks", 1, "sub", "blocks"), [[0]], "$.checks[1].sub.blocks", ""),
    (("checks", 1, "f", "values"), "12", "$.checks[1].f.values", ""),
], ids=["bool_scalar", "junk_scalar", "zero_denominator", "float_in_exact", "space_mode",
        "missing_weights", "ragged_rows", "empty_rows", "non_nested_steps", "no_steps", "bool_atom",
        "junk_time", "negative_time", "tau_atom_count", "sigma_atom_count", "infinite_tau",
        "sigma_past_horizon", "tau_after_sigma", "uncovered_block", "string_values"])
def test_malformed_instance_documents_exit_two_naming_the_field(keys, value, path, text, tmp_path, capsys):
    # a filtration without steps once ended in an IndexError traceback, and a
    # zero denominator once printed only "Fraction(1, 0)"
    doc = documents_scenario()
    *head, last = keys
    node = doc
    for key in head:
        node = node[key]
    if value is MISSING:
        del node[last]
    else:
        node[last] = value
    out_dir = tmp_path / "out"
    assert main(["run", write_json(tmp_path / "s.json", doc), "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert f"s.json: {path}: {text}" in captured.err
    assert captured.out == "" and not out_dir.exists()


def test_an_infinite_time_decodes_and_only_optional_stopping_refuses_it(tmp_path, capsys):
    doc = documents_scenario("float")
    assert main(["run", write_json(tmp_path / "ok.json", doc), "--out-dir", str(tmp_path / "out")]) == 0
    assert "docs: 2/2 checks passed" in capsys.readouterr().out
    doc["checks"][0]["sigma"] = [1, "inf"]
    assert main(["run", write_json(tmp_path / "s.json", doc), "--out-dir", str(tmp_path / "out")]) == 2
    assert "$.checks[0].sigma: expected finite times <= 1" in capsys.readouterr().err


def test_doob_passes_a_submartingale_whose_drift_falls_only_on_a_null_block(tmp_path, capsys):
    # the drift once had to be nondecreasing on the weight-0 atoms 2 and 3 as well
    doc = {
        "name": "null", "mode": "exact",
        "space": {"mode": "exact", "weights": ["1/2", "1/2", "0", "0"]},
        "process": {"values": [["0", "0", "3", "3"], ["1", "1", "5", "6"]]},
        "filtration": {"atoms": 4, "steps": [[[0, 1], [2, 3]], [[0], [1], [2], [3]]]},
        "checks": [{"name": "c", "op": "classify", "assert": "submartingale"},
                   {"name": "d", "op": "doob_decomposition"}],
    }
    out_dir = tmp_path / "out"
    assert main(["run", write_json(tmp_path / "s.json", doc), "--out-dir", str(out_dir)]) == 0
    assert "[PASS] d: decomposition valid" in capsys.readouterr().out
    assert "predictable_part_nondecreasing,true" in (out_dir / "null__d.csv").read_text()


@pytest.mark.parametrize("model", [
    {"kind": "biased_walk", "p_up": "3/5", "horizon": 8},
    {"kind": "polya", "initial_red": 2, "initial_black": 3, "horizon": 6},
    {"kind": "fair_walk", "step": "1/10", "horizon": 8},
], ids=["biased_walk", "polya", "fair_walk"])
def test_float_doob_compares_within_the_tolerance(model, tmp_path, capsys):
    # m + a == f and the drift rows were once compared bit for bit, so rounding failed these
    doc = {"name": "fd", "mode": "float", "model": model,
           "checks": [{"name": "d", "op": "doob_decomposition"}]}
    out_dir = tmp_path / "out"
    assert main(["run", write_json(tmp_path / "s.json", doc), "--out-dir", str(out_dir)]) == 0
    assert "[PASS] d: decomposition valid" in capsys.readouterr().out
    assert "false" not in (out_dir / "fd__d.csv").read_text()


def test_float_hoelder_equality_passes(tmp_path, capsys):
    # Hoelder's inequality holds with equality on a constant member; rounding
    # missed it by 2 ulp, and this scenario once printed [FAIL] and exited 1
    doc = {"name": "h", "mode": "float", "space": {"weights": [0.7, 0.1, 0.3], "mode": "float"},
           "checks": [{"name": "pm", "op": "p_monotonicity", "family": {"members": [[-1, -1, -1]]},
                       "p": 1, "q": 2}]}
    assert main(["run", write_json(tmp_path / "s.json", doc), "--out-dir", str(tmp_path / "out")]) == 0
    assert "[PASS] pm" in capsys.readouterr().out


@pytest.mark.parametrize("check, weights, message", [
    ({"op": "p_monotonicity", "family": {"members": [[1e200, 1]]}, "p": 1, "q": 2},
     [0.5, 0.5], "|f|^p overflows a float at p = "),
    ({"op": "ui_curves", "family": {"members": [[1e300, 1]], "p": 3}, "deltas": [0.5], "cs": [0]},
     [0.5, 0.5], "|f|^p overflows a float at p = "),
    ({"op": "p_monotonicity", "family": {"members": [[1.3e154, 1.3e154]]}, "p": 1, "q": 2},
     [1.0, 1.0], "a weighted sum of finite values overflows a float"),
], ids=["p_monotonicity", "ui_curves", "sum"])
def test_a_float_power_or_sum_past_the_range_exits_two(check, weights, message, tmp_path, capsys):
    # the powers once escaped as OverflowError tracebacks with exit 1; the sum
    # read inf, so p-monotonicity held on the row (0.0, 2.6e+154, inf, inf, True)
    code, err = run_checks(tmp_path, capsys, [dict(check, name="c")],
                           space={"weights": weights, "mode": "float"})
    assert code == 2
    assert f"$.checks[0]: {message}" in err


@pytest.mark.parametrize("horizon, bands", [(2, "-1/2,1/2"), (3, "-1/2,1/2"), (3, "-1,1"),
                                            (4, "-1/2,1/2;0,1")])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_converge_csv_body_equals_stdout(horizon, bands, mode, tmp_path, capsys):
    # an exact whole-number mu[U] was once written to converge.csv as 0.0
    code = main(["converge", "--model", "fair_walk", "--horizon", str(horizon), "--cutoff", "4",
                 f"--bands={bands}", "--l1-bound", "2", "--mode", mode, "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith("chain_bound") for line in out)
    csv_lines = (tmp_path / "converge.csv").read_text().splitlines()
    assert csv_lines[0] == "kind,x,value"
    assert csv_lines[1:] == out


def test_a_numeric_check_name_stays_as_written_in_the_summary(tmp_path):
    # _fmt once re-read the name "1" as a float and wrote 1.0
    doc = walk_scenario()
    doc["checks"][0]["name"] = "1"
    src = write_json(tmp_path / "s.json", doc)
    assert main(["run", src, "--out-dir", str(tmp_path / "out")]) == 0
    summary = (tmp_path / "out" / "walk__summary.csv").read_text().splitlines()
    assert summary[1].startswith("1,classify,true,")


def mc_scenario(**overrides):
    return {"name": "mc", "mode": "float", "seed": 1,
            "model": {"kind": "fair_walk", "horizon": 2},
            "checks": [{"name": "c", "op": "classify", "assert": "martingale"},
                       {"name": "m", "op": "mc_stats", "trials": 10, "horizon": 4}],
            **overrides}


@pytest.mark.parametrize("argv, doc, where", [
    ([], mc_scenario(seed=1 << 64), "$.seed"),
    ([], mc_scenario(seed=-1), "$.seed"),
    (["--seed", "-1"], mc_scenario(), "--seed"),
    (["--seed", str(1 << 64)], mc_scenario(), "--seed"),
    ([], mc_scenario(checks=[mc_scenario()["checks"][0],
                             dict(mc_scenario()["checks"][1], seed=1 << 64)]), "$.checks[1].seed"),
], ids=["scenario_2_64", "scenario_negative", "flag_negative", "flag_2_64", "op_key"])
def test_a_seed_outside_64_bits_exits_two_before_any_check(argv, doc, where, tmp_path, capsys):
    # the classify check once ran, printed [PASS] and wrote its CSV first
    src = write_json(tmp_path / "s.json", doc)
    out_dir = tmp_path / "out"
    assert main(["run", src, *argv, "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert f"{where}: expected an integer in 0..18446744073709551615" in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


def test_selftest_compares_both_rng_routes_with_trial_rng(monkeypatch):
    from martkit import cli

    assert cli._rng_streams_mismatch() is None
    real = cli._uniform_block
    cut = cli._VECTOR_RNG_MAX_HORIZON

    def short_only(seed, start, count, horizon):
        u = real(seed, start, count, horizon)
        if horizon > cut + 1:
            u[-1, -1] = 0.5
        return u

    monkeypatch.setattr(cli, "_uniform_block", short_only)
    assert cli._rng_streams_mismatch() == ("re-keyed", cli._RNG_LONG_HORIZON)
    assert cli._RNG_LONG_HORIZON > cut + 1 and cli._RNG_LONG_HORIZON % 4


def test_selftest_rejects_its_seed_before_running(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["selftest", "--seed", "-1", "--out-dir", str(out_dir)]) == 2
    assert "error: --seed: expected an integer in 0..18446744073709551615" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("check", [
    {"name": "m", "op": "mc_stats", "trials": 10, "horizon": 4, "workers": 1},
    {"name": "b", "op": "borel_cantelli", "model": {"kind": "independent", "prob": 0.5},
     "horizon": 8, "trials": 20, "workers": 2},
], ids=["mc_stats", "borel_cantelli"])
def test_a_workers_key_exits_two_as_unknown(check, tmp_path, capsys):
    src = write_json(tmp_path / "s.json", mc_scenario(checks=[check]))
    assert main(["run", src, "--out-dir", str(tmp_path / "out")]) == 2
    assert "$.checks[0].workers: unknown key" in capsys.readouterr().err


def test_the_workers_flags_are_gone(tmp_path, capsys):
    assert main(["bc", "--prob", "0.5", "--horizon", "20", "--workers", "2"]) == 2
    src = write_json(tmp_path / "s.json", walk_scenario())
    assert main(["run", src, "--workers", "2", "--out-dir", str(tmp_path / "out")]) == 2


def ae_check(**keys):
    return {"name": "ae", "op": "ae_convergence", "cutoff": "4", **keys}


@pytest.mark.parametrize("keys, holds", [
    ({}, True),
    ({"bands": [["-1/2", "1/2"]]}, True),
    ({"bands": [["-1/2", "1/2"], ["0", "1"]], "l1_bound": "2"}, True),
    # the walk is not 0 in L1, so a bound of 0 is broken by its first upcrossing of [0, 1]
    ({"bands": [["-1/2", "1/2"], ["0", "1"]], "l1_bound": "0"}, False),
], ids=["no_bands", "no_bound", "bound_2", "bound_0"])
def test_ae_convergence_op(keys, holds, tmp_path, capsys):
    doc = walk_scenario(model={"kind": "fair_walk", "horizon": 4}, checks=[ae_check(**keys)])
    src = write_json(tmp_path / "s.json", doc)
    assert main(["run", src, "--out-dir", str(tmp_path / "out")]) == (0 if holds else 1)
    out = capsys.readouterr().out
    rows = (tmp_path / "out" / "walk__ae.csv").read_text().splitlines()
    assert rows[:3] == ["kind,x,value", "bounded_fraction,,1", "unbounded_measure,,0"]
    if holds:
        assert "[PASS] ae: bounded_fraction=1" in out
    else:
        assert "[FAIL] ae: bounded_fraction=1 chain bound fails at a=0 b=1: mu[U]=" in out
        assert rows[-2].endswith(",true") and rows[-1].startswith("chain_bound a=0 b=1,")
        assert rows[-1].endswith(",false")


def test_converge_runs_the_ae_convergence_op(tmp_path, capsys):
    doc = walk_scenario(model={"kind": "fair_walk", "horizon": 4},
                        checks=[ae_check(bands=[["-1/2", "1/2"]], l1_bound="2")])
    assert main(["run", write_json(tmp_path / "s.json", doc), "--out-dir", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert main(["converge", "--model", "fair_walk", "--horizon", "4", "--cutoff", "4",
                 "--bands=-1/2,1/2", "--l1-bound", "2", "--out-dir", str(tmp_path / "cli")]) == 0
    run_csv = (tmp_path / "run" / "walk__ae.csv").read_bytes()
    assert (tmp_path / "cli" / "converge.csv").read_bytes() == run_csv


@pytest.mark.parametrize("check, where", [
    ({"op": "upcrossing_estimate", "band": [0, 1], "N": 3}, "$.checks[1].N"),
    ({"op": "crossing_table", "band": [0, 1], "N": 3}, "$.checks[1].N"),
    ({"op": "maximal_inequality", "level": 1, "n": 3}, "$.checks[1].n"),
], ids=["upcrossing_estimate", "crossing_table", "maximal_inequality"])
def test_a_time_past_the_horizon_exits_two_before_any_check(check, where, tmp_path, capsys):
    # each once ran the classify check and wrote its CSV before exiting 2
    doc = walk_scenario()
    doc["checks"].append(dict(check, name="late"))
    out_dir = tmp_path / "out"
    assert main(["run", write_json(tmp_path / "s.json", doc), "--out-dir", str(out_dir)]) == 2
    assert f"{where}: expected an integer <= 2" in capsys.readouterr().err
    assert not out_dir.exists()


def test_a_value_only_the_library_rejects_exits_two_before_any_output(tmp_path, capsys):
    # the classify check before it once printed [PASS] and wrote its CSV, and
    # the error once named the check, not its key
    doc = walk_scenario()
    doc["checks"].append({"name": "late", "op": "maximal_inequality", "level": 0, "n": 2})
    out_dir = tmp_path / "out"
    assert main(["run", write_json(tmp_path / "s.json", doc), "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert "$.checks[1].level: expected a value > 0" in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


def test_an_event_probability_outside_the_unit_interval_exits_two(tmp_path, capsys):
    check = {"name": "b", "op": "borel_cantelli", "model": {"kind": "independent", "prob": 1.5},
             "horizon": 8, "trials": 20}
    src = write_json(tmp_path / "s.json", mc_scenario(checks=[mc_scenario()["checks"][0], check]))
    assert main(["run", src, "--out-dir", str(tmp_path / "out")]) == 2
    assert "$.checks[1].model.prob: expected a probability in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, flag", [
    (["crossings", "--band", "0,1", "--path", "{path}", "--n", "14"], "--n"),
    (["crossings", "--band", "0,x", "--path", "{path}"], "--band"),
    (["converge", "--model", "biased_walk", "--p-up", "x", "--horizon", "2", "--cutoff", "1"], "--p-up"),
    (["converge", "--model", "fair_walk", "--horizon", "-1", "--cutoff", "1"], "--horizon"),
    (["converge", "--model", "fair_walk", "--horizon", "40", "--cutoff", "1"], "--horizon"),
    (["converge", "--model", "fair_walk", "--horizon", "2", "--cutoff", "x"], "--cutoff"),
    (["converge", "--model", "fair_walk", "--horizon", "2", "--cutoff", "1", "--bands=0,1;x,1"], "--bands"),
    (["converge", "--model", "fair_walk", "--horizon", "2", "--cutoff", "1", "--l1-bound", "x"],
     "--l1-bound"),
    (["ui", "--family", "shrinking_spike", "--horizon", "0"], "--horizon"),
    (["ui", "--family", "shrinking_spike", "--horizon", "2", "--p", "x"], "--p"),
    (["ui", "--family", "shrinking_spike", "--horizon", "2", "--cs", "1,x"], "--cs"),
    (["bc", "--model", "polya", "--prob", "0.5", "--horizon", "4"], "--model"),
    (["bc", "--horizon", "4"], "--prob/--schedule"),
    # --schedule once silently overrode --prob
    (["bc", "--prob", "0.5", "--schedule", "inverse_square", "--horizon", "4"],
     "--prob/--schedule: give 'prob' or 'schedule', not both"),
])
def test_subcommand_errors_name_the_flag(argv, flag, tmp_path, capsys):
    path = write_json(tmp_path / "p.json", {"mode": "exact", "values": REFERENCE_VALUES})
    out_dir = tmp_path / "out"
    argv = [a.format(path=path) for a in argv]
    assert main([*argv, "--out-dir", str(out_dir)]) == 2
    assert f"error: {flag}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("keys, code, text", [
    ({"deltas": [0.4], "analyst_final_at_most": 0.3}, 0, "[PASS] u"),
    ({"cs": [0], "probabilist_final_at_most": 0.3}, 0, "[PASS] u"),
    ({"deltas": [0.5, 0.4], "analyst_final_at_most": 0.25}, 1,
     "[FAIL] u: l1_bound=0.30000000000000004 analyst(delta=0.4)=0.30000000000000004 > 0.25"),
], ids=["analyst", "probabilist", "too_small"])
def test_float_ui_curves_bounds_read_the_slack(keys, code, text, tmp_path, capsys):
    # both moduli are 0.1 + 0.2 = 0.30000000000000004; the bounds were once
    # compared with a raw >, so the first two printed [FAIL] and exited 1
    check = {"name": "u", "op": "ui_curves", "family": {"members": [[1, 1]]}, **keys}
    doc = {"name": "ui", "mode": "float", "space": {"weights": [0.1, 0.2], "mode": "float"}, "checks": [check]}
    assert main(["run", write_json(tmp_path / "s.json", doc), "--out-dir", str(tmp_path / "out")]) == code
    assert text in capsys.readouterr().out


def test_an_unadapted_process_fails_classify_and_doob_with_a_time_witness(tmp_path, capsys):
    # classify's witness row once assumed an (i, j, atom) pair and raised IndexError here
    doc = {"name": "u", "mode": "exact", "space": {"mode": "exact", "weights": ["1/2", "1/2"]},
           "process": {"values": [["0", "1"], ["1", "1"]]},
           "filtration": {"atoms": 2, "steps": [[[0, 1]], [[0], [1]]]},
           "checks": [{"name": "c", "op": "classify", "assert": "martingale"},
                      {"name": "d", "op": "doob_decomposition"}]}
    out_dir = tmp_path / "out"
    assert main(["run", write_json(tmp_path / "s.json", doc), "--out-dir", str(out_dir)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] c: kind=none witness=(n=0, atom=0)" in out
    assert "[FAIL] d: martingale_part_is_martingale fails: witness=(n=0, atom=0)" in out
    assert (out_dir / "u__d.csv").read_text().splitlines() == [
        "field,value", "martingale_part_is_martingale,false", "predictable_part_is_predictable,false",
        "predictable_part_nondecreasing,true", "reconstruction_exact,true", "holds,false", "witness,n=0 atom=0"]


# Every op in CHECK_OPS has a failing scenario below, whose [FAIL] line must
# name where the check failed, or is listed with the reason it cannot fail.
CANNOT_FAIL = {
    **dict.fromkeys(["upcrossing_estimate", "upcrossing_estimate_sup", "optional_stopping",
                     "maximal_inequality", "l1_convergence_b"],
                    "gated theorem check: exits 2 when the process is not a (sub)martingale, "
                    "and the statement holds on every process the gate admits"),
    **dict.fromkeys(["condexp_agreement", "set_integral_characterization", "bridging", "p_monotonicity"],
                    "holds for every input"),
    "crossing_table": "a table of crossing times, with no statement to fail",
    "levy_upward": "fails only through its monotone flag, which is not part of Levy's theorem",
}
_SPIKE = {"builtin": "shrinking_spike", "horizon": 4}
FAILING = {  # op: (scenario keys, check keys, text of the [FAIL] line)
    "classify": ({"mode": "exact", "model": {"kind": "biased_walk", "p_up": "3/4", "horizon": 2}},
                 {"assert": "martingale"}, "witness=(i=0, j=1, atom=0)"),
    # 0.8999999999999999 - 0.2 rounds to 0.9 - 0.2, so only the shifted path crosses
    "band_translation": ({"mode": "float"},
                         {"band": [0.2, 0.9], "process": {"values": [[-0.8], [0.8999999999999999], [0.9]]}},
                         "mismatch at N=2, atom 0"),
    "doob_decomposition": ({"mode": "exact", "model": {"kind": "biased_walk", "p_up": "1/4", "horizon": 2}},
                           {}, "predictable_part_nondecreasing fails: witness=(n=1, atom=0)"),
    "ae_convergence": ({"mode": "exact", "model": {"kind": "fair_walk", "horizon": 4}},
                       {"cutoff": "4", "bands": [["0", "1"]], "l1_bound": "0"},
                       "chain bound fails at a=0 b=1: mu[U]=3/4 > 0"),
    "ui_curves": ({"mode": "exact"}, {"family": _SPIKE, "deltas": ["1/4"], "analyst_final_at_most": "0"},
                  "analyst(delta=1/4)=1/2 > 0"),
    "vitali": ({"mode": "float"}, {"family": _SPIKE, "expect_lp_decay": True}, "lp_decay=False"),
    "mc_stats": ({"mode": "float", "seed": 3},
                 {"model": {"kind": "fair_walk"}, "trials": 200, "horizon": 16, "bands": [[-0.5, 0.5]],
                  "violation_ks": [1, 2], "decay_factor_min": 1e6},
                 "decay_ok=False at band=(-0.5,0.5) k=1->2"),
    "borel_cantelli": ({"mode": "float", "seed": 3},
                       {"model": {"kind": "independent", "prob": 0.5}, "horizon": 8, "trials": 20,
                        "min_match": 1.5}, "match_fraction=1.0"),
}


def test_every_op_has_a_failing_scenario_or_a_reason():
    assert not FAILING.keys() & CANNOT_FAIL.keys()
    assert sorted(FAILING.keys() | CANNOT_FAIL.keys()) == sorted(CHECK_OPS)


@pytest.mark.parametrize("op", sorted(FAILING))
def test_a_failing_check_names_its_witness(op, tmp_path, capsys):
    top, check, witness = FAILING[op]
    doc = {"name": "f", **top, "checks": [{"name": "c", "op": op, **check}]}
    out_dir = tmp_path / "out"
    assert main(["run", write_json(tmp_path / "s.json", doc), "--out-dir", str(out_dir)]) == 1
    fail = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL] c: ")]
    assert len(fail) == 1 and witness in fail[0]
    assert (out_dir / "f__c.csv").read_text().count("\n") >= 2
