"""Pinned stdout, CSV bytes and exit codes of the one-op subcommands.

Each expected output was produced by the flag-by-flag implementations these
commands had before they became one-op scenarios.  The one difference is the
exact ``converge.csv``: it used to write a whole-number mu[U] as ``0.0`` while
stdout printed ``0``; both now print ``0``.
"""

import json

import pytest

from martkit.cli import main

PATH_1D = {"mode": "exact", "values": ["1/2", "-1/5", "3/10", "4/5", "9/10", "3/2", "3/5",
                                       "-1/10", "2/5", "9/10", "13/10", "-1/5", "1/2", "7/10"]}
PATH_2D = {"mode": "float", "values": [[0, 0.5], [1.5, -1], [0.2, 2], [2.5, 0.1]]}

CROSSINGS_1D = """\
atom,n,sigma,tau
0,0,0,1
0,1,5,7
0,2,10,11
0,3,13,13
0,4,13,13
"""
CROSSINGS_2D = """\
atom,n,sigma,tau
0,0,0,0
0,1,1,3
0,2,3,3
0,3,3,3
1,0,0,1
1,1,2,3
1,2,3,3
1,3,3,3
"""
CONVERGE_EXACT = """\
bounded_fraction,,1
unbounded_measure,,0
violations a=-1/2 b=1/2,1,0
violations a=-1/2 b=1/2,2,0
violations a=-1 b=1,1,0
violations a=-1 b=1,2,0
cauchy_gap,1->2,1
cauchy_gap,2->3,1
chain_bound a=-1/2 b=1/2,0,true
chain_bound a=-1 b=1,0,true
"""
CONVERGE_FLOAT = """\
bounded_fraction,,0.72
unbounded_measure,,0.28
violations a=-0.5 b=0.5,1,0.144
violations a=-0.5 b=0.5,2,0.0
violations a=-0.5 b=0.5,4,0.0
violations a=0.0 b=1.0,1,0.744
violations a=0.0 b=1.0,2,0.144
violations a=0.0 b=1.0,4,0.0
cauchy_gap,1->2,0.9999999999999999
cauchy_gap,2->4,1.0399999999999998
chain_bound a=-0.5 b=0.5,0.144,true
chain_bound a=0.0 b=1.0,0.8879999999999999,true
"""
UI = """\
l1_bound,,1
analyst,1/4,1/2
analyst,1/16,1/4
probabilist,0,1
probabilist,2,1/2
probabilist,4,1/4
"""

# name -> (argv, exit code, stdout, csv file, csv text)
PINNED = {
    "bc": (
        ["bc", "--prob", "0.5", "--horizon", "40", "--trials", "2500", "--seed", "5", "--min-match", "0.9"],
        0,
        "match_fraction = 1.0\np_horizon_mean = 20.0\n",
        "bc.csv",
        "trial_block,match_fraction,p_horizon_mean\n0,1.0,20.0\n1,1.0,20.0\n2,1.0,20.0\n",
    ),
    "bc_below_min_match": (
        ["bc", "--schedule", "inverse_square", "--horizon", "30", "--trials", "300", "--seed", "7",
         "--cut", "0.5", "--min-match", "0.99", "--block-size", "128"],
        1,
        "match_fraction = 0.03333333333333333\np_horizon_mean = 1.6121501176015978\n",
        "bc.csv",
        "trial_block,match_fraction,p_horizon_mean\n0,0.03125,1.6121501176015978\n"
        "1,0.03125,1.6121501176015978\n2,0.045454545454545456,1.6121501176015982\n",
    ),
    "crossings_1d": (
        ["crossings", "--band", "0,1", "--path", "{1d}", "--n", "13"],
        0, CROSSINGS_1D + "upcrossings_before,2\n", "crossings.csv", CROSSINGS_1D,
    ),
    "crossings_2d": (
        ["crossings", "--band", "0,1", "--path", "{2d}"],
        0, CROSSINGS_2D + "upcrossings_before,1,1\n", "crossings.csv", CROSSINGS_2D,
    ),
    "converge_exact": (
        ["converge", "--model", "fair_walk", "--horizon", "3", "--cutoff", "4",
         "--bands=-1/2,1/2;-1,1", "--l1-bound", "2"],
        0, CONVERGE_EXACT, "converge.csv", "kind,x,value\n" + CONVERGE_EXACT,
    ),
    "converge_float": (
        ["converge", "--mode", "float", "--model", "biased_walk", "--p-up", "0.6", "--horizon", "4",
         "--cutoff", "2", "--bands=-1/2,1/2;0,1", "--l1-bound", "3"],
        0, CONVERGE_FLOAT, "converge.csv", "kind,x,value\n" + CONVERGE_FLOAT,
    ),
    "ui": (
        ["ui", "--family", "shrinking_spike", "--horizon", "4", "--deltas", "1/4,1/16", "--cs", "0,2,4"],
        0, UI, "ui.csv", "kind,x,modulus\n" + UI,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_subcommand_output_is_pinned(name, tmp_path, capsys):
    argv, code, stdout, csv_name, csv_text = PINNED[name]
    paths = {"1d": tmp_path / "p1.json", "2d": tmp_path / "p2.json"}
    paths["1d"].write_text(json.dumps(PATH_1D), encoding="utf-8")
    paths["2d"].write_text(json.dumps(PATH_2D), encoding="utf-8")
    argv = [a.format(**{k: str(v) for k, v in paths.items()}) for a in argv]
    out_dir = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out_dir)]) == code
    assert capsys.readouterr().out == stdout
    assert sorted(p.name for p in out_dir.iterdir()) == [csv_name]
    assert (out_dir / csv_name).read_bytes() == csv_text.encode()
