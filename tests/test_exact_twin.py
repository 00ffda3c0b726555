"""Exact spaces, random variables and processes derive integer numerators once.

The twin is a ``cached_property``: nothing builds it until a check first needs
it, it never enters equality, hashing or ``repr``, and deriving it is the one
place that rejects a value that is not an int or a Fraction.  Importing the
package stays free of the CLI and of the test tools.
"""

import dataclasses
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import martkit
from martkit import (
    Band,
    FairWalk,
    Filtration,
    FiniteMeasureSpace,
    ModeError,
    Partition,
    Process,
    RandomVariable,
    band_translation_identity,
    classify,
    crossing_table,
    exhaustive_space,
    is_adapted,
    is_predictable,
    lower_crossing,
    upper_crossing,
)


def test_importing_martkit_loads_no_cli_serializer_or_test_tools():
    heavy = ("martkit.cli", "martkit.serialize", "argparse", "json", "csv", "hypothesis")
    code = (f"import sys; sys.path.insert(0, sys.argv[1]); import martkit; "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    src = str(Path(martkit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stdout.strip() == "[]"


def _fresh():
    space, f, F = exhaustive_space(FairWalk(), 4, "exact")
    return (space, f, FiniteMeasureSpace.from_weights([1, Fraction(1, 3), 0]),
            Process.from_values([[1, Fraction(1, 2), 0], [2, Fraction(-3, 4), 5]], "exact"),
            RandomVariable.from_values([Fraction(2, 7), 3, -1], "exact")), F


def test_set_up_leaves_every_twin_underived_and_out_of_equality():
    objs, F = _fresh()
    twins, _ = _fresh()
    assert all("_numerators" not in vars(o) for o in objs + twins)
    before = [(repr(o), hash(o)) for o in objs]
    classify(objs[0], objs[1], F)  # derives the space's and the process's twin
    assert "_numerators" in vars(objs[0]) and "_numerators" in vars(objs[1])
    for o in objs:
        nums, den = o._numerators
        assert o._numerators is vars(o)["_numerators"] and not nums.flags.writeable
        assert all(type(n) is int for n in nums.ravel().tolist()) and den >= 1
    assert [(repr(o), hash(o)) for o in objs] == before
    assert all(o == t for o, t in zip(objs, twins))
    for cls in (FiniteMeasureSpace, Process, RandomVariable):
        assert "_numerators" not in [fld.name for fld in dataclasses.fields(cls)]


def test_numerators_share_the_lowest_common_denominator():
    f = Process(((1, Fraction(1, 6)), (Fraction(-3, 4), Fraction(2, 3))), "exact")
    nums, den = f._numerators
    assert den == 12 and nums.tolist() == [[12, 2], [-9, 8]]
    with pytest.raises(ModeError):
        Process.from_values([[0.5]], "float")._numerators


def _float_in_row_two():
    # exact, built directly: row 2 holds the float 2.0 beside Fraction(2)
    rows = ((Fraction(0),) * 4, (Fraction(1), Fraction(1), Fraction(-1), Fraction(-1)),
            (Fraction(2), 2.0, Fraction(0), Fraction(-2)))
    return Process(rows, "exact"), Filtration.constant(Partition.singletons(4), 2)


@pytest.mark.parametrize("check", [
    lambda f, F: band_translation_identity(Band(-1, 1), f),
    lambda f, F: crossing_table(Band(-1, 1), f, 2),
    lambda f, F: upper_crossing(Band(-1, 1), f, 2, 1),
    lambda f, F: lower_crossing(Band(-1, 1), f, 2, 1),
    lambda f, F: is_adapted(f, F),
    lambda f, F: is_predictable(f, F),
    lambda f, F: classify(FiniteMeasureSpace.uniform(4), f, F),
], ids=["band_translation_identity", "crossing_table", "upper_crossing", "lower_crossing",
        "is_adapted", "is_predictable", "classify"])
def test_a_float_in_an_exact_process_raises_mode_error(check):
    # the band translation, the crossing times and adaptedness once compared
    # the float as a value and answered
    f, F = _float_in_row_two()
    with pytest.raises(ModeError):
        check(f, F)

