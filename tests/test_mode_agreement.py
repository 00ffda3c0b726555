"""Float results are the exact results rounded, on dyadic input.

With weights k/16 and values k/8 every float sum along a twin row is exact,
and each float division or root is correctly rounded from an exact value.
So every float result must be ``float()`` of the exact one, bit for bit, and
every verdict the same: one independent check of both modes' code paths.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from martkit import (
    INF,
    Band,
    FiniteMeasureSpace,
    MartingaleClass,
    Partition,
    Process,
    RandomVariable,
    check_maximal_inequality,
    check_upcrossing_estimate,
    classify,
    condexp,
    integral,
    natural_filtration,
    snorm,
    upcrossings_before,
)


@st.composite
def dyadic_instances(draw):
    n = draw(st.integers(1, 12))
    horizon = draw(st.integers(1, 4))
    eighths = st.integers(-16, 16)
    weights = draw(st.lists(st.integers(0, 16), min_size=n, max_size=n).filter(any))
    rows = draw(st.lists(st.lists(eighths, min_size=n, max_size=n), min_size=horizon + 1, max_size=horizon + 1))
    if draw(st.booleans()):  # nondecreasing paths: a submartingale, so the gated checks run
        rows = [list(row) for row in zip(*map(sorted, zip(*rows)))]
    return dict(
        weights=[Fraction(k, 16) for k in weights],
        rows=[[Fraction(k, 8) for k in row] for row in rows],
        g=[Fraction(k, 8) for k in draw(st.lists(eighths, min_size=n, max_size=n))],
        sub=Partition.of(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))),
        band=Band(Fraction(draw(eighths), 8), Fraction(draw(eighths), 8)),
        N=draw(st.integers(0, horizon)),
        level=Fraction(draw(st.integers(1, 16)), 8),
    )


def _results(mode: str, inst: dict) -> dict:
    space = FiniteMeasureSpace.from_weights(inst["weights"], mode)
    f = Process.from_values(inst["rows"], mode)
    g = RandomVariable.from_values(inst["g"], mode)
    F = natural_filtration(f)
    cls = classify(space, f, F)
    out = {
        "integral": integral(space, g),
        "snorm": tuple(snorm(space, g, p) for p in (1, 2, INF)),
        "condexp": condexp(space, g, inst["sub"]).values,
        "kind": cls.kind,
        "upcrossings_before": upcrossings_before(inst["band"], f, inst["N"]),
    }
    if cls.is_at_least(MartingaleClass.SUBMARTINGALE):
        rep = check_upcrossing_estimate(space, inst["band"], f, F, inst["N"], classification=cls)
        out["upcrossing_estimate"] = (rep.lhs, rep.rhs, rep.holds)
        rep = check_maximal_inequality(space, f, F, inst["N"], inst["level"], classification=cls)
        out["maximal_inequality"] = (rep.lhs, rep.rhs, rep.holds)
    return out


def _rounded(exact):
    """An exact result as the float result must read: every Fraction or
    RootValue as its float's bits, every count, verdict and class as it is."""
    if isinstance(exact, tuple):
        return tuple(map(_rounded, exact))
    if isinstance(exact, (bool, int, MartingaleClass)):
        return exact
    return float(exact).hex()


def _bits(result):
    if isinstance(result, tuple):
        return tuple(map(_bits, result))
    return result.hex() if type(result) is float else result


@given(dyadic_instances())
@example(dict(  # a > b and mu[U] = 0: the float left side reads -0.0
    weights=[Fraction(1, 16)], rows=[[Fraction(0)], [Fraction(0)]], g=[Fraction(0)],
    sub=Partition.of([0]), band=Band(Fraction(0), Fraction(-1, 8)), N=0, level=Fraction(1, 8),
))
@settings(max_examples=200, deadline=None)
def test_float_results_are_the_exact_results_rounded(inst):
    exact, floats = _results("exact", inst), _results("float", inst)
    assert floats.keys() == exact.keys()
    if "upcrossing_estimate" in floats:
        # differs by design in the sign of zero only: the float left side is
        # the IEEE product (b - a) * mu[U] (test_measure's left-to-right
        # oracle holds it there), -0.0 when a > b and mu[U] = 0, and the
        # exact 0 has no sign; adding +0.0 changes no other value's bits
        lhs, rhs, holds = floats["upcrossing_estimate"]
        floats["upcrossing_estimate"] = (lhs + 0.0, rhs, holds)
    for name in exact:
        assert _bits(floats[name]) == _rounded(exact[name]), name
