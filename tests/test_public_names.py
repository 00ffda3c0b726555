"""Every public name has a caller in the program, or a recorded reason.

A name of ``martkit.__all__`` counts as called when a module of the package
(its ``__init__`` aside) or of ``perfbench`` reads it, as a name or as an
attribute, outside its own definition.  Tests do not count: a public name
that only tests call is surface that nothing uses.  The attribute match is
by name alone, so it errs towards finding a caller.
"""

import ast
from pathlib import Path

import martkit

PROGRAM = [path for path in sorted(Path(martkit.__file__).parent.glob("*.py")) if path.name != "__init__.py"]
PROGRAM += sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))

# the public names with no caller in the program, each with its reason
KEPT = {
    "integral": "paper notion (mathlib's integral)",
    "set_integral": "paper notion (mathlib's setIntegral)",
    "is_predictable": "paper notion (the predictable part of Doob's decomposition)",
    "stochastic_integral": "paper notion (the discrete stochastic integral, the martingale transform)",
    "check_hitting_is_stopping_time": "paper notion (mathlib's hitting_isStoppingTime)",
    "hitting_unbounded": "paper notion (mathlib's hitting with no upper end)",
    "stopped_process": "paper notion (mathlib's stoppedProcess)",
    "stopping_min": "paper notion (mathlib's IsStoppingTime.min)",
    "stopping_max": "paper notion (mathlib's IsStoppingTime.max)",
    "upper_crossing": "paper notion (mathlib's upperCrossingTime)",
    "lower_crossing": "paper notion (mathlib's lowerCrossingTime)",
    "upcrossings": "paper notion (mathlib's upcrossings)",
    "condexp_properties": "op pending (ROADMAP item 4)",
    "fatou_norm_check": "op pending (ROADMAP item 4)",
    "check_l1_convergence_a": "op pending (ROADMAP item 4)",
    "probabilist_curve": "op pending (ROADMAP item 4): the UI curve of l1_convergence_a",
    "borel_cantelli_martingale": "op pending (ROADMAP item 4)",
    "event_sequence_from_counts": "test fixture",
}


def _read_names() -> set:
    """Every name the program reads outside the definition it names."""
    reads = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in owners:
                reads.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    for path in PROGRAM:
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return reads


def test_every_public_name_has_a_caller_or_a_reason():
    # dunders such as __version__ are metadata, not entry points
    uncalled = {name for name in martkit.__all__ if not name.startswith("__")} - _read_names()
    assert sorted(uncalled - KEPT.keys()) == [], "public names with no caller: call, delete or keep them in KEPT"
    assert sorted(KEPT.keys() - uncalled) == [], "KEPT names that gained a caller or left __all__"
    assert all(reason for reason in KEPT.values())
