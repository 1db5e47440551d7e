"""The reference scans in tests/oracles.py stay out of the package."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hoval"

# members of package classes that only tests read, now plain functions in
# oracles.py (all_lines, in_span, tower_vec, tower_unvec, to_subfield,
# hinf2, replace, subspace_points) or gone
MOVED_MEMBERS = {
    "ProjSpace.lines", "ProjSpace.contains",
    "Tower.vec", "Tower.unvec", "Tower.frob", "Tower.to_subfield", "Tower._unembed",
    "SpectrumHistogram.count",
    "CorrespondenceMaps.pi2", "CorrespondenceMaps.hinf2",
    "Record.replace",
    "HyperovalSpec.is_strict_case", "F2Witness.k_points",
    "Spread.reduced", "Spread.sources", "CyclicSymmetry.dirs",
    "ProjSpace.subspace_points",
    "SecantStructure.count", "SecantStructure.d_on", "SecantStructure.zero_points",
    "BruckBosePlane.rows", "BruckBosePlane.mask",
    "SemilinearFit.labeling", "SemilinearFit.fits", "SemilinearFit.walk",
    "SpreadResult.walk", "SpreadResult.exponent",
}


def _members(cls):
    """Class.name for each method, field and slot a class body binds."""
    names = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name) and t.id == "__slots__":
                    names.update(c.value for c in ast.walk(node.value)
                                 if isinstance(c, ast.Constant))
                elif isinstance(t, ast.Name):
                    names.add(t.id)
    return {f"{cls.name}.{n}" for n in names}


def _defined(path):
    """Names a module binds at its top level by def, class or assignment,
    plus Class.name for the members of its top-level classes."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        if isinstance(node, ast.ClassDef):
            names |= _members(node)
    return names


def test_no_oracle_is_defined_in_the_package():
    oracles = _defined(TESTS / "oracles.py")
    assert {"planes_by_reduce", "histogram_by_scan", "mat_inv", "tower_columns",
            "detect_pseudoregulus", "PseudoregulusReport", "save",
            "meets_by_scan", "fit_by_both_labelings"} <= oracles
    shared = [f"{path.name}: {name}"
              for path in sorted(SRC.glob("*.py"))
              for name in sorted(_defined(path) & oracles)]
    assert not shared


def test_no_moved_member_is_back_in_the_package():
    package = set().union(*(_defined(path) for path in SRC.glob("*.py")))
    # the scan sees methods, record fields and slots
    assert {"ProjSpace.rref", "Tower.vec_packed", "CorrespondenceMaps.hinf",
            "SpectrumHistogram.counts", "Field.frob"} <= package
    assert not sorted(MOVED_MEMBERS & package)
