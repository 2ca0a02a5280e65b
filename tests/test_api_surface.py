"""What the package exposes: every layer function that the benchmark's
tracer wraps (read from its TARGETS list) still resolves, every name in
`__all__` imports, the test-only references stay out of the package, and
no package module imports from the tests."""

import ast
import importlib
import pathlib

import pytest

import extremalcurves

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE_DIR = pathlib.Path(extremalcurves.__file__).parent

# (module, attribute path) of each name that moved to tests/reference.py,
# or was deleted when its job went to one shared helper
GONE = [
    ("ideals", "change_coordinates"),
    ("modules", "ResolutionData.mats"),
    ("oracle", "graded_piece_basis"),
    ("oracle", "GradedPieceMatrix"),
    ("monomials", "hochster_betti_oracle"),
    ("monomials", "_reduced_homology_dims"),
    ("monomials", "MonomialIdeal.join"),
    ("ring", "compare_revlex"),
    ("ring", "_mul_packed"),
    ("groebner", "_strip_content"),
    ("cohomology", "FiniteLengthModule.multiplication_commutes"),
    ("cohomology", "_mat_mul"),
    ("cohomology", "_transpose"),
]


def _tracer_targets():
    """The TARGETS list of perfbench/spans.py, read without running it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS list in perfbench/spans.py")


def _resolve(module, path):
    owner = importlib.import_module(f"extremalcurves.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


TARGETS = _tracer_targets()


@pytest.mark.parametrize("name,module,path", TARGETS, ids=[t[0] for t in TARGETS])
def test_tracer_targets_resolve(name, module, path):
    assert callable(_resolve(module, path)), name


def test_all_names_import():
    for name in extremalcurves.__all__:
        assert getattr(extremalcurves, name) is not None, name


@pytest.mark.parametrize("module,path", GONE, ids=[f"{m}.{p}" for m, p in GONE])
def test_test_only_names_are_gone_from_the_package(module, path):
    leaf = path.split(".")[-1]
    assert leaf not in extremalcurves.__all__
    assert not hasattr(extremalcurves, leaf)
    with pytest.raises(AttributeError):
        _resolve(module, path)


def test_no_package_module_imports_from_the_tests():
    for source in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("reference", "tests"), (source.name, name)
