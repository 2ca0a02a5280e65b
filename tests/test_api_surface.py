"""What the package exposes: every layer function that the benchmark's
tracer wraps (read from its TARGETS list) still resolves, every name in
`__all__` imports, the test-only references stay out of the package, no
package module imports from the tests, only `packing` knows the
packed-monomial format, the Gröbner driver is the one caller of the pair
completion, each key layout has one owner module, `report` alone lays
out and versions the report's document, importing the CLI loads
neither `dataclasses` nor `json`, and `cli.run` is the one process
entry."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import extremalcurves

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE_DIR = pathlib.Path(extremalcurves.__file__).parent

# (module, attribute path) of each name that moved to tests/reference.py,
# or was deleted when its job went to one shared helper or to a field that
# callers read directly
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
    ("groebner", "GroebnerBasis.reduce"),
    ("groebner", "GroebnerBasis.contains"),
    ("ideals", "Ideal.contains"),
    ("monomials", "BettiTable.max_index"),
    ("monomials", "BettiTable.alternating_numerator"),
    ("monomials", "MonomialIdeal.quotient_dims"),
    ("monomials", "MonomialIdeal.ideal_dim"),
    ("ring", "PolyRing.from_scalar"),
    ("modules", "ResolutionData.level"),
    ("modules", "ResolutionData.cols"),
    ("modules", "ResolutionData.verify"),
    ("modules", "_scaled"),
    ("modules", "_times"),
    ("groebner", "_EnginePoly.scale"),
    ("idealfile", "_tokenize"),
    ("ring", "_binom"),
    ("ideals", "random_invertible_matrix"),
    ("construct", "binary_coeff_vector"),
    ("monomials", "_pack"),
    ("oracle", "_check_degree"),
    ("packing", "make_packer"),
    ("packing", "make_unpacker"),
    ("packing", "high_mask"),
    ("packing", "lcm"),
    ("packing", "degree"),
    ("packing", "_masks"),
    ("monomials", "BettiTable.generator_degrees"),
    ("ring", "Polynomial.coefficient"),
    ("ring", "PolyRing.monomial"),
    ("report", "CurveReport.to_json_dict"),
    ("cohomology", "FiniteLengthModule.dim"),
    ("monomials", "BettiTable.regularity"),
    ("ideals", "divide_exact"),
    ("ring", "mono_div"),
    ("ring", "mono_divides"),
    ("modules", "_Quotient"),
    ("modules", "PresentedModule.lead_ideals"),
    ("monomials", "MonomialIdeal.is_artinian"),
    ("ring", "Polynomial.lead_monomial"),
    ("ring", "Polynomial.lead_coeff"),
    ("ring", "Polynomial.mono_shift"),
    ("groebner", "GroebnerBasis.polys"),
    ("groebner", "GroebnerBasis.__iter__"),
    ("groebner", "GroebnerBasis.__len__"),
    ("modules", "_pot_element"),
    ("modules", "_pot_vector"),
    ("modules", "_minimalize"),
    ("modules", "_dual_rows"),
    ("modules", "_packed_columns"),
    ("modules", "module_kernel"),
    ("ideals", "module_kernel"),
    ("modules", "PresentedModule.reduce"),
    *[
        ("ring", f"{cls}.{name}")
        for cls in ("RationalField", "PrimeField")
        for name in ("zero", "one", "add", "mul", "neg", "div")
    ],
    ("cohomology", "DualCohomology.h2_parts"),
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


def _codec_uses(tree):
    """The places in a module's syntax tree that know the packed format:
    a read or an import of the slot width or the limit, a raise of the
    limit's error, and a byte conversion or a byte mask."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in ("SLOT", "MAXEXP"):
            yield node.id
        elif isinstance(node, ast.Attribute) and node.attr in ("SLOT", "MAXEXP"):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names if a.name in ("SLOT", "MAXEXP"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("ExponentLimitError", "to_bytes", "from_bytes"):
                yield name + "()"
        elif isinstance(node, ast.Constant) and isinstance(node.value, bytes):
            yield repr(node.value)


def test_only_packing_knows_the_packed_format():
    found = {
        source.name: sorted(set(_codec_uses(ast.parse(source.read_text(encoding="utf-8")))))
        for source in sorted(PACKAGE_DIR.glob("*.py"))
    }
    assert {"SLOT", "MAXEXP", "ExponentLimitError()", "to_bytes()"} <= set(found.pop("packing.py"))
    assert {name: uses for name, uses in found.items() if uses} == {}


def _callers(tree, name):
    """The dotted name of the function around each call of a function or
    method called name, or "<module>" for a call outside every function."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and name in (getattr(child.func, "attr", None), getattr(child.func, "id", None)):
                yield ".".join(scope) or "<module>"
            yield from walk(child, scope)

    return walk(tree, [])


def _package_trees():
    return {source.name: ast.parse(source.read_text(encoding="utf-8")) for source in sorted(PACKAGE_DIR.glob("*.py"))}


def test_the_driver_is_the_one_caller_of_complete():
    # every Gröbner run, ideals, capped leads, presented modules and graph
    # bases alike, goes up the degrees through `_Engine.build`
    found = [(name, caller) for name, tree in _package_trees().items() for caller in _callers(tree, "complete")]
    assert found == [("groebner.py", "_Engine.build"), ("groebner.py", "_Engine.build")]


def _init_params(tree, cls):
    """The parameter names of cls.__init__ in tree, which takes no *args,
    **kwargs or keyword-only parameters."""
    (init,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == cls
        for node in node.body if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    args = init.args
    assert not (args.vararg or args.kwarg or args.kwonlyargs)
    return [a.arg for a in args.posonlyargs + args.args]


def test_each_key_layout_has_one_owner():
    # the engine's position-over-term keys belong to groebner.py, which
    # alone shifts by comp_shift; the Schreyer frame's rank bits belong to
    # modules.py, which builds an engine only for a presented module
    trees = _package_trees()
    assert _init_params(trees["groebner.py"], "_Engine") == ["self", "ring"]
    gone = {"rank_bits", "slot_shift", "slot_mask", "_pot_element", "_pot_vector"}
    readers = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            # names, attributes, parameters, keywords, definitions, imports
            idents = {getattr(node, field, None) for field in ("id", "attr", "arg", "name")}
            assert not idents & gone, (name, idents & gone)
            if isinstance(node, ast.Attribute) and node.attr == "comp_shift":
                readers.add(name)
    assert readers == {"groebner.py"}
    assert set(_callers(trees["modules.py"], "_Engine")) == {"PresentedModule.__init__"}


def test_the_engine_alone_makes_integers_of_the_dual_rows():
    # the dual rows are in the field and a graph element is (col_t, e_t):
    # the engine takes each to its integer line, and no second scaling
    # convention (a multiplier per row or per graph unit) rides beside it
    trees = _package_trees()
    assert _init_params(trees["modules.py"], "GraphBasis") == ["self", "cols", "free_twists", "ring"]
    for name, tree in trees.items():
        for node in ast.walk(tree):
            idents = {getattr(node, field, None) for field in ("id", "attr", "arg", "name")}
            assert not any("multiplier" in i for i in idents if isinstance(i, str)), name


# the top-level keys of a curve report's document, in its stable order
DOCUMENT_KEYS = (
    "schema", "spec", "seeds", "hilbert", "h1", "h2", "gin", "betti", "rao",
    "hyperplane_section", "planar_subcurve", "verdict", "warnings",
)


def _dict_literals(tree):
    """(string keys, node) of each dict literal in a syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = tuple(k.value for k in node.keys if isinstance(k, ast.Constant) and isinstance(k.value, str))
            yield keys, node


def test_the_report_document_has_one_owner():
    # report.py alone lays out the document, once and in its key order: no
    # other module builds a dict literal with two of its top-level keys
    trees = _package_trees()
    layouts = {
        name: [keys for keys, _ in _dict_literals(tree) if len(set(keys) & set(DOCUMENT_KEYS)) > 1]
        for name, tree in trees.items()
    }
    assert layouts.pop("report.py") == [DOCUMENT_KEYS]
    assert {name: found for name, found in layouts.items() if found} == {}
    # the schema version is read as the "schema" of two documents, the
    # report's in report.py and the sweep's in cli.py, and nowhere else
    reads, imports = {}, set()
    for name, tree in trees.items():
        schema_of = {
            id(value): keys
            for keys, node in _dict_literals(tree)
            for key, value in zip(node.keys, node.values)
            if isinstance(key, ast.Constant) and key.value == "schema"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(a.name == "SCHEMA_VERSION" for a in node.names):
                imports.add(name)
            elif (
                isinstance(node, ast.Name) and node.id == "SCHEMA_VERSION" and isinstance(node.ctx, ast.Load)
            ) or (isinstance(node, ast.Attribute) and node.attr == "SCHEMA_VERSION"):
                reads.setdefault(name, []).append(schema_of.get(id(node)))
    assert imports == {"cli.py"}
    assert reads == {"report.py": [DOCUMENT_KEYS], "cli.py": [("schema", "seed", "grid", "reports")]}


def _imports(tree):
    """(module name, imported inside a function) for each import statement."""
    nested = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested.update(id(n) for n in ast.walk(node) if n is not node)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.name, id(node) in nested) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, id(node) in nested


def test_no_dataclasses_and_json_only_inside_functions():
    offenders, json_inside = [], set()
    for source in sorted(PACKAGE_DIR.glob("*.py")):
        for name, nested in _imports(ast.parse(source.read_text(encoding="utf-8"))):
            root = name.split(".")[0]
            if root == "dataclasses" or (root == "json" and not nested):
                offenders.append((source.name, name))
            elif root == "json":
                json_inside.add(source.name)
    assert offenders == []
    assert {"cli.py", "report.py"} <= json_inside  # the scan sees the lazy imports


def test_cli_import_loads_neither_dataclasses_nor_json():
    # -S: no site hook of the environment can preload or mask a module
    probe = (
        "import sys, extremalcurves.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'json'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_run_is_the_one_process_entry():
    # the console script and `python -m extremalcurves.cli` both go through
    # `run`, which freezes the heap; `main` stays the in-process entry
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    assert scripts and scripts.group(1).split() == ["extremalcurves", "=", '"extremalcurves.cli:run"']
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    [block] = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [ast.unparse(stmt) for stmt in block.body] == ["run()"]
