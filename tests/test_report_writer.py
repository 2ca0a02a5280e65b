"""The report writer, `report.format_json`, against `json.dumps(doc,
indent=2)` plus a newline: on drawn documents (nested dicts, lists and
tuples; keys and strings with quotes, backslashes, control characters and
non-ASCII text; big negative ints; bools; None), on every report of the
benchmark's `catalog_analyze` items for seeds 11 and 12, and on a sweep
grid.  A float value or a key that is not a str raises TypeError.  CI runs
this module under two string-hash seeds."""

import enum
import json
import pathlib
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import extremalcurves  # noqa: E402
from extremalcurves import cli  # noqa: E402
from extremalcurves.ideals import Ideal  # noqa: E402
from extremalcurves.report import format_json  # noqa: E402

SETTINGS = settings(max_examples=300, derandomize=True, deadline=None, database=None)
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def stdlib(doc):
    return json.dumps(doc, indent=2) + "\n"


# quotes, backslashes, every control character, Latin-1, CJK and astral text
TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x7f'),
        st.characters(max_codepoint=0x1F),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=8,
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(max_value=-(10**40)),
    TEXT,
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=40,
)


@SETTINGS
@given(DOCUMENTS)
def test_drawn_documents_are_written_as_the_stdlib_writes_them(doc):
    assert format_json(doc) == stdlib(doc)


class Level(enum.IntEnum):
    LOW = 1


class Tag(str):
    pass


def test_subclasses_of_int_and_str_are_written_as_their_bases():
    doc = {Tag("key"): [Level.LOW, Tag('a"b'), {"deep": (Level.LOW, [])}], "empty": {}}
    assert format_json(doc) == stdlib(doc)


@pytest.mark.parametrize(
    "doc",
    [1.5, {"h1": [0, 1.0]}, {1: "int key"}, {"ok": {None: 0}}, [{"a": object()}], {"s": {1, 2}}],
    ids=["float", "nested float", "int key", "None key", "object", "set"],
)
def test_other_types_and_keys_raise_type_error(doc):
    with pytest.raises(TypeError):
        format_json(doc)


def catalog_items(seed):
    """The `catalog_analyze` items of the benchmark's workload for a seed."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    prefix = "extremalcurves."
    pkg = {name[len(prefix):]: mod for name, mod in sys.modules.items() if name.startswith(prefix)}
    return workloads.CatalogAnalyze(pkg, seed, None).items


@pytest.mark.parametrize("seed", [11, 12])
def test_every_catalog_report_is_written_as_the_stdlib_writes_it(seed):
    items = catalog_items(seed)
    assert len(items) == 40
    for item in items:
        report = extremalcurves.verify_extremal(Ideal(item["ring"], item["gens"]), seed=item["seed"])
        assert report.to_json() == stdlib(report.document), item["label"]


def test_the_sweep_grid_is_written_as_the_stdlib_writes_it(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert cli.main(["sweep", "--n", "3:3", "--d", "2:4", "--a", "0:1", "--seed", "3", "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == stdlib(json.loads(text))
