"""Value semantics of the package's eleven record classes: the constructor
(positional and keyword), field-wise equality that refuses other classes,
a field-tuple hash and read-only fields on the seven frozen records, no
hash on the four mutable ones, the input checks, and the exact repr; and
that all of it comes from the two shared bases in `ring`, not from copies
in each class."""

import itertools
import pickle

import pytest

from extremalcurves.cohomology import FiniteLengthModule, HilbertTable
from extremalcurves.construct import ConstructionInput, NonExtremalWitness
from extremalcurves.formulas import BoundProfile, CurveSpec, max_genus
from extremalcurves.gin import GinResult
from extremalcurves.ideals import Ideal
from extremalcurves.monomials import MonomialIdeal
from extremalcurves.report import CurveReport
from extremalcurves.ring import QQ, FrozenRecord, PolyRing, PrimeField, RationalField, Record

R = PolyRing(4)
X = R.gens()
INPUT = ConstructionInput(n=3, d=4, a=0, f_list=(X[0] + X[1],), f=R.zero)
INPUT_REPR = "ConstructionInput(n=3, d=4, a=0, f_list=(Polynomial(x0 + x1),), f=Polynomial(0))"

# (class, fields in declaration order, repr of the record with those fields)
FROZEN = [
    (RationalField, {}, "QQ"),
    (PrimeField, {"p": 5}, "GF(5)"),
    (PolyRing, {"nvars": 3, "field": QQ}, "PolyRing(nvars=3, field=QQ)"),
    (CurveSpec, {"n": 3, "d": 4, "g": 0}, "CurveSpec(n=3, d=4, g=0)"),
    (
        BoundProfile,
        {"n": 3, "d": 4, "g": 0, "window": (0, 1), "h1": (1, 0), "h2": (0, None)},
        "BoundProfile(n=3, d=4, g=0, window=(0, 1), h1=(1, 0), h2=(0, None))",
    ),
    (
        HilbertTable,
        {"window": (0, 2), "dims": (1, 4, 8), "degree": 4, "genus": 0, "regularity": 2},
        "HilbertTable(window=(0, 2), dims=(1, 4, 8), degree=4, genus=0, regularity=2)",
    ),
    (
        ConstructionInput,
        {"n": 3, "d": 4, "a": 0, "f_list": (X[0] + X[1],), "f": R.zero},
        INPUT_REPR,
    ),
]
MUTABLE = [
    (
        FiniteLengthModule,
        {
            "dims": {1: 1, 2: 1},
            "mult": {(0, 1): [{0: 1}]},
            "generator_count": 1,
            "generator_degrees": [1],
            "annihilator_degrees": None,
        },
        "FiniteLengthModule(dims={1: 1, 2: 1}, mult={(0, 1): [{0: 1}]}, generator_count=1, "
        "generator_degrees=[1], annihilator_degrees=None)",
    ),
    (
        NonExtremalWitness,
        {"ideal": Ideal(R, [X[2], X[3]]), "input": INPUT},
        f"NonExtremalWitness(ideal=Ideal(2 generators in 4 variables), input={INPUT_REPR})",
    ),
    (
        GinResult,
        {"ideal": MonomialIdeal(3, [(1, 0, 0)]), "seeds": (1, 2), "entry_bound": 50},
        "GinResult(ideal=MonomialIdeal(x0), seeds=(1, 2), entry_bound=50)",
    ),
    (
        CurveReport,
        {"document": {"verdict": "extremal"}},
        "CurveReport(document={'verdict': 'extremal'})",
    ),
]
RECORDS = FROZEN + MUTABLE
FROZEN_CLASSES = {cls for cls, _, _ in FROZEN}


def _ids(records):
    return [cls.__name__ for cls, _, _ in records]


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=_ids(RECORDS))
def test_equal_fields_give_equal_records(cls, fields, text):
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert by_keyword == by_position and not by_keyword != by_position
    assert by_keyword is not by_position
    if cls in FROZEN_CLASSES:
        assert hash(by_keyword) == hash(by_position) == hash(tuple(fields.values()))


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=_ids(RECORDS))
def test_repr_is_pinned(cls, fields, text):
    assert repr(cls(**fields)) == text


def test_a_field_apart_is_unequal():
    assert PolyRing(3) != PolyRing(3, PrimeField(5))
    assert PolyRing(3) != PolyRing(4)
    assert PrimeField(5) != PrimeField(7)
    assert CurveSpec(3, 4, 0) != CurveSpec(3, 4, -1)
    assert CurveReport({"verdict": "extremal"}) != CurveReport({"verdict": "not extremal"})


def test_records_of_different_classes_never_compare_equal():
    samples = [cls(**fields) for cls, fields, _ in RECORDS]
    for a, b in itertools.permutations(samples, 2):
        assert a.__eq__(b) is NotImplemented
        assert a != b and not a == b
    # the same fields in another class are still a different value
    assert CurveSpec(3, 4, 0).__eq__((3, 4, 0)) is NotImplemented
    assert HilbertTable((0, 0), (1,), 1, 0, 0) != ((0, 0), (1,), 1, 0, 0)


@pytest.mark.parametrize("cls,fields,text", FROZEN, ids=_ids(FROZEN))
def test_frozen_fields_are_read_only(cls, fields, text):
    record = cls(**fields)
    for name, value in {**fields, "extra": 1}.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**fields)


@pytest.mark.parametrize(
    "record", [QQ, PrimeField(5), PolyRing(3, PrimeField(7)), CurveSpec(3, 4, 0),
               HilbertTable((0, 1), (1, 4), 1, 0, 1)],
    ids=repr,
)
def test_frozen_records_survive_pickle(record):
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and hash(copy) == hash(record)


@pytest.mark.parametrize("cls,fields,text", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_records_are_unhashable(cls, fields, text):
    record = cls(**fields)
    assert cls.__hash__ is None
    with pytest.raises(TypeError):
        hash(record)
    name, value = next(iter(fields.items()))
    setattr(record, name, value)
    assert record == cls(**fields)


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=_ids(RECORDS))
def test_value_methods_come_from_the_shared_bases(cls, fields, text):
    own = {"__eq__", "__hash__", "__setattr__", "__delattr__"} & set(vars(cls))
    assert not own, own
    assert ("__repr__" in vars(cls)) == (cls in (RationalField, PrimeField))
    assert cls.__bases__ == ((FrozenRecord,) if cls in FROZEN_CLASSES else (Record,))
    assert cls._fields == tuple(fields)


def test_input_checks():
    for q in (1, 2, 9, 15):
        with pytest.raises(ValueError, match=f"need an odd prime, got {q}"):
            PrimeField(q)
    top = max_genus(3, 5)
    assert CurveSpec(3, 5, top).a == 0
    with pytest.raises(ValueError, match=f"genus {top + 1} exceeds the bound {top}"):
        CurveSpec(3, 5, top + 1)
    with pytest.raises(ValueError, match=f"genus {top + 1} exceeds the bound {top}"):
        CurveSpec(n=3, d=5, g=top + 1)


def test_constructor_signatures():
    assert PolyRing(3).field is QQ
    assert PolyRing(nvars=3, field=PrimeField(5)).modulus == 5
    with pytest.raises(TypeError):
        PolyRing()
    with pytest.raises(TypeError):
        CurveSpec(3, 4)
    with pytest.raises(TypeError):
        RationalField(0)
    with pytest.raises(TypeError):
        CurveReport({}, {})
