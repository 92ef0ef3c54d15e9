"""The value records: plain frozen classes that compare, hash and print by
their fields, refuse assignment, and pickle by being built again."""

import pickle

import pytest

from permutiple import (
    BracketViews,
    ClassificationFlags,
    ConjectureReport,
    ContinuedFraction,
    Permutation,
    SearchConfig,
    Witness,
)
from permutiple.cli import main
from permutiple.constructors import PerfectParameters
from permutiple.surd import QuadraticSurd, SurdProbeReport

CF = ContinuedFraction
P = Permutation

# (class, its fields by name, the repr the record has always printed)
FROZEN = [
    (ContinuedFraction, {"digits": (1, 2)}, "ContinuedFraction(digits=(1, 2))"),
    (Permutation, {"images": (1, 0)}, "Permutation(images=(1, 0))"),
    (
        ClassificationFlags,
        {
            "continuant_preserving": True,
            "perfect": False,
            "symmetric": False,
            "landess": True,
            "reverse_multiple": False,
        },
        "ClassificationFlags(continuant_preserving=True, perfect=False, symmetric=False,"
        " landess=True, reverse_multiple=False)",
    ),
    (
        Witness,
        {"cf": CF((7, 1, 3)), "sigma": P((2, 1, 0)), "k": 2},
        "Witness(cf=ContinuedFraction(digits=(7, 1, 3)), sigma=Permutation(images=(2, 1, 0)), k=2)",
    ),
    (
        BracketViews,
        {"full": 57, "drop_first": 20, "drop_last": 37, "drop_both": 13},
        "BracketViews(full=57, drop_first=20, drop_last=37, drop_both=13)",
    ),
    (
        SearchConfig,
        {
            "length": (2, 3),
            "max_digit": 8,
            "k_min": None,
            "k_max": None,
            "canonical_only": True,
            "workers": 1,
            "dedupe": True,
        },
        "SearchConfig(length=(2, 3), max_digit=8, k_min=None, k_max=None,"
        " canonical_only=True, workers=1, dedupe=True)",
    ),
    (
        ConjectureReport,
        {
            "conjecture": "c2",
            "bounds": "length 3, digits <= 4",
            "examined": 0,
            "counterexamples": (),
            "wall_time": 0.0,
        },
        "ConjectureReport(conjecture='c2', bounds='length 3, digits <= 4', examined=0,"
        " counterexamples=(), wall_time=0.0)",
    ),
    (
        PerfectParameters,
        {"sigma": P((1, 0)), "k": 2, "orbit_params": (3,)},
        "PerfectParameters(sigma=Permutation(images=(1, 0)), k=2, orbit_params=(3,))",
    ),
    (QuadraticSurd, {"a": 1, "b": 3, "c": 1}, "QuadraticSurd(a=1, b=3, c=1)"),
    (
        SurdProbeReport,
        {"k": 2, "digits": (2, 1), "scaled_digits": (1, 2), "fails_at": None},
        "SurdProbeReport(k=2, digits=(2, 1), scaled_digits=(1, 2), fails_at=None)",
    ),
]
IDS = [cls.__name__ for cls, _, _ in FROZEN]


@pytest.mark.parametrize("cls, fields, text", FROZEN, ids=IDS)
def test_a_record_is_its_field_values(cls, fields, text):
    values = tuple(fields.values())
    record = cls(**fields)
    assert tuple(getattr(record, name) for name in fields) == values
    assert record == cls(*values) and not record != cls(*values)
    assert hash(record) == hash(values)
    assert record != values and record.__eq__(values) is NotImplemented
    assert len({record, cls(*values)}) == 1
    assert repr(record) == text


@pytest.mark.parametrize("cls, fields, text", FROZEN, ids=IDS)
def test_a_record_refuses_assignment_and_deletion(cls, fields, text):
    record = cls(**fields)
    for name in [*fields, "new_name"]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert record == cls(**fields)


@pytest.mark.parametrize(
    "record",
    [
        SearchConfig(length=(2, 4), max_digit=8, k_min=3, workers=2, dedupe=False),
        Witness(CF((7, 1, 3)), P((2, 1, 0))),
    ],
    ids=["SearchConfig", "Witness"],
)
def test_a_record_pickles_by_being_built_again(record):
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and copy is not record and repr(copy) == repr(record)
    if isinstance(record, Witness):
        assert copy.flags == record.flags and copy.text == record.text


def test_a_forked_scan_prints_the_bytes_of_one_process(capsys):
    # each worker receives its SearchConfig pickled
    printed = []
    for jobs in ("1", "2"):
        assert main(["search", "--len", "4", "--max-digit", "8", "--jobs", jobs]) == 0
        printed.append(capsys.readouterr())
    assert printed[1] == printed[0] and printed[0].out.count("\n") > 0
