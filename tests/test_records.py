"""The frozen-record contract, checked on one instance of every record class.

Each record must behave as the frozen dataclass with the same fields would:
equal to a rebuilt copy and to nothing of another class, hashed as the tuple
of its fields, printed as `Name(field=value, ...)`, closed to assignment and
deletion, and unchanged by a pickle round trip (`verify --jobs` pickles
data and budgets).  Its constructor takes and refuses what the dataclass
with the record's `_defaults` takes and refuses.  The dataclass made here is
the reference.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from aqci import (
    EnumerationBudget,
    HilbertSamuelTable,
    InvariantSummary,
    LpCertificate,
    Member,
    MonomialIdeal,
    MultiplicityResult,
    OracleBudget,
    SpecialDatum,
    TraceStep,
    ValidationReport,
    VerificationReport,
    Violation,
    hilbert_samuel_table,
    monomial_ideal,
    multiplicity,
    newton_contains,
    summarize,
    validate,
)
from aqci._record import Record
from aqci.datum import MemberForest, member_forest
from aqci.lp import LpSolution, solve_min

from helpers import star, two_stars

D = two_stars(2, 3)
BAD = SpecialDatum(2, (Member((1, 2), 2), Member((1,), 2), Member((2,), 2)))

RECORDS = [
    (Member((2, 1), 3), ("elements", "weight")),
    (D, ("n", "members")),
    (validate(BAD).violations[0], ("kind", "message", "members")),
    (validate(BAD), ("violations",)),
    (member_forest(D), ("roots", "kids", "node")),
    (monomial_ideal(D), ("n", "generators")),
    (OracleBudget(6, 10_000), ("k_max", "point_ceiling")),
    (TraceStep("reduce-equality", (1, 2)), ("rule", "member")),
    (multiplicity(D), ("status", "value", "lower", "upper", "trace")),
    (
        hilbert_samuel_table(star(2, 2), OracleBudget(6)),
        ("n", "values", "stabilized", "e", "points", "aborted"),
    ),
    (EnumerationBudget(4, 3), ("n_max", "max_ratio")),
    (
        summarize(D),
        (
            "n", "emb", "child_counts", "branching_product", "floor_factors",
            "child_weight_factors", "group_order", "group_order_lattice", "lct", "ceil_lct",
        ),
    ),
    (newton_contains(monomial_ideal(star(2, 2)), (2, 2))[1], ("coefficients",)),
    (solve_min([(1,)], [-1], [2]), ("status", "value", "x", "d")),
    (VerificationReport({"all_passed": True}, ({"id": "x"},)), ("summary", "records")),
]
CLASSES = [
    Member, SpecialDatum, Violation, ValidationReport, MemberForest, MonomialIdeal,
    OracleBudget, TraceStep, MultiplicityResult, HilbertSamuelTable, EnumerationBudget,
    InvariantSummary, LpCertificate, LpSolution, VerificationReport,
]


def _hash_or_type_error(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


def test_every_record_class_is_checked():
    assert [type(r) for r, _ in RECORDS] == CLASSES


@pytest.mark.parametrize(
    "record, fields", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS]
)
def test_record_behaves_as_the_frozen_dataclass(record, fields):
    values = tuple(getattr(record, f) for f in fields)
    reference = dataclasses.make_dataclass(type(record).__qualname__, fields, frozen=True)(*values)

    rebuilt = type(record)(*values)
    assert rebuilt == record and not rebuilt != record
    assert type(record)(**dict(zip(fields, values))) == record
    assert _hash_or_type_error(record) == _hash_or_type_error(values)
    assert _hash_or_type_error(record) == _hash_or_type_error(reference)
    if type(record) is SpecialDatum:
        assert hash(rebuilt) == hash(record)  # the kept hash is the same hash

    # A record of another class with the same field values, as
    # OracleBudget(4, 3) is to EnumerationBudget(4, 3).
    twin = object.__new__(type("Twin", (Record,), {"__slots__": fields}))
    for f, v in zip(fields, values):
        object.__setattr__(twin, f, v)
    assert record != twin and twin != record
    assert record != values and record != reference

    for name in (fields[0], fields[-1], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, f) for f in fields) == values

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is type(record) and copy == record

    assert repr(record) == repr(reference)
    assert repr(record).startswith(type(record).__name__ + "(" + fields[0] + "=")


def _reference_with_defaults(record, fields):
    """The frozen dataclass with the record's fields and `_defaults`."""
    defaults = type(record)._defaults
    specs = [
        (f, object, dataclasses.field(default=defaults[f])) if f in defaults else f
        for f in fields
    ]
    return dataclasses.make_dataclass(type(record).__qualname__, specs, frozen=True)


@pytest.mark.parametrize(
    "record, fields", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS]
)
def test_record_constructor_refuses_what_the_dataclass_refuses(record, fields):
    values = tuple(getattr(record, f) for f in fields)
    by_name = dict(zip(fields, values))
    reference = _reference_with_defaults(record, fields)
    assert set(type(record)._defaults) <= set(fields)
    calls = [
        (values + (None,), {}),  # one value too many
        (values, {"extra": None}),  # an unknown keyword
        (values[:1], by_name),  # the first field by position and by keyword
    ]
    # Each field without a default, left out.
    calls += [
        ((), {f: v for f, v in by_name.items() if f != name})
        for name in fields
        if name not in type(record)._defaults
    ]
    for args, kwargs in calls:
        for cls in (type(record), reference):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


@pytest.mark.parametrize(
    "short, full",
    [
        (lambda: OracleBudget(), OracleBudget(12, 5_000_000)),
        (lambda: OracleBudget(point_ceiling=5_000_000), OracleBudget(12, 5_000_000)),
        (lambda: EnumerationBudget(4), EnumerationBudget(4, 3)),
        (lambda: EnumerationBudget(max_ratio=3, n_max=4), EnumerationBudget(4, 3)),
        (lambda: TraceStep("r"), TraceStep("r", None)),
        (lambda: Violation("k", "m"), Violation("k", "m", ())),
        (lambda: Violation(message="m", kind="k"), Violation("k", "m", ())),
    ],
)
def test_defaults_fill_the_spelled_out_form(short, full):
    record = short()
    assert record == full and repr(record) == repr(full)
    fields = type(full)._fields
    reference = _reference_with_defaults(full, fields)
    assert repr(record) == repr(reference(*(getattr(full, f) for f in fields)))
