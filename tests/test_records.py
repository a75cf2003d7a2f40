"""Record behaviour: frozen fields, equality by value within one type only,
and a chart value that keys the bundle cache."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from kcert.certify import LemmaReport, PositivityCertificate
from kcert.delpezzo import K2_CHART, AreaVector, CohClass, ConeChart, c1_class
from kcert.exprparse import ComparisonVerdict, FixtureFile
from kcert.functional import build_bundle, restrict_diagonal
from kcert.poly import MultiPoly, RatFunc, _Frozen
from kcert.polytope import build_polygon

# each frozen record type: how to make one, and one of its fields
FROZEN = {
    "CohClass": (lambda: c1_class(3), "h"),
    "AreaVector": (lambda: AreaVector.from_abcd(1, 1, 1, 1), "a_e3"),
    "ConeChart": (lambda: K2_CHART, "variables"),
    "MultiPoly": (lambda: MultiPoly.variable(("beta",), "beta").scale(Fraction(1, 2)), "den"),
    "RatFunc": (lambda: RatFunc.from_poly(MultiPoly.variable(("beta",), "beta")), "num"),
    "LemmaReport": (lambda: LemmaReport("convex2", "PASS", {}), "status"),
    "PositivityCertificate": (
        lambda: PositivityCertificate("probe", (1, -1), "PASS", 1, Fraction(1), 1, Fraction(1)),
        "verdict",
    ),
    "FixtureFile": (lambda: FixtureFile("probe", ("beta",)), "name"),
    "ComparisonVerdict": (lambda: ComparisonVerdict("SCALED", Fraction(12)), "constant"),
    "FunctionalBundle": (lambda: build_bundle(K2_CHART), "calA"),
    "DiagonalRestriction": (restrict_diagonal, "f"),
    "ParamPolygon": (lambda: build_polygon((1, 1, 1, 1, 1, 1)), "scale"),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_record_refuses_assignment(name):
    make, field = FROZEN[name]
    record = make()
    assert type(record).__name__ == name
    value = getattr(record, field)
    # the values' common base names the class and the field
    message = re.escape(f"{field!r} of {name}") if isinstance(record, _Frozen) else None
    with pytest.raises(AttributeError, match=message):
        setattr(record, field, value)
    with pytest.raises(AttributeError, match=message):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = value
    assert getattr(record, field) is value


def test_checked_records_take_equality_and_hash_from_the_frozen_base():
    for cls in (CohClass, AreaVector, ConeChart):
        assert (cls.__eq__, cls.__hash__) == (_Frozen.__eq__, _Frozen.__hash__)
    # MultiPoly compares its int tables; RatFunc cross-multiplies and is unhashable
    for cls in (MultiPoly, RatFunc):
        assert issubclass(cls, _Frozen) and cls.__eq__ is not _Frozen.__eq__
    with pytest.raises(TypeError):
        hash(RatFunc.from_poly(MultiPoly.variable(("beta",), "beta")))


def test_a_value_equal_chart_hits_the_bundle_cache():
    chart = ConeChart("k2", 2, ("beta", "gamma"))
    assert chart is not K2_CHART
    assert chart == K2_CHART and hash(chart) == hash(K2_CHART)
    assert build_bundle(chart) is build_bundle(K2_CHART)
    assert ConeChart("k2", 2, ("gamma", "beta")) != K2_CHART


@pytest.mark.parametrize(
    "record, fields",
    [
        (CohClass(3, 1, 1, 1), (Fraction(3), Fraction(1), Fraction(1), Fraction(1), 3)),
        (AreaVector(1, 2, 3, 1, 2, 3), tuple(map(Fraction, (1, 2, 3, 1, 2, 3)))),
        (K2_CHART, ("k2", 2, ("beta", "gamma"))),
    ],
    ids=lambda value: type(value).__name__,
)
def test_checked_record_never_equals_a_tuple_of_its_fields(record, fields):
    assert record != fields and fields != record
    assert record != list(fields)
    assert record == type(record)(*fields) and hash(record) == hash(type(record)(*fields))
