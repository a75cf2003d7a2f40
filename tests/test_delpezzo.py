from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest

from kcert.delpezzo import (
    AreaVector,
    CohClass,
    ConeChart,
    K2_CHART,
    K3_CHART,
    c1_class,
    cremona,
    pair,
    subspace_membership,
)
from kcert.poly import MultiPoly
from kcert.sampling import SplitMix64


def test_anticanonical_self_intersection():
    c1 = c1_class(3)
    assert pair(c1, c1) == 6
    assert pair(c1_class(2), c1_class(2)) == 7


@pytest.mark.parametrize("inexact", [0.1, Decimal("0.1"), "0.1"])
def test_inexact_entry_refused(inexact):
    with pytest.raises(TypeError, match="entry e2"):
        CohClass(3, 1, inexact, 1)
    with pytest.raises(TypeError, match="entry alpha"):
        AreaVector.from_abcd(inexact, 1, 1, 1)
    with pytest.raises(TypeError, match="entry a_e3"):
        AreaVector(inexact, 1, 1, 1, 1, 1)


def test_int_and_fraction_entries_agree():
    assert CohClass(3, 1, 1, 1) == c1_class(3)
    assert AreaVector.from_abcd(1, 2, 3, 1) == AreaVector.from_abcd(*map(Fraction, (1, 2, 3, 1)))
    assert all(type(x) is Fraction for x in AreaVector.from_abcd(1, 2, 3, 1).as_tuple())
    assert AreaVector(1, 2, 3, 1, 2, 3) == AreaVector(*map(Fraction, (1, 2, 3, 1, 2, 3)))


def test_k2_chart_pairings():
    beta, gamma = MultiPoly.gens(K2_CHART.variables)
    omega = K2_CHART.area_vector().to_coh(2)
    assert pair(c1_class(2), omega) == 3 + 2 * beta + 2 * gamma
    half = MultiPoly.const(K2_CHART.variables, Fraction(1, 2))
    assert pair(omega, omega) == (beta * gamma + beta + gamma + half).scale(2)


def test_k3_chart_self_intersection_is_twice_volume():
    alpha, beta, gamma = MultiPoly.gens(K3_CHART.variables)
    omega = K3_CHART.area_vector().to_coh(3)
    expected = (
        1 + 2 * alpha + 2 * beta + 2 * gamma
        + 2 * alpha * beta + 2 * alpha * gamma + 2 * beta * gamma
    )
    assert pair(omega, omega) == expected


def test_pairing_signature():
    basis = [
        CohClass(1, 0, 0, 0),
        CohClass(0, 1, 0, 0),
        CohClass(0, 0, 1, 0),
        CohClass(0, 0, 0, 1),
    ]
    gram = [[pair(x, y) for y in basis] for x in basis]
    for i in range(4):
        for j in range(4):
            expected = 0 if i != j else (1 if i == 0 else -1)
            assert gram[i][j] == expected
    # symmetry and bilinearity on random classes
    rng = SplitMix64(7)
    for _ in range(10):
        x = CohClass(*(Fraction(rng.below(9) - 4) for _ in range(4)))
        y = CohClass(*(Fraction(rng.below(9) - 4) for _ in range(4)))
        z = CohClass(*(Fraction(rng.below(9) - 4) for _ in range(4)))
        assert pair(x, y) == pair(y, x)
        combined = CohClass(x.h + 2 * y.h, x.e1 + 2 * y.e1, x.e2 + 2 * y.e2, x.e3 + 2 * y.e3)
        assert pair(combined, z) == pair(x, z) + 2 * pair(y, z)


def test_mismatched_k_rejected():
    with pytest.raises(ValueError):
        pair(c1_class(2), c1_class(3))


def test_chart_maps_abcd_onto_its_face():
    beta, gamma = MultiPoly.gens(K2_CHART.variables)
    images = K2_CHART.abcd_images()
    assert images == {
        "alpha": MultiPoly.zero(K2_CHART.variables),
        "beta": beta,
        "gamma": gamma,
        "delta": MultiPoly.const(K2_CHART.variables, 1),
    }
    assert K2_CHART.area_vector() == AreaVector.from_abcd(0 * beta, beta, gamma, 1 + 0 * beta)
    # the k = 1 face alpha = beta = 0 is a chart too
    (gamma,) = MultiPoly.gens(("gamma",))
    assert ConeChart("k1", 1, ("gamma",)).area_vector().to_coh(1).e1 == gamma


@pytest.mark.parametrize(
    "chart_id, k, variables, match",
    [
        ("k1", 1, ("beta",), "e2 must vanish"),  # the class has e2 = beta
        ("k2", 2, ("alpha", "beta"), "e3 must vanish"),
        ("k4", 4, ("alpha", "beta", "gamma"), "k must be"),
        ("x", 3, ("alpha", "beta", "delta"), "not distinct names"),
        ("x", 3, ("alpha", "t"), "not distinct names"),
        ("x", 3, ("beta", "beta"), "not distinct names"),
    ],
)
def test_chart_refused_at_construction(chart_id, k, variables, match):
    with pytest.raises(ValueError, match=match):
        ConeChart(chart_id, k, variables)


def test_cremona_fixes_c1_and_is_involution():
    c1 = c1_class(3)
    assert cremona(c1) == c1
    rng = SplitMix64(13)
    for _ in range(20):
        x = CohClass(*(Fraction(rng.below(2001) - 1000) for _ in range(4)))
        assert cremona(cremona(x)) == x
        y = CohClass(*(Fraction(rng.below(2001) - 1000) for _ in range(4)))
        assert pair(cremona(x), cremona(y)) == pair(x, y)


def test_cremona_generic_symbolic_identity():
    names = ("h", "e1", "e2", "e3")
    h, e1, e2, e3 = MultiPoly.gens(names)
    generic = CohClass(h, e1, e2, e3, 3)
    image = cremona(generic)
    assert cremona(image) == generic
    assert pair(image, image) == pair(generic, generic)
    # the class formula and the area-slot swap are one involution
    assert cremona(AreaVector.from_coh(generic)) == AreaVector.from_coh(image)


def test_cremona_requires_k3():
    with pytest.raises(ValueError):
        cremona(c1_class(2))


def test_cremona_on_coordinates():
    areas = AreaVector.from_abcd(1, 1, 1, 1)
    image = cremona(areas)
    assert image.to_abcd() == (2, 2, 2, -1)
    omega = areas.to_coh(3)
    assert pair(omega, omega) == 13
    moved = cremona(omega)
    assert pair(moved, moved) == 13
    # area-vector route agrees with the cohomology route
    assert AreaVector.from_coh(moved) == image


def test_cremona_swaps_exceptional_and_line_areas():
    names = ("alpha", "beta", "gamma", "delta")
    alpha, beta, gamma, delta = MultiPoly.gens(names)
    av = AreaVector.from_abcd(alpha, beta, gamma, delta)
    image = cremona(av)
    assert image.a_e1 == av.a_l23 and image.a_l23 == av.a_e1
    assert image.a_e2 == av.a_l13 and image.a_l13 == av.a_e2
    assert image.a_e3 == av.a_l12 and image.a_l12 == av.a_e3
    a2, b2, g2, d2 = image.to_abcd()
    assert a2 == alpha + delta and b2 == beta + delta
    assert g2 == gamma + delta and d2 == -delta


def test_area_vector_round_trip():
    rng = SplitMix64(21)
    for _ in range(20):
        omega = CohClass(
            Fraction(rng.below(50) + 10),
            Fraction(rng.below(5)),
            Fraction(rng.below(5)),
            Fraction(rng.below(5)),
        )
        assert AreaVector.from_coh(omega).to_coh(3) == omega


def test_inconsistent_area_vector_rejected():
    with pytest.raises(ValueError):
        AreaVector(1, 1, 1, 1, 1, 2).to_coh(3)


def test_subspace_membership():
    assert subspace_membership(c1_class(3)) == (True, True)
    v_only = AreaVector.from_abcd(2, 1, 1, 0).to_coh(3)
    assert subspace_membership(v_only) == (True, False)
    w_only = AreaVector.from_abcd(1, 1, 1, 1).to_coh(3)
    assert subspace_membership(w_only) == (False, True)


def test_reverse_cauchy_schwarz_sampled():
    rng = SplitMix64(0xC0FFEE)
    for i in range(100):
        e = [rng.rational() for _ in range(3)]
        x = CohClass(e[0] + e[1] + e[2] + 1, e[0], e[1], e[2], 3)
        assert pair(x, x) > 0
        if i % 4 == 3:
            y = x.scale(rng.rational())
            assert pair(x, y) ** 2 == pair(x, x) * pair(y, y)
        else:
            f = [rng.rational() for _ in range(3)]
            y = CohClass(f[0] + f[1] + f[2] + 1, f[0], f[1], f[2], 3)
            assert pair(x, y) > 0
            gap = pair(x, y) ** 2 - pair(x, x) * pair(y, y)
            assert gap >= 0
