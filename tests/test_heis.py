"""Group operations, gauge metric and similarities."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heisring import heis

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def hpoints(draw, away_from_origin=False):
    x = draw(finite)
    y = draw(finite)
    t = draw(finite)
    p = heis.HPoint(complex(x, y), t)
    if away_from_origin and heis.gauge(p) < 1e-3:
        p = heis.HPoint(complex(x + 1.0, y), t + 1.0)
    return p


@given(hpoints(), hpoints(), hpoints())
def test_group_law_associative(p, q, r):
    lhs = heis.mul(heis.mul(p, q), r)
    rhs = heis.mul(p, heis.mul(q, r))
    assert abs(lhs.z - rhs.z) < 1e-9
    assert abs(lhs.t - rhs.t) < 1e-9


@given(hpoints())
def test_inverse(p):
    e = heis.mul(p, heis.inverse(p))
    assert abs(e.z) < 1e-9 and abs(e.t) < 1e-9


@given(hpoints(), st.floats(min_value=0.01, max_value=100.0))
def test_gauge_homogeneous_under_dilation(p, r):
    assert heis.gauge(heis.dilate(r, p)) == pytest.approx(r * heis.gauge(p), rel=1e-12)


@given(hpoints(), hpoints(), hpoints())
@example(heis.HPoint(2j, 0.0), heis.HPoint(2j, 2e-15), heis.HPoint(0j, 2.0))
def test_distance_left_invariant(p, q, g):
    # dist**4 = |z|^4 + t^2 of p^-1 q is what the group law yields before the
    # fourth root; the root turns a rounding of t in mul into a large error of
    # dist when z is equal, so compare dist**4 with an absolute tolerance on
    # the scale of the operands' squared gauges.
    scale = heis.gauge(p) ** 2 + heis.gauge(q) ** 2 + heis.gauge(g) ** 2
    d4 = heis.dist(p, q) ** 4
    dl4 = heis.dist(heis.mul(g, p), heis.mul(g, q)) ** 4
    assert dl4 == pytest.approx(d4, rel=1e-9, abs=1e-12 * scale ** 2)


@given(hpoints(), hpoints())
def test_distance_symmetric(p, q):
    assert heis.dist(p, q) == pytest.approx(heis.dist(q, p), rel=1e-9, abs=1e-12)


def test_koranyi_map_left_half_plane():
    for p in [heis.HPoint(1 + 2j, 3.0), heis.HPoint(0.1j, -4.0)]:
        w = heis.koranyi_map(p)
        assert w.real <= 0.0
        assert w == pytest.approx(complex(-abs(p.z) ** 2, p.t))


@given(hpoints())
def test_contact_form_on_frame(p):
    vx = heis.TangentVector(p, 1.0, 0.0, 2.0 * p.z.imag)
    vy = heis.TangentVector(p, 0.0, 1.0, -2.0 * p.z.real)
    vt = heis.TangentVector(p, 0.0, 0.0, 1.0)
    assert heis.contact_eval(vx) == pytest.approx(0.0, abs=1e-12)
    assert heis.contact_eval(vy) == pytest.approx(0.0, abs=1e-12)
    assert heis.contact_eval(vt) == pytest.approx(1.0)


@settings(max_examples=50)
@given(hpoints(away_from_origin=True))
def test_inversion_gauge_identity(p):
    # |inv(p)|_H = 1/|p|_H
    ip = heis.inversion()(p)
    assert heis.gauge(ip) == pytest.approx(1.0 / heis.gauge(p), rel=1e-9)


def test_inversion_rejects_origin():
    with pytest.raises(ValueError):
        heis.inversion()(heis.HPoint(0j, 0.0))


def test_dilate_rejects_nonpositive():
    with pytest.raises(ValueError):
        heis.dilate(-1.0, heis.HPoint(1 + 0j, 0.0))


@given(hpoints(), st.floats(min_value=-math.pi, max_value=math.pi))
def test_rotation_preserves_gauge(p, theta):
    r = heis.rotation(theta)
    assert heis.gauge(r(p)) == pytest.approx(heis.gauge(p), rel=1e-12)


@given(hpoints(), hpoints())
def test_left_translation_is_group_product(p, q):
    lt = heis.left_translation(p)
    r = lt(q)
    m = heis.mul(p, q)
    assert r.z == pytest.approx(m.z) and r.t == pytest.approx(m.t)
