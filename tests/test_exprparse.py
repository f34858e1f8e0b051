"""Expression language and dual-number differentiation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heisring import autodiff as ad
from heisring import exprparse
from heisring.exprparse import ParseError, evaluate, parse_expression


def d2(text: str, s: float, env=None):
    """(value, first, second) of an expression at s."""
    full = dict(env or {}, pi=math.pi)
    full["s"] = ad.Dual2.seed(s)
    out = evaluate(parse_expression(text), full)
    if isinstance(out, ad.Dual2):
        return out.val, out.d1, out.d2
    return out, 0.0, 0.0


def test_polynomial_derivatives():
    v, d, dd = d2("3*s^2 - 2*s + 7", 1.5)
    assert v == pytest.approx(3 * 1.5 ** 2 - 2 * 1.5 + 7)
    assert d == pytest.approx(6 * 1.5 - 2)
    assert dd == pytest.approx(6.0)


@given(st.floats(min_value=0.2, max_value=2.5))
def test_transcendental_derivatives(s):
    v, d, dd = d2("sin(s)*exp(s) + log(s)", s)
    assert v == pytest.approx(math.sin(s) * math.exp(s) + math.log(s), rel=1e-12)
    assert d == pytest.approx(
        (math.sin(s) + math.cos(s)) * math.exp(s) + 1 / s, rel=1e-11)
    assert dd == pytest.approx(2 * math.cos(s) * math.exp(s) - 1 / s ** 2, rel=1e-10)


@given(st.floats(min_value=-1.2, max_value=1.2))
def test_derivatives_match_finite_differences(s):
    expr = "sqrt(2 + cos(s)) / (1 + s^2) - atan(s/2)"
    h = 1e-5
    vm, _, _ = d2(expr, s - h)
    v0, d, dd = d2(expr, s)
    vp, _, _ = d2(expr, s + h)
    assert d == pytest.approx((vp - vm) / (2 * h), rel=2e-8, abs=1e-8)
    assert dd == pytest.approx((vp - 2 * v0 + vm) / h ** 2, rel=1e-4, abs=1e-4)


def test_power_right_associative():
    v, _, _ = d2("2^3^2", 0.0)
    assert v == 2 ** 9


def test_unary_minus_and_precedence():
    v, _, _ = d2("-2*s + s*s", 3.0)
    assert v == pytest.approx(-6 + 9)


def test_vectorized_evaluation():
    env = {"s": ad.Dual2.seed(np.array([0.5, 1.0, 2.0]))}
    out = evaluate(parse_expression("s^2"), dict(env, pi=math.pi))
    assert np.allclose(out.val, [0.25, 1.0, 4.0])
    assert np.allclose(out.d1, [1.0, 2.0, 4.0])
    assert np.allclose(out.d2, [2.0, 2.0, 2.0])


def test_unknown_function_rejected():
    with pytest.raises(ParseError):
        parse_expression("sinh(s)")


def test_unknown_identifier_reported_with_position():
    with pytest.raises(ParseError, match="unknown identifier"):
        d2("s + bogus", 1.0)


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_expression("1 + * 2")
    assert err.value.pos == 4


def test_variable_exponent_rejected():
    with pytest.raises(ParseError, match="exponent"):
        d2("2^s", 1.0)


def test_profile_source_roundtrip():
    src = """
    # unit-sphere-like profile
    param R = 2
    f = R*sqrt(-cos(s)); g = R^2*sin(s)
    domain = (pi/2, 3*pi/2)
    """
    f_ast, g_ast, domain, params = exprparse.parse_profile_source(src)
    assert domain == (math.pi / 2, 3 * math.pi / 2)
    assert params["R"] == 2.0
    env = dict(params, s=ad.Dual2.seed(math.pi))
    assert evaluate(f_ast, env).val == pytest.approx(2.0)
    assert evaluate(g_ast, env).val == pytest.approx(0.0, abs=1e-12)


def test_profile_source_missing_statement():
    with pytest.raises(ParseError, match="missing"):
        exprparse.parse_profile_source("f = s")


def test_profile_source_empty_domain():
    with pytest.raises(ParseError, match="domain"):
        exprparse.parse_profile_source("f = s; g = -s; domain = (1, 1)")


BUBBLE_LINES = "f = 2*sin(s/2)\ng = 2*sin(s) - 2*s + 2*pi\n"


@pytest.mark.parametrize("source, message, line, column", [
    ("h = s", "unknown statement 'h'", 1, 1),
    (BUBBLE_LINES, "missing statements: domain", 2, 26),
    ("f = 2^s*sin(s)\ng = -s; domain = (0, 1)", "exponent must not depend on s", 1, 7),
    ("domain = (0, 2*pi)\nf = s +\ng = -s", "invalid syntax", 2, 8),
    ("f = 2*sin(s/2)\ndomain = (0, 2*pi)\ng = 2*sin(s) - bogus*s", "unknown identifier 'bogus'",
     3, 16),
    ("f = s; g = -s;  domain = (0, 1, 2)", "domain must be of the form", 1, 26),
    ("param a = 2 # a; b\n  f = a*s ; g = -s + 1/0\ndomain = (0, 1)",
     "'1/0' in statement 'g = -s + 1/0' is not a finite real number", 2, 22),
    ("f = s\n\tg = -s; domain = (2, 1)", "empty domain (2.0, 1.0)", 2, 10),
], ids=["statement", "missing", "exponent", "syntax", "identifier", "domain-form", "constant",
        "empty-domain"])
def test_profile_source_errors_give_line_and_column(source, message, line, column):
    with pytest.raises(ParseError) as err:
        exprparse.parse_profile_source(source)
    assert message in err.value.message
    assert str(err.value).endswith(f" (at line {line}, column {column})")


def test_variable_exponent_position_is_the_exponent():
    with pytest.raises(ParseError) as err:
        parse_expression("1 + 2^(s + 1)")
    assert err.value.pos == 7


# -- the boundary of the language ------------------------------------------------


def at_half(text: str):
    return evaluate(parse_expression(text), {"s": ad.Dual2.seed(0.5), "pi": math.pi})


# Python's parser reads most of these; none of them is in the language
OUTSIDE = [
    "s**2", "+s", "1_000", "0x10", "0b1", "0o7", "1j", "True", "None", "...", "'s'", "f'{s}'",
    "s < 1", "s == 1", "not s", "s and s", "1or s", "s // 2", "s % 2", "s @ s", "s & 1",
    "s | 1", "~s", "s << 1", "s.real", "s[0]", "[s]", "{s}", "lambda s: s", "s if s else 1",
    "(s := 1)", "s = 1", "sin(x=s)", "atan(s, 1)", "sin(s,)", "sin(*s)", "(sin)(s)",
    "sinh(s)", "2^s", "2^(1 + sin(s))", "s,", "()", "(s, s)", "s # c", "s \\\n + 1", "α",
    "ｓ", "2 s", "sin s", "1e", "",
]


@pytest.mark.parametrize("text", OUTSIDE)
def test_outside_the_language_rejected(text, recwarn):
    with pytest.raises(ParseError):
        at_half(text)
    assert not recwarn.list  # "1or s" makes Python's parser warn


@pytest.mark.parametrize("text, pos", [("s^2 + bogus", 6), ("s^2^2 + q", 8), ("1 + * 2", 4)])
def test_error_position_indexes_the_users_text(text, pos):
    with pytest.raises(ParseError) as err:
        at_half(text)
    assert err.value.pos == pos


@pytest.mark.parametrize("text, value", [
    ("12", 12.0), ("007", 7.0), ("1.5", 1.5), ("1.", 1.0), (".5", 0.5), ("2e-3", 2e-3),
    ("1.E+2", 100.0), ("2^3^2", 512.0), ("-2^2", -4.0), ("2^-1", 0.5), ("2*-3", -6.0),
    ("\t-s^2 ", -0.25), ("1 - 2 - 3", -4.0), ("8/4/2", 1.0), ("sin (0)", 0.0),
])
def test_language_values(text, value):
    out = at_half(text)
    assert getattr(out, "val", out) == value


def test_literals_are_floats():
    assert type(parse_expression("2").value) is float


@pytest.mark.parametrize("domain", [
    "((0, 1))", "(0), (1)", "(0, 1,)", "0, 1", "(0, 1, 2)", "(0,)", "(0, sin(1,))", "(0 1)",
])
def test_profile_source_domain_must_be_one_pair(domain):
    with pytest.raises(ParseError):
        exprparse.parse_profile_source(f"f = s; g = -s; domain = {domain}")


def test_profile_source_statements_and_comments():
    src = "param a = 2 # a; b = 3\n f = a*s ; g = -s;; domain = ( (0) , a^2 )  # (1, 2)"
    _, _, domain, params = exprparse.parse_profile_source(src)
    assert domain == (0.0, 4.0)
    assert params == {"pi": math.pi, "a": 2.0}
