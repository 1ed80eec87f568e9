"""Test-set sizing rules and their inverses."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facedct.significance import (
    SignificanceParams,
    min_resolvable_error_rate,
    required_n,
    required_n_exact,
    simplified_n,
)

rates = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False, exclude_min=False)


class TestRequiredN:
    def test_reference_case(self):
        assert required_n(SignificanceParams(0.05, 0.2, 0.01)) == 7490

    def test_boundary_case(self):
        assert required_n(SignificanceParams(math.exp(-1), 1.0, 1.0)) == 1

    @given(st.floats(min_value=1e-5, max_value=0.5))
    @settings(max_examples=60)
    def test_halving_p_doubles_n_before_ceiling(self, p):
        a = required_n_exact(SignificanceParams(0.05, 0.2, p))
        b = required_n_exact(SignificanceParams(0.05, 0.2, p / 2))
        assert b == pytest.approx(2 * a, rel=1e-12)

    @given(rates, rates)
    @settings(max_examples=60)
    def test_monotone_in_p(self, p1, p2):
        lo, hi = sorted([p1, p2])
        if lo == hi:
            return
        a = required_n_exact(SignificanceParams(0.05, 0.2, hi))
        b = required_n_exact(SignificanceParams(0.05, 0.2, lo))
        assert b >= a

    @given(st.floats(0.01, 0.5), st.floats(0.01, 0.5))
    @settings(max_examples=60)
    def test_monotone_in_alpha(self, a1, a2):
        lo, hi = sorted([a1, a2])
        if lo == hi:
            return
        assert required_n_exact(SignificanceParams(lo, 0.2, 0.01)) >= required_n_exact(
            SignificanceParams(hi, 0.2, 0.01)
        )

    @given(st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    @settings(max_examples=60)
    def test_monotone_in_beta(self, b1, b2):
        lo, hi = sorted([b1, b2])
        if lo == hi:
            return
        assert required_n_exact(SignificanceParams(0.05, lo, 0.01)) >= required_n_exact(
            SignificanceParams(0.05, hi, 0.01)
        )

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SignificanceParams(alpha=0.0)
        with pytest.raises(ValueError):
            SignificanceParams(beta=1.5)
        with pytest.raises(ValueError):
            SignificanceParams(p=0.0)


class TestSimplifiedN:
    def test_orl_scale(self):
        assert simplified_n(0.0125) == 8000

    def test_coarse_rate(self):
        assert simplified_n(0.5) == 200

    def test_feret_scale(self):
        assert simplified_n(0.0001) == 1_000_000

    @given(rates)
    @settings(max_examples=100)
    def test_exact_rule_never_exceeds_simplified(self, p):
        # 100/P deliberately rounds -ln(0.05)/beta^2 = 74.893 upward
        assert required_n_exact(SignificanceParams(0.05, 0.2, p)) <= 100.0 / p


class TestMinResolvableErrorRate:
    def test_orl_trials(self):
        assert min_resolvable_error_rate(8000, "simplified") == 0.0125

    def test_feret_trials(self):
        value = min_resolvable_error_rate(986048, "simplified")
        assert value == 100.0 / 986048
        assert round(value, 4) == 0.0001  # the headline "down to 0.01%"

    def test_exact_rule(self):
        value = min_resolvable_error_rate(8000, "exact", 0.05, 0.2)
        # the rule in exact rational arithmetic on the float inputs, rounded
        # once; the float 0.2 is not 1/5, so 0.04 * 8000 is not the reference
        expected = float(Fraction(-math.log(0.05)) / (Fraction(0.2) ** 2 * 8000))
        assert value == pytest.approx(expected, abs=0)

    @given(rates)
    @settings(max_examples=100)
    def test_inverse_pair_inequality(self, p):
        params = SignificanceParams(0.05, 0.2, p)
        n = required_n(params)
        assert min_resolvable_error_rate(n, "exact", 0.05, 0.2) <= p * (1 + 1e-12)

    @given(st.integers(1, 10**7))
    @settings(max_examples=100)
    def test_round_trip_up_to_ceiling(self, n):
        rate = min_resolvable_error_rate(n, "simplified")
        if rate > 1.0:  # tiny n resolve only rates above 100%; out of domain
            return
        assert simplified_n(rate) in (n, n + 1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            min_resolvable_error_rate(0)
        with pytest.raises(ValueError):
            min_resolvable_error_rate(10, rule="guess")
        with pytest.raises(ValueError, match="beta"):
            min_resolvable_error_rate(10, "exact", 0.05, 0.0)
