"""Delay model: closed forms against an arbitrary-precision oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mp_e2e_delay, mp_init_delay, mp_lte_delay, mp_sdp_overhead, rel_err
from sdperim.delay_model import (
    DelayDomainError,
    DelayParams,
    e2e_delay,
    init_delay,
    lte_delay,
    reconcile,
    sdp_overhead,
    total_delay,
)
from sdperim.transport.sim import TraceRecord

TOL = 1e-12


def params(alphas, betas, rate=1e6, speed=2e8, hops=(3, 4, 3, 5)):
    return DelayParams(tuple(map(float, alphas)), tuple(map(float, betas)), rate, speed, hops)


def random_params(rng):
    return params(
        [rng.uniform(8, 1e7) for _ in range(8)],
        [rng.uniform(0, 1e7) for _ in range(8)],
        rate=rng.uniform(1e3, 1e10),
        speed=rng.uniform(1e6, 3e8),
    )


class TestTotalDelay:
    def test_zero_packet_zero_distance(self):
        assert total_delay(0, 1e6, 0, 2e8) == 0.0

    def test_unit_terms(self):
        # one second of transmission plus one second of propagation
        assert total_delay(12000, 12000, 3e8, 3e8) == 2.0

    def test_domain_errors(self):
        with pytest.raises(DelayDomainError):
            total_delay(100, 0, 10, 2e8)
        with pytest.raises(DelayDomainError):
            total_delay(100, 1e6, 10, -1)

    def test_matches_oracle_on_random_inputs(self):
        rng = random.Random(7)
        for _ in range(200):
            a, r, b, s = rng.uniform(1, 1e8), rng.uniform(1, 1e10), rng.uniform(0, 1e8), rng.uniform(1, 3e8)
            from oracles import mp_total

            assert rel_err(total_delay(a, r, b, s), mp_total(a, r, b, s)) <= TOL


class TestFrozenValues:
    # expected values computed with the 50-digit oracle in tests/oracles.py
    P = params(
        (720.0, 1184.0, 2512.0, 904.0, 1500.0, 2100.0, 8000.0, 8200.0),
        (50.0, 210.0, 190.0, 55.0, 120.0, 3000.0, 1.2e6, 1.2e6),
    )

    def test_sdp_overhead(self):
        assert rel_err(sdp_overhead(self.P), "0.018961175") <= TOL

    def test_lte_delay(self):
        assert rel_err(lte_delay(self.P), "0.0036156") <= TOL

    def test_init_delay(self):
        assert rel_err(init_delay(self.P), "0.022576775") <= TOL

    def test_e2e_delay(self):
        assert rel_err(e2e_delay(self.P), "0.050776775") <= TOL


class TestAuthenticationExchangeCost:
    def test_uniform_hops_collapse_to_frame_total(self):
        # 3+4+3+5 frames, all costing the same
        p = params([700] * 8, [40] * 8)
        per = total_delay(700, p.rate_bps, 40, p.speed_mps)
        assert abs(sdp_overhead(p) - 15 * per) <= 1e-15 * 15 * per

    def test_degenerate_unit_counts(self):
        p = params([100, 200, 300, 400, 0, 0, 0, 0], [1, 2, 3, 4, 0, 0, 0, 0], hops=(1, 1, 1, 1))
        expected = sum(total_delay(p.alpha_bits[i], p.rate_bps, p.beta_m[i], p.speed_mps) for i in range(4))
        assert rel_err(sdp_overhead(p), expected) <= TOL

    def test_zero_distance_reduces_to_transmission(self):
        a, b, c, d = 100.0, 200.0, 300.0, 400.0
        p = params([a, b, c, d, 0, 0, 0, 0], [0] * 8, rate=1e6)
        assert rel_err(sdp_overhead(p), (3 * a + 4 * b + 3 * c + 5 * d) / 1e6) <= TOL


class TestAccessNetworkDelay:
    def test_symmetric_segments_double(self):
        p = params([0, 0, 0, 0, 1500, 1500, 0, 0], [0, 0, 0, 0, 90, 90, 0, 0])
        assert rel_err(lte_delay(p), 2 * total_delay(1500, p.rate_bps, 90, p.speed_mps)) <= TOL

    def test_zeros(self):
        p = params([1, 1, 1, 1, 0, 0, 1, 1], [1, 1, 1, 1, 0, 0, 1, 1])
        assert lte_delay(p) == 0.0


class TestComposition:
    def test_init_is_overhead_plus_attach_for_1000_random_sets(self):
        rng = random.Random(42)
        for _ in range(1000):
            p = random_params(rng)
            assert rel_err(init_delay(p), mp_sdp_overhead(p) + mp_lte_delay(p)) <= TOL

    def test_init_zeros(self):
        p = params([0] * 8, [0] * 8)
        assert init_delay(p) == 0.0

    def test_zero_counts_leave_attach_only(self):
        p = params([100] * 8, [10] * 8, hops=(0, 0, 0, 0))
        assert rel_err(init_delay(p), mp_lte_delay(p)) <= TOL

    def test_e2e_reduces_to_init_without_service_hops(self):
        p = params([10, 20, 30, 40, 50, 60, 0, 0], [1, 2, 3, 4, 5, 6, 0, 0])
        assert e2e_delay(p) == init_delay(p)

    def test_e2e_minus_init_is_service_round_trip(self):
        rng = random.Random(44)
        for _ in range(200):
            p = random_params(rng)
            lhs = e2e_delay(p) - init_delay(p)
            rhs = total_delay(p.alpha_bits[6], p.rate_bps, p.beta_m[6], p.speed_mps) + total_delay(
                p.alpha_bits[7], p.rate_bps, p.beta_m[7], p.speed_mps
            )
            assert rel_err(lhs, rhs) <= 1e-9  # subtraction cancels; looser bound


@given(
    scale=st.floats(min_value=0.125, max_value=8, allow_nan=False),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=200, deadline=None)
def test_linearity_under_scaling(scale, seed):
    p = random_params(random.Random(seed))
    scaled = DelayParams(
        tuple(a * scale for a in p.alpha_bits),
        tuple(b * scale for b in p.beta_m),
        p.rate_bps,
        p.speed_mps,
        p.hop_counts,
    )
    for fn in (sdp_overhead, lte_delay, init_delay, e2e_delay):
        assert rel_err(fn(scaled), mpmath_scale(fn, p, scale)) <= TOL


def mpmath_scale(fn, p, scale):
    import mpmath

    oracle = {sdp_overhead: mp_sdp_overhead, lte_delay: mp_lte_delay, init_delay: mp_init_delay, e2e_delay: mp_e2e_delay}
    return oracle[fn](p) * mpmath.mpf(scale)


@given(index=st.integers(0, 7), bump=st.floats(min_value=1.0, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_monotone_in_every_packet_size(index, bump):
    p = random_params(random.Random(5))
    bigger = DelayParams(
        tuple(a + (bump if i == index else 0.0) for i, a in enumerate(p.alpha_bits)),
        p.beta_m,
        p.rate_bps,
        p.speed_mps,
        p.hop_counts,
    )
    assert e2e_delay(bigger) >= e2e_delay(p)


class TestValidation:
    def test_wrong_arity(self):
        with pytest.raises(DelayDomainError):
            DelayParams((1.0,) * 7, (1.0,) * 8, 1e6, 2e8)

    def test_nonpositive_rate(self):
        with pytest.raises(DelayDomainError):
            params([1] * 8, [1] * 8, rate=0)

    def test_from_dict_bytes_conversion(self):
        p = DelayParams.from_dict(
            {"alpha_bytes": [90] * 8, "beta_m": [1] * 8, "rate_bps": 1e6, "speed_mps": 2e8}
        )
        assert p.alpha_bits[0] == 720.0


class TestReconcile:
    HOPS = (("c", "g"), ("g", "ctl"), ("ctl", "g"), ("g", "c"))

    def _records(self, p, counts):
        recs = []
        for i, (src, dst) in enumerate(self.HOPS):
            d = p.alpha_bits[i] / p.rate_bps + p.beta_m[i] / p.speed_mps
            for _ in range(counts[i]):
                recs.append(TraceRecord(seq=0, cls="data", src=src, dst=dst, src_port=0, dst_port=0, size=0,
                                        kind=None, sent=0.0, delivered=d, link_delay=d))
        return recs

    def test_matching_trace_has_exactly_zero_delta(self):
        p = params([720, 1184, 2512, 904, 0, 0, 0, 0], [50, 210, 190, 55, 0, 0, 0, 0])
        report = reconcile(self._records(p, (3, 4, 3, 5)), p, self.HOPS)
        assert report.delta == 0.0
        assert report.count_mismatches == []
        assert report.uniform_sizes

    def test_count_mismatch_flagged_with_positive_delta(self):
        p = params([720, 1184, 2512, 904, 0, 0, 0, 0], [50, 210, 190, 55, 0, 0, 0, 0])
        report = reconcile(self._records(p, (3, 5, 3, 5)), p, self.HOPS)
        assert report.delta > 0
        assert report.count_mismatches == ["gateway->controller"]
