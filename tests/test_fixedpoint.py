import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idpskit.exceptions import RangeExceededError
import idpskit.fixedpoint as fixedpoint
from idpskit.fixedpoint import (
    FixedFormat,
    QNetwork,
    accumulator_dtype,
    build_tanh_lut,
    div_round_even,
    from_fixed,
    lut_tanh,
    q_forward,
    q_forward_batch,
    q_predict_class,
    quantize_network,
    to_fixed,
)
from idpskit.mlp import NetworkLayout, forward, init_network
from idpskit.model_io import format_qmodel, parse_qmodel

Q412 = FixedFormat(16, 12)


def zero_net(sizes):
    net = init_network(NetworkLayout(sizes[0], tuple(sizes[1:-1]), sizes[-1]),
                       seed=0)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    return net


class TestFixedFormat:
    def test_parse_q412(self):
        fmt = FixedFormat.parse("q4.12")
        assert fmt.total_bits == 16
        assert fmt.frac_bits == 12
        assert str(fmt) == "q4.12"

    def test_parse_rejects_garbage(self):
        for bad in ("", "4.12", "qx.y", "q12"):
            with pytest.raises(ValueError):
                FixedFormat.parse(bad)

    def test_invariants(self):
        with pytest.raises(ValueError):
            FixedFormat(16, 16)
        with pytest.raises(ValueError):
            FixedFormat(16, 0)
        with pytest.raises(ValueError):
            FixedFormat(40, 12)

    def test_bounds(self):
        assert Q412.min_int == -32768
        assert Q412.max_int == 32767
        assert Q412.scale == 4096


class TestToFixed:
    def test_half_scale(self):
        assert to_fixed(0.5, Q412) == 2048

    def test_saturates_high(self):
        assert to_fixed(100.0, Q412) == 32767

    def test_saturates_low(self):
        assert to_fixed(-100.0, Q412) == -32768

    def test_round_half_to_even(self):
        assert to_fixed(2.5 / 4096, Q412) == 2
        assert to_fixed(3.5 / 4096, Q412) == 4
        assert to_fixed(-2.5 / 4096, Q412) == -2

    @given(x=st.floats(min_value=-7.9, max_value=7.9, allow_nan=False))
    @settings(max_examples=200)
    def test_round_trip_bound(self, x):
        assert abs(from_fixed(to_fixed(x, Q412), Q412) - x) <= 2.0 ** -13


class TestDivRoundEven:
    @pytest.mark.parametrize(
        "num,den,expected",
        [
            (5, 4, 1), (6, 4, 2), (7, 4, 2), (10, 4, 2), (14, 4, 4),
            (-5, 4, -1), (-6, 4, -2), (-7, 4, -2), (-10, 4, -2), (-14, 4, -4),
            (0, 8, 0), (8, 8, 1),
        ],
    )
    def test_cases(self, num, den, expected):
        assert div_round_even(num, den) == expected

    @given(num=st.integers(min_value=-10**9, max_value=10**9),
           shift=st.integers(min_value=1, max_value=20))
    @settings(max_examples=200)
    def test_matches_float_banker_rounding(self, num, shift):
        den = 1 << shift
        # float division is exact here: den is a power of two and
        # |num| < 2^53, so Python's round() is a faithful oracle
        assert div_round_even(num, den) == round(num / den)


class TestQuantizeNetwork:
    def test_zero_network_all_zero(self):
        qnet = quantize_network(zero_net([4, 3, 2]), Q412)
        assert all(v == 0 for rows in qnet.weights for row in rows for v in row)
        assert all(v == 0 for bias in qnet.biases for v in bias)

    def test_parameter_round_trip_bound(self):
        net = init_network(NetworkLayout(8, (5,), 3), seed=4)
        qnet = quantize_network(net, Q412)
        for W, rows in zip(net.weights, qnet.weights):
            for r, row in enumerate(rows):
                for c, v in enumerate(row):
                    assert abs(from_fixed(v, Q412) - W[r, c]) <= 2.0 ** -13

    def test_lut_midpoint_is_zero(self):
        qnet = quantize_network(zero_net([2, 2, 2]), Q412)
        assert qnet.tanh_lut[128] == 0

    def test_lut_endpoints(self):
        lut = build_tanh_lut(Q412)
        assert len(lut) == 256
        assert lut[0] == to_fixed(math.tanh(-4.0), Q412)
        assert lut[-1] == to_fixed(math.tanh(4.0), Q412)

    def test_range_exceeded_names_layer(self):
        net = zero_net([4, 3, 2])
        net.weights[1][0, 0] = 100.0
        with pytest.raises(RangeExceededError) as err:
            quantize_network(net, Q412)
        assert err.value.layer == 1
        assert err.value.max_abs == 100.0

    def test_narrow_fraction_rejected(self):
        with pytest.raises(ValueError):
            quantize_network(zero_net([2, 2, 2]), FixedFormat(8, 4))

    def test_source_checksum_recorded(self):
        qnet = quantize_network(zero_net([2, 2, 2]), Q412,
                                source_checksum="abc123")
        assert qnet.source_checksum == "abc123"


class TestLutTanh:
    def test_exhaustive_error_bound(self):
        lut = build_tanh_lut(Q412)
        worst = 0.0
        for v in range(-(4 << 12), (4 << 12) + 1):
            approx = from_fixed(lut_tanh(v, lut, Q412), Q412)
            exact = math.tanh(from_fixed(v, Q412))
            worst = max(worst, abs(approx - exact))
        assert worst <= 0.002

    def test_clamps_outside_range(self):
        lut = build_tanh_lut(Q412)
        assert lut_tanh(Q412.max_int, lut, Q412) == lut[-1]
        assert lut_tanh(Q412.min_int, lut, Q412) == lut[0]

    def test_exact_grid_point(self):
        lut = build_tanh_lut(Q412)
        # 0.5 sits exactly on the 1/32-step grid
        assert lut_tanh(to_fixed(0.5, Q412), lut, Q412) == \
            to_fixed(math.tanh(0.5), Q412)


class TestQForward:
    def test_zero_network(self):
        qnet = quantize_network(zero_net([4, 3, 6]), Q412)
        cls, out = q_forward(qnet, np.zeros(4))
        assert cls == 0
        assert out == [0, 0, 0, 0, 0, 0]

    def test_single_weight_chain(self):
        # 1 -> 1 -> 1 with unit weights: output is LUT-tanh(0.5), which
        # must sit within one interpolation step of tanh(0.5) = 0.4621
        net = zero_net([1, 1, 1])
        net.weights[0][0, 0] = 1.0
        net.weights[1][0, 0] = 1.0
        qnet = quantize_network(net, Q412)
        _, out = q_forward(qnet, np.array([0.5]))
        assert abs(from_fixed(out[0], Q412) - math.tanh(0.5)) <= 1 / 32

    def test_pure_integer_computation(self):
        net = init_network(NetworkLayout(5, (4,), 3), seed=8)
        qnet = quantize_network(net, Q412)
        assert all(isinstance(v, int) for rows in qnet.weights
                   for row in rows for v in row)
        assert all(isinstance(v, int) for b in qnet.biases for v in b)
        assert all(isinstance(v, int) for v in qnet.tanh_lut)
        _, out = q_forward(qnet, np.random.default_rng(0).uniform(0, 1, 5))
        assert all(type(v) is int for v in out)

    def test_saturation_never_wraps(self):
        # all-max weights and all-ones input drive the accumulator far
        # beyond the word range; the wide-integer oracle says the exact
        # value, the result must be the clamp of it
        fmt = Q412
        net = zero_net([8, 2, 2])
        net.weights[0][:] = fmt.max_int / fmt.scale
        net.biases[0][:] = fmt.max_int / fmt.scale
        qnet = quantize_network(net, fmt)
        x = np.ones(8)
        xi = [to_fixed(1.0, fmt) for _ in range(8)]
        exact = (qnet.biases[0][0] << fmt.frac_bits) + sum(
            w * a for w, a in zip(qnet.weights[0][0], xi))
        exact_rescaled = div_round_even(exact, fmt.scale)
        assert exact_rescaled > fmt.max_int  # oracle: overflow territory
        _, _ = q_forward(qnet, x)
        # hidden pre-activation saturates to max_int, so tanh sees +8.0
        # and clamps to the top LUT entry
        cls, out = q_forward(qnet, x)
        top = qnet.tanh_lut[-1]
        expected = div_round_even(
            (qnet.biases[1][0] << fmt.frac_bits)
            + qnet.weights[1][0][0] * top + qnet.weights[1][0][1] * top,
            fmt.scale,
        )
        assert out[0] == min(max(expected, fmt.min_int), fmt.max_int)

    def test_negative_saturation(self):
        fmt = Q412
        net = zero_net([8, 2, 2])
        net.weights[0][:] = fmt.min_int / fmt.scale
        qnet = quantize_network(net, fmt)
        _, out = q_forward(qnet, np.ones(8))
        # both hidden units slam to tanh(-8) -> bottom LUT entry; outputs 0
        # through zero second layer
        assert out == [0, 0]

    def test_tie_breaks_to_lowest_index(self):
        qnet = quantize_network(zero_net([3, 2, 4]), Q412)
        cls, out = q_forward(qnet, np.full(3, 0.5))
        assert len(set(out)) == 1
        assert cls == 0

    def test_deterministic_and_stable_through_serialization(self):
        net = init_network(NetworkLayout(6, (5,), 4), seed=3)
        qnet = quantize_network(net, Q412)
        xs = np.random.default_rng(4).uniform(0, 1, size=(10, 6))
        first = [q_forward(qnet, x) for x in xs]
        reloaded = parse_qmodel(format_qmodel(qnet))
        second = [q_forward(reloaded, x) for x in xs]
        assert first == second

    def test_agreement_with_float_on_random_nets(self):
        rng = np.random.default_rng(5)
        agree = total = 0
        for seed in range(10):
            net = init_network(NetworkLayout(7, (6,), 4), seed=seed)
            qnet = quantize_network(net, Q412)
            X = rng.uniform(0, 1, size=(50, 7))
            fcls = np.argmax(forward(net, X), axis=1)
            qcls = q_predict_class(qnet, X)
            agree += int(np.sum(fcls == qcls))
            total += len(X)
        assert agree / total >= 0.95


def random_qnet(rng, fmt, sizes):
    """Integer weights and biases of mixed magnitude, up to the word range."""
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = min(1 << int(rng.integers(0, fmt.total_bits)), fmt.max_int)
        weights.append(rng.integers(-limit, limit + 1,
                                    (fan_out, fan_in)).tolist())
        biases.append(rng.integers(-limit, limit + 1, fan_out).tolist())
    return QNetwork(weights=weights, biases=biases,
                    tanh_lut=build_tanh_lut(fmt), format=fmt,
                    layer_sizes=tuple(sizes))


def assert_batch_matches_scalar(qnet, X):
    classes, acc = q_forward_batch(qnet, X)
    assert classes.dtype == np.int64 and acc.dtype == np.int64
    for row, cls, out in zip(X, classes, acc):
        ref_cls, ref_out = q_forward(qnet, row)
        assert int(cls) == ref_cls
        assert out.tolist() == ref_out
    np.testing.assert_array_equal(q_predict_class(qnet, X), classes)


class TestQForwardBatch:
    @given(
        total_bits=st.integers(min_value=8, max_value=32),
        frac_offset=st.integers(min_value=0, max_value=26),
        hidden=st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                        max_size=3),
        fan_in=st.integers(min_value=1, max_value=45),
        n_out=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_q_forward_row_by_row(self, total_bits, frac_offset,
                                          hidden, fan_in, n_out, seed):
        frac_bits = 5 + frac_offset % (total_bits - 5)
        fmt = FixedFormat(total_bits, frac_bits)
        rng = np.random.default_rng(seed)
        qnet = random_qnet(rng, fmt, [fan_in, *hidden, n_out])
        # inputs beyond [0, 1] push the input conversion, the layer
        # saturation and the LUT clamps
        X = rng.uniform(-1.0, 2.0, size=(int(rng.integers(1, 25)), fan_in))
        assert_batch_matches_scalar(qnet, X)

    def test_single_row_vector(self):
        qnet = quantize_network(init_network(NetworkLayout(5, (4,), 3),
                                             seed=2), Q412)
        x = np.random.default_rng(1).uniform(0, 1, 5)
        classes, acc = q_forward_batch(qnet, x)
        assert (int(classes[0]), acc[0].tolist()) == q_forward(qnet, x)

    def test_non_finite_input_rejected(self):
        qnet = quantize_network(zero_net([3, 2, 2]), Q412)
        with pytest.raises(ValueError):
            q_forward_batch(qnet, np.array([[0.5, np.nan, 0.1]]))

    def test_headroom_rule(self):
        # 2*(16-1) + ceil(log2(42)) + 1 = 37 bits; 2*(32-1) + 6 + 1 = 69
        assert accumulator_dtype(Q412, 41) is np.int64
        assert accumulator_dtype(FixedFormat(32, 16), 41) is object
        # fan_in 1 -> 2*31 + 1 + 1 = 64 bits, one too many
        assert accumulator_dtype(FixedFormat(32, 16), 1) is object
        # 2*30 + ceil(log2(4)) + 1 = 63 bits: the widest that stays int64
        assert accumulator_dtype(FixedFormat(31, 16), 3) is np.int64
        assert accumulator_dtype(FixedFormat(31, 16), 4) is object

    def test_wide_format_uses_python_ints_and_never_wraps(self, monkeypatch):
        # q16.16 words with weights of +-32767.0 on a 41-20-6 net, inputs
        # across the word range: the first layer's sums need more than
        # 64 bits, so int64 accumulators would wrap
        fmt = FixedFormat(32, 16)
        rng = np.random.default_rng(3)
        net = init_network(NetworkLayout(41, (20,), 6), seed=3)
        for W, b in zip(net.weights, net.biases):
            W[:] = rng.choice([-32767.0, 32767.0], size=W.shape)
            b[:] = 0.0
        qnet = quantize_network(net, fmt)
        X = rng.uniform(-32768.0, 32768.0, size=(200, 41))
        assert accumulator_dtype(fmt, 41) is object
        assert accumulator_dtype(fmt, 20) is object
        assert_batch_matches_scalar(qnet, X)

        # the case is a real overflow: plain int64 gets classes wrong
        monkeypatch.setattr(fixedpoint, "accumulator_dtype",
                            lambda f, fan_in: np.int64)
        wrapped = q_predict_class(qnet, X)
        expected = [q_forward(qnet, row)[0] for row in X]
        assert int(np.sum(wrapped != expected)) > 0
