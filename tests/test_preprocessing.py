import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idpskit.exceptions import DegenerateSplitError
from idpskit.ingest import Dataset
from idpskit.preprocessing import (
    RangeScaler,
    SplitSpec,
    fit_scaler,
    one_hot,
    split_dataset,
)


def make_dataset(n, width=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(X=rng.normal(size=(n, width)), y=rng.integers(0, 6, size=n))


class TestSplitSpec:
    def test_fractions_must_be_positive(self):
        with pytest.raises(ValueError):
            SplitSpec(1.0, -0.1, 0.1, seed=0)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.2, 0.2, seed=0)


class TestSplitDataset:
    def test_seventy_fifteen_fifteen_sizes(self):
        d = Dataset(X=np.zeros((311030, 1)), y=np.zeros(311030, dtype=np.int64))
        train, val, test = split_dataset(d, SplitSpec(0.70, 0.15, 0.15, seed=0))
        assert (len(train), len(val), len(test)) == (217720, 46655, 46655)

    def test_small_round_half_up(self):
        d = make_dataset(10)
        train, val, test = split_dataset(d, SplitSpec(0.8, 0.1, 0.1, seed=0))
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_same_seed_identical(self):
        d = make_dataset(50)
        spec = SplitSpec(0.6, 0.2, 0.2, seed=9)
        a = split_dataset(d, spec)
        b = split_dataset(d, spec)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.X, pb.X)
            np.testing.assert_array_equal(pa.y, pb.y)

    def test_no_shuffle_is_sequential(self):
        d = make_dataset(10)
        train, val, test = split_dataset(
            d, SplitSpec(0.8, 0.1, 0.1, seed=0), shuffle=False
        )
        np.testing.assert_array_equal(train.X, d.X[:8])
        np.testing.assert_array_equal(val.X, d.X[8:9])
        np.testing.assert_array_equal(test.X, d.X[9:])

    def test_degenerate_split(self):
        d = make_dataset(3)
        with pytest.raises(DegenerateSplitError):
            split_dataset(d, SplitSpec(0.98, 0.01, 0.01, seed=0))

    def test_too_small(self):
        d = make_dataset(2)
        with pytest.raises(DegenerateSplitError):
            split_dataset(d, SplitSpec(0.5, 0.25, 0.25, seed=0))

    @given(
        n=st.integers(min_value=10, max_value=400),
        seed=st.integers(min_value=0, max_value=2**31),
        fracs=st.sampled_from(
            [(0.70, 0.15, 0.15), (0.8, 0.1, 0.1), (0.5, 0.25, 0.25),
             (0.34, 0.33, 0.33)]
        ),
    )
    @settings(max_examples=60)
    def test_disjoint_exhaustive_size_exact(self, n, seed, fracs):
        from fractions import Fraction

        d = Dataset(X=np.arange(n, dtype=np.float64).reshape(-1, 1),
                    y=np.zeros(n, dtype=np.int64))
        train, val, test = split_dataset(d, SplitSpec(*fracs, seed=seed))
        ids = np.concatenate([p.X[:, 0] for p in (train, val, test)])
        assert sorted(ids.tolist()) == list(range(n))
        expect_val = int(n * Fraction(fracs[1]).limit_denominator(10**6)
                         + Fraction(1, 2))
        expect_test = int(n * Fraction(fracs[2]).limit_denominator(10**6)
                          + Fraction(1, 2))
        assert len(val) == expect_val
        assert len(test) == expect_test
        assert len(train) == n - expect_val - expect_test


class TestRangeScaler:
    def test_single_record(self):
        scaler = RangeScaler().fit([[1.0, -2.0, 5.0]])
        np.testing.assert_array_equal(scaler.min_, [1.0, -2.0, 5.0])
        np.testing.assert_array_equal(scaler.max_, [1.0, -2.0, 5.0])

    def test_constant_feature_maps_to_zero(self):
        scaler = RangeScaler().fit([[0.0, 1.0], [0.0, 3.0]])
        out = scaler.transform([[0.0, 2.0], [7.0, 3.0]])
        assert out[0, 0] == 0.0
        assert out[1, 0] == 0.0

    def test_min_max_of_two(self):
        scaler = RangeScaler().fit([[0.0], [4.0]])
        assert scaler.min_[0] == 0.0
        assert scaler.max_[0] == 4.0
        assert scaler.transform([[2.0]])[0, 0] == 0.5

    def test_training_min_maps_to_zeros(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 5))
        scaler = RangeScaler().fit(X)
        out = scaler.transform(scaler.min_.reshape(1, -1))
        np.testing.assert_array_equal(out, np.zeros((1, 5)))

    def test_clamp_above_max(self):
        scaler = RangeScaler().fit([[0.0], [4.0]])
        assert scaler.transform([[100.0]])[0, 0] == 1.0
        assert scaler.transform([[-100.0]])[0, 0] == 0.0

    def test_fit_on_train_only(self):
        train = make_dataset(30, width=4, seed=1)
        scaler = fit_scaler(train)
        extreme_val = Dataset(X=train.X * 1000, y=train.y)
        scaler.transform(extreme_val.X)  # read-side use must not refit
        np.testing.assert_array_equal(scaler.min_, train.X.min(axis=0))
        np.testing.assert_array_equal(scaler.max_, train.X.max(axis=0))

    def test_transform_vector(self):
        scaler = RangeScaler().fit([[0.0, 0.0], [4.0, 2.0]])
        out = scaler.transform(np.array([2.0, 1.0]))
        assert out.shape == (2,)
        np.testing.assert_allclose(out, [0.5, 0.5])

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=4, max_size=40,
        )
    )
    @settings(max_examples=80)
    def test_scale_unscale_round_trip(self, values):
        X = np.array(values).reshape(-1, 1)
        scaler = RangeScaler().fit(X)
        if scaler.max_[0] == scaler.min_[0]:
            return  # constant feature: forward map is lossy by design
        back = scaler.inverse_transform(scaler.transform(X))
        # relative to the feature's own magnitude, the natural scale of
        # the (x - min) / span * span + min round trip
        scale = max(abs(scaler.min_[0]), abs(scaler.max_[0]), 1.0)
        assert np.all(np.abs(back - X) / scale < 1e-12)

    def test_unfitted_raises(self):
        with pytest.raises(ValueError):
            RangeScaler().transform([[1.0]])

    def test_get_params_round_trip(self):
        scaler = RangeScaler()
        assert scaler.get_params() == {}
        assert scaler.set_params() is scaler


class TestOneHot:
    def test_first_class(self):
        np.testing.assert_array_equal(one_hot(0, 6), [1, 0, 0, 0, 0, 0])

    def test_last_class(self):
        np.testing.assert_array_equal(one_hot(5, 6), [0, 0, 0, 0, 0, 1])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(6, 6)
        with pytest.raises(ValueError):
            one_hot(-1, 6)

    @given(k=st.integers(min_value=1, max_value=12), data=st.data())
    def test_properties(self, k, data):
        label = data.draw(st.integers(min_value=0, max_value=k - 1))
        vec = one_hot(label, k)
        assert vec.sum() == 1.0
        assert vec[label] == 1.0
        assert len(vec) == k
