import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbench import (
    DimensionError,
    ParameterError,
    PortfolioWeights,
    ReturnWindow,
    ValidationError,
    equal_weights,
    sample_stats,
    short_window_std,
)

from numpy.lib.stride_tricks import sliding_window_view

from riskbench.returns import _block_days, _sliding_absmax, stacked_moments

from _oracles import brute_force_cov


def test_window_validation():
    with pytest.raises(DimensionError):
        ReturnWindow.from_matrix(np.array([[0.01, 0.02]]))  # n < 2
    with pytest.raises(ValidationError):
        ReturnWindow.from_matrix(np.array([[0.01], [np.nan]]))
    with pytest.raises(ValidationError):
        ReturnWindow(data=np.zeros((3, 2)) + 0.01, asset_ids=("a", "a"))
    with pytest.raises(DimensionError):
        ReturnWindow(data=np.zeros((3, 2)) + 0.01, asset_ids=("a",))


def test_window_immutable():
    src = np.array([[0.01, 0.02], [0.03, 0.04]])
    w = ReturnWindow.from_matrix(src)
    with pytest.raises(ValueError):
        w.data[0, 0] = 1.0
    src[0, 0] = 99.0  # the window holds its own copy
    assert w.data[0, 0] == 0.01


def test_sample_stats_identical_rows():
    w = ReturnWindow.from_matrix(np.tile([0.01, -0.02], (5, 1)))
    s = sample_stats(w)
    assert np.all(s.cov == 0.0)
    assert np.all(s.std == 0.0)


def test_sample_stats_hand_example():
    w = ReturnWindow.from_matrix(np.array([[1, 2], [3, 4], [5, 6]]) * 1e-2)
    s = sample_stats(w)
    np.testing.assert_allclose(s.mean, [0.03, 0.04], rtol=1e-14)
    np.testing.assert_allclose(s.cov, np.full((2, 2), 4e-4), rtol=1e-12)


def test_sample_stats_single_asset():
    w = ReturnWindow.from_matrix(np.array([0.01, -0.01]))
    s = sample_stats(w)
    assert s.mean[0] == pytest.approx(0.0, abs=1e-18)
    assert s.cov[0, 0] == pytest.approx(2e-4, rel=1e-12)


def test_sample_stats_requires_two_rows():
    with pytest.raises(DimensionError):
        ReturnWindow.from_matrix(np.array([[0.01, 0.02]]))


@pytest.mark.parametrize("seed", range(5))
def test_cov_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 50))
    k = int(rng.integers(1, 6))
    data = rng.normal(0, 0.02, size=(n, k))
    s = sample_stats(ReturnWindow.from_matrix(data))
    np.testing.assert_allclose(s.cov, brute_force_cov(data), rtol=1e-12, atol=1e-20)
    np.testing.assert_allclose(s.std**2, np.diag(s.cov), rtol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_stats_permutation_invariant(seed):
    rng = np.random.default_rng(100 + seed)
    data = rng.normal(0, 0.02, size=(20, 3))
    s1 = sample_stats(ReturnWindow.from_matrix(data))
    s2 = sample_stats(ReturnWindow.from_matrix(data[rng.permutation(20)]))
    np.testing.assert_allclose(s1.mean, s2.mean, rtol=1e-12, atol=1e-18)
    np.testing.assert_allclose(s1.cov, s2.cov, rtol=1e-10, atol=1e-20)


def test_short_window_std_full_window_matches_sample_std():
    rng = np.random.default_rng(42)
    data = rng.normal(0, 0.02, size=(30, 4))
    w = ReturnWindow.from_matrix(data)
    s = sample_stats(w)
    sigma_r = short_window_std(w, w.n, s.mean)
    np.testing.assert_allclose(sigma_r, s.std, rtol=1e-12)


def test_short_window_std_upward_bias_on_calm_data():
    # about an external mean with the count-1 divisor, the short std carries
    # a sqrt(n_r/(n_r-1)) scale inflation on homoscedastic data
    rng = np.random.default_rng(424)
    draws = []
    for _ in range(400):
        w = ReturnWindow.from_matrix(rng.normal(0, 0.01, size=(250, 1)))
        s = sample_stats(w)
        draws.append(short_window_std(w, 4, s.mean)[0] / s.std[0])
    assert np.mean(draws) == pytest.approx(np.sqrt(4 / 3) * 0.9399, rel=0.03)


def test_short_window_std_zero_when_rows_equal_mean():
    data = np.vstack([np.full((3, 2), 0.01), np.full((2, 2), 0.005)])
    w = ReturnWindow.from_matrix(data)
    sigma_r = short_window_std(w, 2, np.array([0.005, 0.005]))
    np.testing.assert_array_equal(sigma_r, [0.0, 0.0])


def test_short_window_std_hand_example():
    # two recent returns 0.02 and -0.02 about an external mean of zero:
    # sqrt((4e-4 + 4e-4) / 1)
    w = ReturnWindow.from_matrix(np.array([0.0, 0.02, -0.02]))
    sigma_r = short_window_std(w, 2, [0.0])
    assert sigma_r[0] == pytest.approx(np.sqrt(8e-4), rel=1e-14)


def test_short_window_std_range_errors():
    w = ReturnWindow.from_matrix(np.zeros((5, 2)) + 0.01)
    for bad in (0, 1, 6, -1):
        with pytest.raises(ParameterError):
            short_window_std(w, bad, [0.01, 0.01])


def test_weights_validation():
    with pytest.raises(ValidationError):
        PortfolioWeights(np.array([0.5, 0.6]))
    PortfolioWeights(np.array([0.5, 0.5]))
    PortfolioWeights(np.array([1.5, -0.5]))  # shorting allowed, sum still 1


@st.composite
def sliding_max_cases(draw):
    """Columns with flat stretches, repeated values and signed zeros, and a
    window that need not divide the history length."""
    k = draw(st.integers(1, 3))
    t = draw(st.integers(2, 60))
    window = draw(st.integers(1, t))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = np.array([0.0, -0.0, 0.5, -0.5, 1e-300, -2.0, 3.0])
    data = np.where(rng.random((k, t)) < 0.5, rng.choice(special, (k, t)),
                    rng.normal(0, 5, (k, t)))
    for _ in range(draw(st.integers(0, 3))):  # flat stretches
        row, start = draw(st.integers(0, k - 1)), draw(st.integers(0, t - 1))
        data[row, start:start + draw(st.integers(1, t))] = draw(st.sampled_from(list(special)))
    return data, window


@settings(max_examples=300, deadline=None)
@given(sliding_max_cases())
def test_sliding_absmax_equals_the_window_maximum(case):
    columns, window = case
    expected = np.array([np.abs(columns[:, d:d + window]).max(axis=1)
                         for d in range(columns.shape[1] - window + 1)]).T
    np.testing.assert_array_equal(_sliding_absmax(columns, window), expected)


@st.composite
def moment_histories(draw, windows=st.integers(2, 40), extra_days=st.integers(1, 45),
                     counts=st.integers(1, 3)):
    """Histories of one shape whose later rows shift in mean or scale, whose
    one column turns constant, or whose one column is (nearly) collinear
    with another, and a window."""
    k = draw(st.integers(1, 6))
    window = draw(windows)
    histories = []
    for _ in range(draw(counts)):
        t0 = window + draw(extra_days)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        data = rng.normal(rng.normal(0, 0.001, k), 0.01, (t0, k))
        cut = draw(st.integers(0, t0 - 1))
        col = draw(st.integers(0, k - 1))
        kind = draw(st.sampled_from(["mean-shift", "scale-shift", "late-constant"]
                                    + (["collinear"] if k > 1 else [])))
        if kind == "mean-shift":
            data[cut:] += draw(st.sampled_from([-0.5, 0.02, 1.0]))
        elif kind == "scale-shift":
            data[cut:] *= draw(st.sampled_from([1e-3, 0.2, 5.0, 1e3]))
        elif kind == "late-constant":
            data[cut:, col] = draw(st.sampled_from([0.0, 0.0123, -0.02]))
        else:
            other = (col + draw(st.integers(1, k - 1))) % k
            factor = draw(st.floats(-3.0, 3.0).filter(lambda a: a == 0 or abs(a) > 1e-3))
            data[:, col] = (factor * data[:, other]
                            + draw(st.sampled_from([0.0, 1e-8, 1e-6])) * rng.standard_normal(t0))
        histories.append(data)
    return histories, window


@settings(max_examples=100, deadline=None)
@given(moment_histories())
def test_stacked_moments_match_the_two_pass_reference(case):
    # Entries are compared relative to their columns' stds (a constant
    # column's std is rounding noise, held to its floor instead).
    histories, window = case
    moments = stacked_moments(histories, window)
    assert moments.std.tobytes() == np.sqrt(np.diagonal(moments.cov, axis1=1, axis2=2)).tobytes()
    day = 0
    for data in histories:
        for start in range(data.shape[0] - window):
            rows = data[start:start + window]
            win = ReturnWindow.from_matrix(rows)
            stats = sample_stats(win)
            std = short_window_std(win, window, stats.mean)
            constant = (rows == rows[0]).all(axis=0)
            assert (moments.std[day, constant] <= 2 * moments.floor[day, constant]).all()
            live = ~constant
            tol = 1e-12 * np.outer(std, std)
            assert (np.abs(moments.cov[day] - stats.cov) <= tol)[np.ix_(live, live)].all()
            assert (np.abs(moments.std[day] - std) <= 1e-12 * std)[live].all()
            assert (np.abs(moments.mean[day] - stats.mean)
                    <= 1e-12 * (np.abs(stats.mean) + std)).all()
            day += 1
    assert day == moments.days


def two_pass_moments(data, window):
    """The mean and covariance of every window of ``data`` (``T x k``) as
    the two-pass moments compute them: each window centred on its own mean,
    then reduced by its product and symmetrized."""
    views = sliding_window_view(np.ascontiguousarray(data.T), window, axis=1)[:, :-1]
    views = views.transpose(1, 0, 2)
    mean = views.mean(axis=2)
    dev = views - mean[:, :, None]
    cov = dev @ dev.transpose(0, 2, 1) / (window - 1)
    return mean, (cov + cov.transpose(0, 2, 1)) / 2.0


@settings(max_examples=25, deadline=None)
@given(moment_histories(windows=st.integers(120, 500), extra_days=st.integers(1, 300),
                        counts=st.integers(1, 2)))
def test_shifted_moments_match_the_two_pass_moments_at_cli_windows(case):
    # Windows of CLI length span several blocks of the shifted pass, so a
    # block's shift lies far from the means of its later windows whenever a
    # column shifts, scales or turns constant inside it.
    histories, window = case
    moments = stacked_moments(histories, window)
    assert moments.cov.tobytes() == moments.cov.transpose(0, 2, 1).tobytes()
    day = 0
    for data in histories:
        mean, cov = two_pass_moments(data, window)
        days = len(mean)
        np.testing.assert_array_equal(moments.mean[day:day + days], mean)
        std = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
        rows = sliding_window_view(data, window, axis=0)[:-1]
        constant = (rows == rows[:, :, :1]).all(axis=2)
        got = moments.std[day:day + days]
        assert (got[constant] <= 2 * moments.floor[day:day + days][constant]).all()
        live = ~constant
        tol = 1e-12 * std[:, :, None] * std[:, None, :]
        both = live[:, :, None] & live[:, None, :]
        assert (np.abs(moments.cov[day:day + days] - cov) <= tol)[both].all()
        assert (np.abs(got - std) <= 1e-12 * std)[live].all()
        day += days
    assert day == moments.days


def test_windows_the_drift_screen_flags_keep_the_two_pass_bits():
    # Window 250 cuts a history into blocks of 128 days. From row 300 one
    # column of the first history is constant, and every column of the
    # second shrinks a thousandfold: the block of days 256-383 is shifted by
    # the mean of rows 256-505, far (in stds) from the means of its windows
    # that start at row 300 or later, so the screen sends those to the
    # two-pass moments.
    window = 250
    rng = np.random.default_rng(11)
    late_constant = rng.normal(0.002, 0.01, (window + 400, 3))
    late_constant[300:, 1] = 0.0123
    scale_shift = rng.normal(0.002, 0.01, (window + 400, 3))
    scale_shift[300:] *= 1e-3
    assert _block_days(3, window) == 128
    moments = stacked_moments([late_constant, scale_shift], window)
    flagged = np.arange(300, 384)
    for i, data in enumerate((late_constant, scale_shift)):
        mean, cov = two_pass_moments(data, window)
        np.testing.assert_array_equal(moments.mean[400 * i:400 * (i + 1)], mean)
        np.testing.assert_array_equal(moments.cov[400 * i + flagged], cov[flagged])
        # the days before the change come from the shifted sums
        assert (moments.cov[400 * i:400 * i + 50] != cov[:50]).any()


@pytest.mark.parametrize("start, stop", [(1, 40), (127, 300), (129, 130), (200, 400)])
def test_a_span_inside_a_block_has_the_bits_of_the_whole_history(start, stop):
    # The engine cuts a history only where a moment block starts: the days
    # [start, stop) come from the slice that starts at their first block,
    # and may end inside a block, whose days keep the full-block sums.
    window = 250
    first = start - start % _block_days(3, window)
    rng = np.random.default_rng(start)
    data = rng.normal(0.001, 0.01, (window + 400, 3))
    data[330:, 2] = -0.02  # days 330-383 of its block are flagged
    whole = stacked_moments([data], window)
    stacked = stacked_moments([rng.normal(0, 0.01, (window + 5, 3)),
                               data[first:stop + window]], window)
    days = slice(5 + start - first, None)
    for name in ("mean", "cov", "std", "floor", "pivots"):
        assert (getattr(stacked, name)[days].tobytes()
                == getattr(whole, name)[start:stop].tobytes()), name
    assert stacked.short_std(4)[days].tobytes() == whole.short_std(4)[start:stop].tobytes()
