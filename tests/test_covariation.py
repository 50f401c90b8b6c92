import dataclasses

import numpy as np
import pytest
from scipy.stats import chi2

from fos.covariation import (CcaResult, bartlett_test, cca,
                             covariation_sequence, regression_coefficients)


def make_correlated(n=200, rho=0.85, seed=0):
    rng = np.random.default_rng(seed)
    shared = rng.normal(size=n)
    x = np.column_stack([shared + 0.3 * rng.normal(size=n),
                         rng.normal(size=n)])
    y = np.column_stack([rho * shared + np.sqrt(1 - rho ** 2)
                         * rng.normal(size=n), rng.normal(size=n),
                         rng.normal(size=n)])
    return x, y


def test_cca_recovers_planted_correlation():
    x, y = make_correlated()
    res = cca(x, y)
    assert res.correlations.shape == (2,)
    assert np.all(np.diff(res.correlations) <= 1e-12)
    assert 0.7 <= res.correlations[0] <= 0.95
    # variates realize the canonical correlations
    for j in range(2):
        r = np.corrcoef(res.x_variates[:, j], res.y_variates[:, j])[0, 1]
        assert np.isclose(abs(r), res.correlations[j], atol=1e-8)


def test_cca_invariant_under_invertible_block_transforms():
    x, y = make_correlated(seed=1)
    rng = np.random.default_rng(2)
    ax = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    ay = rng.normal(size=(3, 3)) + 2 * np.eye(3)
    base = cca(x, y).correlations
    moved = cca(x @ ax + 1.5, y @ ay - 0.7).correlations
    assert np.abs(base - moved).max() <= 1e-8


def test_cca_perfect_correlation_clipped_to_one():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 2))
    res = cca(x, x @ np.array([[1.0, 0.2], [0.0, 1.0]]))
    assert np.all(res.correlations <= 1.0)
    assert res.correlations[0] >= 1.0 - 1e-10


def test_bartlett_matches_textbook_formula():
    x, y = make_correlated(seed=4)
    res = cca(x, y)
    bt = bartlett_test(res)
    n, p, q = len(x), 2, 3
    for el in range(2):
        stat = -(n - 1 - (p + q + 1) / 2.0) * np.sum(
            np.log(1.0 - res.correlations[el:] ** 2))
        dof = (p - el) * (q - el)
        assert abs(bt.statistics[el] - stat) <= 1e-12 * max(1.0, stat)
        assert bt.dof[el] == dof
    assert np.array_equal(bt.p_values, chi2.sf(bt.statistics, bt.dof))


def _bartlett_of(correlations, n, p, q):
    m = len(correlations)
    empty = np.zeros((n, m))
    return bartlett_test(CcaResult(
        np.asarray(correlations, float), np.zeros((p, m)), np.zeros((q, m)),
        empty, empty, n))


def test_bartlett_p_values_at_the_extremes():
    # no correlation: every statistic is 0 and every p-value 1
    bt = _bartlett_of([0.0, 0.0], n=50, p=2, q=3)
    assert np.all(bt.statistics == 0.0)
    assert np.array_equal(bt.p_values, [1.0, 1.0])
    assert np.array_equal(bt.p_values, chi2.sf(bt.statistics, bt.dof))
    # a perfect first pair: the first p-value underflows to 0
    bt = _bartlett_of([1.0, 0.5], n=500, p=2, q=3)
    assert bt.p_values[0] == 0.0 and bt.p_values[1] > 0.0
    assert np.array_equal(bt.p_values, chi2.sf(bt.statistics, bt.dof))


def test_bartlett_significance_pattern():
    x, y = make_correlated(n=300, rho=0.9, seed=5)
    bt = bartlett_test(cca(x, y))
    assert bt.p_values[0] < 1e-6          # the planted pair
    assert bt.p_values[1] > 0.01          # nothing beyond it


def test_bartlett_independent_blocks_not_significant():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(120, 2))
    y = rng.normal(size=(120, 3))
    bt = bartlett_test(cca(x, y))
    assert bt.p_values[0] > 0.05


def test_regression_coefficients_exact_on_linear_data():
    rng = np.random.default_rng(7)
    t = rng.normal(size=50)
    slopes = np.array([2.0, -1.5, 0.25])
    responses = 3.0 + np.outer(t, slopes)
    est = regression_coefficients(t, responses)
    assert np.abs(est - slopes).max() <= 1e-10
    with pytest.raises(ValueError):
        regression_coefficients(np.ones(5), responses[:5])


def test_covariation_sequence_is_linear_through_the_mean():
    x, y = make_correlated(seed=8)
    res = cca(x, y)
    seq = covariation_sequence(res, 0, [-2.0, 0.0, 2.0],
                               x_scores=x, y_scores=y)
    assert np.abs(seq["x"][1] - x.mean(axis=0)).max() <= 1e-10
    assert np.abs(seq["y"][1] - y.mean(axis=0)).max() <= 1e-10
    # symmetric t values straddle the mean linearly
    assert np.abs(seq["x"][0] + seq["x"][2] - 2 * seq["x"][1]).max() <= 1e-10


def test_cca_input_validation():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        cca(rng.normal(size=(5, 2)), rng.normal(size=(6, 2)))
    with pytest.raises(ValueError):
        cca(rng.normal(size=2), rng.normal(size=2))
    with pytest.raises(ValueError):
        cca(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))


def test_degenerate_cca_is_refused():
    # with p + q >= n - 1 every canonical correlation reads 1
    rng = np.random.default_rng(10)
    for n, p, q in ((4, 3, 3), (5, 2, 2)):
        with pytest.raises(ValueError):
            cca(rng.normal(size=(n, p)), rng.normal(size=(n, q)))
    res = cca(rng.normal(size=(6, 2)), rng.normal(size=(6, 2)))
    assert np.all(res.correlations < 1.0)
    assert np.all(bartlett_test(res).p_values < 1.0)
    # too few subjects for the sizes make the Bartlett factor non-positive
    with pytest.raises(ValueError):
        bartlett_test(dataclasses.replace(res, n=3))
