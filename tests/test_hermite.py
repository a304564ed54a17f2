"""Univariate Hermite polynomials and Gauss rules."""

import numpy as np
import pytest
import sympy

from hermgrid.errors import LevelTooLarge
from hermgrid.hermite import MAX_LEVEL, gauss_hermite_rule, hermite_eval_all
from hermgrid.indexset import MultiIndex
from hermgrid.smolyak import HermitePolynomial

from util import gaussian_moment, golub_welsch_rule


def test_point_values():
    assert hermite_eval_all(0, 1.7)[0] == 1.0
    assert hermite_eval_all(1, 2.5)[1] == 2.5
    np.testing.assert_allclose(hermite_eval_all(2, 0.0)[2], -1.0 / np.sqrt(2), rtol=1e-14)


def test_eval_all_matches_single():
    xs = [-3.0, -0.4, 0.0, 1.0, 2.7]
    for x in xs:
        table = hermite_eval_all(9, x)
        for k in range(10):
            assert table[k] == pytest.approx(hermite_eval_all(k, x)[k], rel=1e-15)


def test_eval_all_examples():
    np.testing.assert_allclose(
        hermite_eval_all(2, 0.0), [1.0, 0.0, -1.0 / np.sqrt(2)], atol=1e-15
    )
    np.testing.assert_allclose(hermite_eval_all(0, -3.0), [1.0])
    np.testing.assert_allclose(
        hermite_eval_all(3, 1.0), [1.0, 1.0, 0.0, -2.0 / np.sqrt(6)], atol=1e-15
    )


def test_against_symbolic_derivative_definition():
    # independent oracle: (-1)^k / sqrt(k!) * e^{x^2/2} d^k/dx^k e^{-x^2/2}
    x = sympy.Symbol("x")
    gauss = sympy.exp(-x ** 2 / 2)
    rng = np.random.default_rng(7)
    points = rng.uniform(-4.0, 4.0, 20)
    for k in range(9):
        expr = (
            (-1) ** k
            / sympy.sqrt(sympy.factorial(k))
            * sympy.exp(x ** 2 / 2)
            * sympy.diff(gauss, x, k)
        )
        poly = sympy.lambdify(x, sympy.expand(expr), "numpy")
        expected = poly(points) * np.ones_like(points)
        got = np.array([hermite_eval_all(k, float(p))[k] for p in points])
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)


def test_rule_level_zero():
    rule = gauss_hermite_rule(0)
    np.testing.assert_array_equal(rule.nodes, [0.0])
    np.testing.assert_array_equal(rule.weights, [1.0])


def test_rule_level_one_and_two():
    r1 = gauss_hermite_rule(1)
    np.testing.assert_allclose(r1.nodes, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(r1.weights, [0.5, 0.5], atol=1e-14)
    r2 = gauss_hermite_rule(2)
    np.testing.assert_allclose(r2.nodes, [-np.sqrt(3), 0.0, np.sqrt(3)], atol=1e-14)
    np.testing.assert_allclose(r2.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-14)


@pytest.mark.parametrize("n", range(0, 17))
def test_node_symmetry_and_weights(n):
    rule = gauss_hermite_rule(n)
    assert np.all(np.diff(rule.nodes) > 0)
    np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-12)
    np.testing.assert_array_equal(rule.weights, rule.weights[::-1])
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)
    if n % 2 == 0:
        assert rule.nodes[n // 2] == 0.0


@pytest.mark.parametrize("n", range(0, 13))
def test_moment_exactness(n):
    rule = gauss_hermite_rule(n)
    for degree in range(0, 2 * n + 2):
        got = float(np.sum(rule.weights * rule.nodes ** degree))
        exact = gaussian_moment(degree)
        if degree % 2 == 0:
            assert abs(got - exact) <= 1e-9 * abs(exact)
        else:
            # exact value is 0; measure against the conditioning scale
            scale = float(np.sum(rule.weights * np.abs(rule.nodes) ** degree))
            assert abs(got) <= 1e-9 * max(1.0, scale)


def test_orthonormality():
    for m in range(17):
        for k in range(17):
            level = (m + k) // 2
            rule = gauss_hermite_rule(level)
            table = hermite_eval_all(max(m, k), rule.nodes)
            got = float(np.sum(rule.weights * table[:, m] * table[:, k]))
            assert abs(got - (1.0 if m == k else 0.0)) <= 1e-10


def test_rules_equal_scipy_golub_welsch_bitwise():
    # the dense numpy solve reproduces the tridiagonal solver's digits, so
    # every node and weight downstream is unchanged
    differ = []
    for n in range(MAX_LEVEL + 1):
        rule = gauss_hermite_rule(n)
        nodes, weights = golub_welsch_rule(n)
        if not (np.array_equal(rule.nodes, nodes) and np.array_equal(rule.weights, weights)):
            differ.append(n)
    assert differ == []


def test_level_cap():
    gauss_hermite_rule(MAX_LEVEL)
    with pytest.raises(LevelTooLarge):
        gauss_hermite_rule(MAX_LEVEL + 1)


def tensor_hermite(nu, y) -> float:
    """The tensor Hermite polynomial of ``nu`` at ``y``, as a one-term expansion."""
    return HermitePolynomial([nu], [[1.0]]).eval(y)[0]


def test_tensor_eval():
    assert tensor_hermite(MultiIndex(), [5.0, 1.0]) == 1.0
    nu = MultiIndex.from_dict({0: 2})
    np.testing.assert_allclose(
        tensor_hermite(nu, [0.0, 3.0]), -1.0 / np.sqrt(2), rtol=1e-14
    )
    nu2 = MultiIndex.from_dict({0: 1, 2: 1})
    assert tensor_hermite(nu2, [2.0, 9.0, 3.0]) == pytest.approx(6.0)
    # coordinates beyond the vector length count as zero
    nu3 = MultiIndex.from_dict({0: 1, 5: 2})
    expected = 2.0 * hermite_eval_all(2, 0.0)[2]
    assert tensor_hermite(nu3, [2.0]) == pytest.approx(expected, rel=1e-14)
