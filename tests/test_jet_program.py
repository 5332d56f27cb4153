"""The chart's compiled jet program: evaluated order by order, with every
domain check of the expression evaluator and the same error text, and built
once per field.  The bit-identity oracle for its values is in
tests/test_walks.py."""

import numpy as np
import pytest

from curvkit import expr
from curvkit.chart import MetricField
from curvkit.errors import DomainError, SingularMetric

# Entries g_yy whose third partials leave the domain at the point while g
# and its first partials stay finite, with the message each query raised
# when every node was evaluated through a table keyed by node identity.
THIRD_ORDER_FAILURES = {
    # d^3/dy^3 log(y) divides by (y^2)^2, which underflows to 0
    "log": ("2 + 0.001*log(y)", (0.3, 1e-100),
            "division by zero in '-(-1.0*(2.0*y))/(y^2.0)^2.0'"),
    # the third partial of sqrt(y) divides by ((2*sqrt(y))^2)^2
    "sqrt": ("2 + sqrt(y)", (0.3, 1e-180),
             "division by zero in '(-(2.0*(.../...))*(2.0*sqrt(...))^2.0--(2.0*"
             "(.../(...)))*(2.0*(...*...)*(2.0*(.../(...)))))/((2.0*sqrt(y))^2.0)^2.0'"),
    # the third partial of c/y divides by ((y^2)^2)^2
    "div": ("2 + 1e-200/y", (0.3, 1e-60),
            "division by zero in '(2e-200*(y^2.0)^2.0--(-1e-200*(...*...))*"
            "(2.0*...^...*(2.0*y)))/((y^2.0)^2.0)^2.0'"),
    "pow": ("1 + y^2.5", (0.3, 0.0),
            "zero raised to a negative power in 'y^(-0.5)'"),
}


@pytest.mark.parametrize("case", sorted(THIRD_ORDER_FAILURES))
def test_third_order_domain_error_only_from_curvature_queries(case):
    entry, point, message = THIRD_ORDER_FAILURES[case]
    field = MetricField(["x", "y"], {(0, 0): "1", (1, 1): entry})
    assert np.isfinite(field.metric_at(point).mat).all()
    assert np.isfinite(field.christoffel(point)).all()
    for query in (field.curvature_bundle, field.nabla_riemann):
        with pytest.raises(DomainError) as info:
            query(point)
        assert str(info.value) == message
    # the lower orders still evaluate after the failure
    assert np.isfinite(field.christoffel(point)).all()


def test_the_program_is_built_once_per_field(monkeypatch):
    prop = vars(MetricField)["_gamma"]   # a cached_property: its build
    build, builds = prop.func, []

    def counting(self):
        builds.append(self)
        return build(self)

    monkeypatch.setattr(prop, "func", counting)
    field = MetricField(["x", "y", "z"], {(0, 0): "2 + x*sin(y)", (1, 1): "2 + z^2",
                                          (2, 2): "3 + cos(x)", (0, 2): "0.1*y*z"})
    for point in [(0.1, 0.2, 0.3), (0.4, -0.2, 0.1), (0.1, 0.2, 0.3)]:
        field.metric_at(point)
        field.christoffel(point)
        field.curvature_bundle(point)
        field.nabla_riemann(point)
    with pytest.raises(DomainError):
        MetricField(["x", "y"], {(0, 0): "log(x)", (1, 1): "1"}).metric_at((-1.0, 0.0))
    assert len(builds) == 2 and builds[0] is field


def test_each_query_runs_the_orders_it_needs_once(monkeypatch):
    # one program run per order: 0 for the metric, 0-1 for the Christoffel
    # symbols, 0-3 for the bundle
    runs = []
    run_program = expr.run_program

    def counting(*args):
        runs.append(1)
        return run_program(*args)

    field = MetricField(["x", "y", "z"], {(0, 0): "2 + x*sin(y)", (1, 1): "2 + z^2",
                                          (2, 2): "3 + cos(x)", (0, 2): "0.1*y*z"})
    field.metric_at((0.0, 0.0, 0.0))  # builds the program
    monkeypatch.setattr(expr, "run_program", counting)
    for query, count in ((field.metric_at, 1), (field.christoffel, 2),
                         (field.curvature_bundle, 4)):
        runs.clear()
        query((0.1, 0.2, 0.3))
        assert len(runs) == count, query.__name__


def test_a_singular_metric_wins_over_a_failing_partial():
    # at x = 0 the metric diag(x^2.5, 1) is singular, and the third partial
    # of x^2.5 raises zero to a negative power
    field = MetricField(["x", "y"], {(0, 0): "x^2.5", (1, 1): "1"})
    for query in (field.metric_at, field.christoffel, field.curvature_bundle):
        with pytest.raises(SingularMetric):
            query((0.0, 0.3))
