import pytest

from curvkit.chart import MetricField


def euclidean_field(n: int) -> MetricField:
    coords = [f"x{i}" for i in range(1, n + 1)]
    return MetricField(coords, {(i, i): 1.0 for i in range(n)})


# The golden charts as (coords, upper-triangle entries); the exact oracle
# reads the same entry text as the package.
GOLDEN = {
    "sphere2": (["theta", "phi"],
                {("theta", "theta"): "1", ("phi", "phi"): "sin(theta)^2"}),
    "sphere3": (["psi", "theta", "phi"],
                {("psi", "psi"): "1",
                 ("theta", "theta"): "sin(psi)^2",
                 ("phi", "phi"): "sin(psi)^2 * sin(theta)^2"}),
    "conformal4": (["x1", "x2", "x3", "x4"],
                   {(i, i): "exp(2*x1)" for i in range(4)}),
    "poly3": (["x1", "x2", "x3"],
              {("x1", "x1"): "1 + 0.1*x2^2",
               ("x2", "x2"): "1 + 0.1*x3^2",
               ("x3", "x3"): "1 + 0.1*x1^2",
               ("x1", "x2"): "0.05*x1*x3",
               ("x2", "x3"): "0.05*x2"}),
    "euclid3": (["x1", "x2", "x3"], {(i, i): 1.0 for i in range(3)}),
}


@pytest.fixture(scope="session")
def sphere2():
    return MetricField(*GOLDEN["sphere2"])


@pytest.fixture(scope="session")
def sphere3():
    return MetricField(*GOLDEN["sphere3"])


@pytest.fixture(scope="session")
def conformal4():
    return MetricField(*GOLDEN["conformal4"])


@pytest.fixture(scope="session")
def poly3():
    return MetricField(*GOLDEN["poly3"])


@pytest.fixture(scope="session")
def euclid3():
    return euclidean_field(3)
