import numpy as np
import pytest

from cartanweyl.cartan import KleinModel, VielbeinField, conjugate
from cartanweyl.jets import Chart

DIAG3 = [["1 + x1^2/2", "0", "0"],
         ["0", "1 + x0*x2/4", "0"],
         ["0", "0", "1 + x0^2/3 + x2/5"]]

POINT3 = (0.3, -0.2, 0.5)


def single_step_residual(conn, fields):
    """The dressing suite's single_step residual of a pipeline output:
    ``conn`` dressed in one step by u = u1 u0 against the two-stage pair."""
    u, uinv = fields.u1.mat.wedge(fields.u0.mat), fields.u0.inv.wedge(fields.u1.inv)
    return (fields.varpi0 - conjugate(conn.omega, u, uinv, connection=True),
            fields.Omega0 - conjugate(fields.Omega, u, uinv))


@pytest.fixture
def chart3():
    return Chart(3, signature=(1, -1, -1))


@pytest.fixture
def mobius3(chart3):
    return KleinModel("mobius", chart3)


@pytest.fixture
def poincare3(chart3):
    return KleinModel("poincare", chart3)


@pytest.fixture
def vielbein3(chart3):
    return VielbeinField(chart3, DIAG3)


@pytest.fixture
def flat3(chart3):
    return VielbeinField(chart3, [["1" if i == j else "0" for j in range(3)]
                                  for i in range(3)])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
