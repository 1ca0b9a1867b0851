import pytest

from f4workbench.liealg import build_f4_model
from f4workbench.uea import model_engine, omega_normalized


@pytest.fixture(scope="session")
def model():
    return build_f4_model()


@pytest.fixture(scope="session")
def me():
    return model_engine()


@pytest.fixture(scope="session")
def omega_report(me):
    return omega_normalized(me)


@pytest.fixture(scope="session")
def shifted_omega(me, omega_report):
    """A non-member: the projected Casimir with 1 added to its Z
    coefficient, so the congruence residuals do not all vanish."""
    from f4workbench.exactnum import add
    from f4workbench.uea import IwasawaElement
    coeffs = [dict(c) for c in omega_report.omega.coeffs]
    coeffs[1] = add(coeffs[1], me.g.one())
    return IwasawaElement(coeffs)
