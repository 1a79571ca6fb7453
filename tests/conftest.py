import numpy as np
import pytest

from divchain import BVFunction, ParamField, RectifiableSet, plateau_bump

from helpers import interval_domain

ZEROS = lambda x: np.zeros_like(x)
ONES = lambda x: np.ones_like(x)


@pytest.fixture
def dom11():
    return interval_domain(-1.0, 1.0)


@pytest.fixture
def point_zero():
    return RectifiableSet(1, [0.0], [1.0])


@pytest.fixture
def heaviside(dom11):
    return BVFunction.piecewise_1d(dom11, [0.0], values=[ZEROS, ONES],
                                   grads=[ZEROS, ZEROS])


@pytest.fixture
def bump_center(dom11):
    return plateau_bump([(-0.5, 0.5)], [(-0.2, 0.2)])


def sign_field(dom, rect):
    """b(x, t) = sign(x) e1, parameter-independent."""
    return ParamField(
        dom, lambda pts, t: np.sign(pts[:, 0])[:, None] * np.ones((len(pts), 1)),
        sup_bound=1.0, singular_set=rect,
        b_plus=lambda pts, t: np.ones((len(pts), 1)),
        b_minus=lambda pts, t: -np.ones((len(pts), 1)),
        t_range=(-3, 3))


def sign_t_field(dom, rect, factor=1.0):
    """b(x, t) = factor * sign(x) * t."""
    return ParamField(
        dom, lambda pts, t: (factor * np.sign(pts[:, 0]) * t)[:, None]
        * np.ones((len(pts), 1)),
        sup_bound=3.0 * abs(factor), singular_set=rect,
        b_plus=lambda pts, t: (factor * t * np.ones(len(pts)))[:, None],
        b_minus=lambda pts, t: (-factor * t * np.ones(len(pts)))[:, None],
        t_range=(-3, 3))


@pytest.fixture
def sign(dom11, point_zero):
    return sign_field(dom11, point_zero)
