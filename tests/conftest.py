import numpy as np
import pytest

import contractflow as cf


@pytest.fixture(scope="session")
def segment():
    return cf.make_segment([0.0, 0.0], [1.0, 0.0], 200)


@pytest.fixture(scope="session")
def quarter_circle():
    return cf.make_circle_arc(np.pi / 2, 200)


@pytest.fixture(scope="session")
def quarter_circle_400():
    return cf.make_circle_arc(np.pi / 2, 400)


@pytest.fixture(scope="session")
def half_circle():
    return cf.make_circle_arc(np.pi, 200)


@pytest.fixture(scope="session")
def spiral_05():
    return cf.make_log_spiral(0.5, 4 * np.pi, 200)


@pytest.fixture(scope="session")
def spiral_01():
    return cf.make_log_spiral(0.1, 4 * np.pi, 400)


@pytest.fixture(scope="session")
def bisector_spiral():
    """Points of a non-self-contracted spiral, each tangent (but the last, kept)
    the bisector of the directions to all later samples: the pairwise form
    holds strictly, but the tangents are not the points' derivative."""
    crv = cf.make_log_spiral(0.1, 5.0, 200)
    P, T = crv.points, crv.tangents.copy()
    for i in range(len(P) - 1):
        d = P[i + 1:] - P[i]
        ang = np.unwrap(np.arctan2(d[:, 1], d[:, 0]))
        mid = 0.5 * (ang.min() + ang.max())
        T[i] = [np.cos(mid), np.sin(mid)]
    return cf.Curve(params=crv.params, points=P, tangents=T)


@pytest.fixture(scope="session")
def rotated_arc():
    """The default quarter arc with its tangent columns rotated by 0.3 rad."""
    crv = cf.make_circle_arc()
    c, s = np.cos(0.3), np.sin(0.3)
    return cf.Curve(params=crv.params, points=crv.points,
                    tangents=crv.tangents @ np.array([[c, s], [-s, c]]))
