import math

import numpy as np
import pytest
from hypothesis import settings

from svikit.geometry import PolyCone, orthant
from svikit.problems import (boxed_rotation_problem, rotation_inclusion_problem,
                             triangle_vop_spec)

# tier-1 draws the same examples on every run (derandomize, no example
# database), and a failing property test prints the blob that reproduces it
# (``@reproduce_failure``); ``pytest --hypothesis-profile=fresh`` draws
# afresh, outside tier-1
settings.register_profile("svikit", print_blob=True, derandomize=True, database=None)
settings.register_profile("fresh", print_blob=True)
settings.load_profile("svikit")

SQRT2 = math.sqrt(2.0)
ROT_BOUND = 3.0 / SQRT2 + 1.0  # exact increase bound of the 3x-rotation
PERTURBED_BOUND = 0.5 * ROT_BOUND  # after the h + fan budget of 1/2


@pytest.fixture(scope="session")
def rotation_problem():
    return rotation_inclusion_problem()


@pytest.fixture(scope="session")
def boxed_problem():
    return boxed_rotation_problem()


@pytest.fixture(scope="session")
def triangle_spec():
    return triangle_vop_spec(clockwise=True)


@pytest.fixture(scope="session")
def plane_orthant():
    return orthant(2)


def random_pointed_cone(rng: np.random.Generator, m: int) -> PolyCone:
    """Random pointed cone: rays spread inside an acute cap around a random
    axis direction."""
    k = int(rng.integers(2, 6))
    axis = rng.standard_normal(m)
    axis /= np.linalg.norm(axis)
    gens = []
    for _ in range(k):
        d = rng.standard_normal(m)
        d /= np.linalg.norm(d)
        g = axis + 0.8 * d
        gens.append(g / np.linalg.norm(g) * rng.uniform(0.5, 2.0))
    cone = PolyCone(np.asarray(gens))
    assert cone.pointed
    return cone
