import os

import pytest

from freqlab.config import parse_problem_spec
from freqlab.fields import glued_field, manufactured_bowl, solve_radial
from freqlab.model import ProblemSpec


@pytest.fixture(scope="session")
def model_specs():
    return {
        (2, 1.5): ProblemSpec.model(2, 1.5, outer_radius=1.5),
        (3, 1.5): ProblemSpec.model(3, 1.5, outer_radius=1.5),
        (2, 1.0): ProblemSpec.model(2, 1.0, outer_radius=1.0),
        (3, 1.0): ProblemSpec.model(3, 1.0, outer_radius=0.7),
        (3, 1.2): ProblemSpec.model(3, 1.2, outer_radius=1.2),
    }


@pytest.fixture(scope="session")
def radial_solutions(model_specs):
    """Genuine nonvanishing radial solutions on crossing-free balls."""
    amplitudes = {(2, 1.5): 0.5, (3, 1.5): 0.5, (2, 1.0): 0.3,
                  (3, 1.0): 0.1, (3, 1.2): 0.4}
    out = {}
    for key, spec in model_specs.items():
        out[key] = solve_radial(spec, amplitudes[key], h=1e-3)
    return out


@pytest.fixture(scope="session")
def bowl():
    return manufactured_bowl(outer_radius=1.0, q=1.5, amplitude=0.5, v0=0.25)


@pytest.fixture(scope="session")
def bowl_field_256(bowl):
    return bowl.to_field(n_r=256, n_theta=256)


@pytest.fixture(scope="session")
def bowl_field_128(bowl):
    return bowl.to_field(n_r=128, n_theta=128)


@pytest.fixture(scope="session")
def glued_trio():
    return {
        (2, 1.5, 0.3): glued_field(2, 1.5, 0.3, 0.8, h=1e-3),
        (3, 1.5, 0.25): glued_field(3, 1.5, 0.25, 0.9, h=1e-3),
        (2, 1.6, 0.35): glued_field(2, 1.6, 0.35, 0.9, h=1e-3),
    }


@pytest.fixture(scope="session")
def variable_coefficients_spec():
    """The problem of demos/configs/variable_coefficients.ini."""
    return parse_problem_spec(os.path.join(
        os.path.dirname(__file__), os.pardir, "demos", "configs",
        "variable_coefficients.ini"))


@pytest.fixture(scope="session")
def linear_mode_spec():
    """A = id, V = 0, f == 0: the classical harmonic frequency setting."""
    from freqlab.model import CoefficientField, NonlinearitySpec

    return ProblemSpec(2, 1.0, CoefficientField.identity(2),
                       NonlinearitySpec.zero())
