"""Byte pins of the analysis artifacts that criterion 11 does not reach.

Criterion 11 pins a radial ball without zeros and a model grid.  These pin
the general-route identities (a solved and a sampled variable-coefficient
field), the proof chain through both of its steps (a glued candidate
with the gate off) and a radial ball with zeros: the sha256 of each of
`identities.json`, `identities.npz`, `profile.csv` and `certificate.json`,
written as `freq-lab frequency` and `freq-lab audit` write them.
"""

import math
import os

import pytest

from freqlab.audit import AuditControls, audit
from freqlab.config import parse_problem_spec
from freqlab.fields import (glued_field, manufactured_bowl, sample_grid2d,
                            solve_grid_2d, solve_radial)
from freqlab.frequency import (ProfileControls, frequency_profile,
                               run_all_identity_checks,
                               write_identity_reports)
from freqlab.io import _sha256, profile_to_csv, write_json
from freqlab.model import ProblemSpec

_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                       "configs", "variable_coefficients.ini")


def _bowl():
    bowl = manufactured_bowl(amplitude=0.5)
    fld = solve_grid_2d(bowl.spec, bowl.boundary, n_r=32, n_theta=64,
                        source=bowl.source)
    return bowl.spec, fld, AuditControls(), "residual_veto"


def _variable_coefficients():
    spec = parse_problem_spec(_CONFIG)
    fld = sample_grid2d(
        lambda x: 1.0 + 0.3 * x[..., 0] + 0.2 * x[..., 1] ** 2,
        spec.outer_radius, 32, 64, spec.nonlinearity.q)
    return spec, fld, AuditControls(), "residual_veto"


def _glued():
    spec = ProblemSpec.model(2, 1.5, outer_radius=0.8)
    fld = glued_field(2, 1.5, 0.3, 0.8, h=1e-3)
    return (spec, fld, AuditControls(residual_gate=math.inf),
            "contradiction_certified")


def _radial_with_zeros():
    spec = ProblemSpec.model(2, 1.2, outer_radius=4.0)
    return (spec, solve_radial(spec, 0.5, h=1e-3), AuditControls(),
            "genuine_nonvanishing")


# sha256 of each artifact.  A change that moves an artifact's bytes must
# say why and record the new hashes here.  They were recorded with Python
# 3.11 and numpy 2.4; another numpy's FFT or libm may move a last bit of
# the 2-D artifacts.
PINS = {
    "bowl": (_bowl, {
        "certificate.json":
            "40b5ea72755eab8879e4519a2d75d9a5c1c176710eba9af7fbc14d49c6c33e47",
        "identities.json":
            "2c20678273c75c30d057acc4477bb226ca54e5a3050b491c9fb75e73275f7ec7",
        "identities.npz":
            "6b5cc1374355fb07bb612983b12078604da9d8f1b1c7824edd71ea44e4c76957",
        "profile.csv":
            "babf98132045cc8bfe8a0102f04a63de810e9e02b6bf13b2b21d28af3b0a744c",
    }),
    "variable_coefficients": (_variable_coefficients, {
        "certificate.json":
            "0cc9c33f440380b7600e5acc0bf7c34d33d48bfad949fe201351ffb1c48d633c",
        "identities.json":
            "7df54951d42712b14cdc6d580a847776abca98b94fbb36e83e17f360acbb3d25",
        "identities.npz":
            "4c033e7bbff8ade5be4d645a84291b056abbf6a196bbd66ad26ef4dcc884d072",
        "profile.csv":
            "700ce668187b8ea71a2e09f4e3663bd1fc8b98417c009f732489e737707a7e96",
    }),
    "glued": (_glued, {
        "certificate.json":
            "c6c8e5cd863b86a619dadaba757dcc85d1090baa2cfb94099767eeb7173f1a32",
        "identities.json":
            "3988038ab83015b0b62ff39f7590bf57cdaec09bed92963dc9c74550c4241ca1",
        "identities.npz":
            "f1f3a107c4bd5f8ce263aa4a672b452c07e03919b5977713b15464234c137166",
        "profile.csv":
            "a3f55c4c38728422b17effb86bdf41328a8add0d37d7312a02ef2998dcc7a565",
    }),
    "radial_with_zeros": (_radial_with_zeros, {
        "certificate.json":
            "7ebd8e0cdac4c373f914a2b1d2307fadf6f50cc03ad964fe948beecb3c3acf10",
        "identities.json":
            "506cdb2ccca96da9e9410ca972b9c46ba308de9328a0ea758969d1aa912e0718",
        "identities.npz":
            "007a51c097a987a915efebb0d2571e1c36ab0fe38dc0b8338a33f7666da5328a",
        "profile.csv":
            "0151cb7059f8006ce0e0f334cc4fcfb55d13545983cbb6e0aa2de105b3dae52d",
    }),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_analysis_artifacts_keep_their_bytes(name, tmp_path):
    build, pinned = PINS[name]
    spec, fld, controls, classification = build()
    # the CLI's defaults: 800 radii for `frequency`, 2000 for `audit`
    prof = frequency_profile(spec, fld, ProfileControls(n_radii=800))
    profile_to_csv(prof, tmp_path / "profile.csv")
    write_identity_reports(run_all_identity_checks(spec, fld, prof), tmp_path)
    chain = audit(spec, fld, controls)
    write_json(tmp_path / "certificate.json", chain.to_dict())
    assert chain.classification == classification
    got = {f: _sha256(tmp_path / f) for f in sorted(pinned)}
    assert got == pinned
