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
            "d5bea1fcee7d5a3caabca5c41fd67839c5f7c3bf4d12f8db6d04ca5509d72177",
        "identities.npz":
            "d7233884f845e5c8af7af10a93c4bcd1f0cf1018e351b3c907cb2e127a098816",
        "profile.csv":
            "babf98132045cc8bfe8a0102f04a63de810e9e02b6bf13b2b21d28af3b0a744c",
    }),
    "variable_coefficients": (_variable_coefficients, {
        "certificate.json":
            "0cc9c33f440380b7600e5acc0bf7c34d33d48bfad949fe201351ffb1c48d633c",
        "identities.json":
            "8512a09e2898fdc897be9d1c888f93b0a21452312ac14e78ffa6c03d713707f4",
        "identities.npz":
            "ca0127c243fdc9ac28a6190e06ad6c81fee02ab895c38c6ca165dcc26cd30087",
        "profile.csv":
            "700ce668187b8ea71a2e09f4e3663bd1fc8b98417c009f732489e737707a7e96",
    }),
    "glued": (_glued, {
        "certificate.json":
            "c6c8e5cd863b86a619dadaba757dcc85d1090baa2cfb94099767eeb7173f1a32",
        "identities.json":
            "ab198872698e797253a211353ddf0503c0df8faa0a783473a6bf84a61e8db5db",
        "identities.npz":
            "6ead6ccaf83714c2137bb8e0561d62310b12c3279944ec8a954fe1f6d77c3555",
        "profile.csv":
            "a3f55c4c38728422b17effb86bdf41328a8add0d37d7312a02ef2998dcc7a565",
    }),
    "radial_with_zeros": (_radial_with_zeros, {
        "certificate.json":
            "7ebd8e0cdac4c373f914a2b1d2307fadf6f50cc03ad964fe948beecb3c3acf10",
        "identities.json":
            "adbce75e640f1c7a6f8466e7d59a2c79f12a969d9690dd68bc633414f06937f5",
        "identities.npz":
            "c834e2bdb46f93d9944a4d62f36d2b27d9d3cc8cc052e88289a383b358143a5b",
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
