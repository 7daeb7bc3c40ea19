"""Replaying the vanishing-contradiction argument on candidate fields.

A genuine solution that is not identically zero has positive nonlinearity
mass on every ball: the audit reports r0 = 0 and classifies it genuine.  A
candidate built to vanish on an inner ball cannot be a solution, and the
audit shows why, twice over: its equation residual is macroscopic (veto),
and - if one disables that gate - the proof chain itself breaks down, with
the frequency cap failing right where the field wakes up from its zero core.
"""

import math

from freqlab import AuditControls, ProblemSpec, audit, solve_radial
from freqlab.fields import glued_field


def show(chain, title):
    print(f"--- {title} ---")
    print(f"classification: {chain.classification}   (route: {chain.route})")
    print(f"radii: r0={chain.r0}  r1={chain.r1}  r2={chain.r2}  r3={chain.r3}")
    for name in ("residual_gate", "vanishing_detected", "lower_bound_D",
                 "frequency_bounded"):
        if name in chain.steps:
            v = chain.steps[name]
            print(f"  {name:20s} {v.status:6s} {v.note}")
    if chain.constants:
        consts = ", ".join(f"{k}={v:.4g}" for k, v in
                           sorted(chain.constants.items()))
        print(f"  constants: {consts}")
    print()


spec = ProblemSpec.model(2, 1.5, outer_radius=1.2)
genuine = solve_radial(spec, 0.5, h=1e-3)
show(audit(spec, genuine), "genuine radial solution, a = 0.5")

glue_spec = ProblemSpec.model(2, 1.5, outer_radius=0.8)
glued = glued_field(2, 1.5, 0.3, 0.8, h=1e-3)
show(audit(glue_spec, glued), "zero-core candidate, default residual gate")

show(audit(glue_spec, glued, AuditControls(residual_gate=math.inf)),
     "zero-core candidate, gate disabled: the chain itself convicts it")
