"""The hand-written range conditions and level rules, frozen as a reference.

Before admissibility was read from k, each family carried range predicates
(text, predicate of eps, rho, beta; checked in order) and one level rule:
a max_level(eps, rho) formula, or, on rosen-morse2 and eckart, a scan that
stops at the first rung whose s = eps - k is 0 or -1, whose Gamma
arguments at t = rho/s are not all positive, or whose E_k does not rise.
They are kept here verbatim so that tests/test_admissibility.py can hold
the derived rule to them.
"""

import math

from shapeinv.families import FAMILY_SPECS

EPS_POSITIVE = ("eps > 0", lambda e, r, b: e > 0)
EPS_BELOW_HALF = ("eps < 1/2", lambda e, r, b: e < 0.5)
EPS_NONZERO = ("eps != 0", lambda e, r, b: e != 0)
RHO_POSITIVE = ("rho > 0", lambda e, r, b: r > 0)
SCARF1_RHO = ("(2*eps - 1)/2 < rho < (1 - 2*eps)/2",
              lambda e, r, b: (2 * e - 1) / 2 < r < (1 - 2 * e) / 2)
ABOVE_THRESHOLD = ("eps + rho/eps > 0", lambda e, r, b: e + r / e > 0)

RANGES = {
    "scarf2": (EPS_POSITIVE,),
    "poschl-teller": (EPS_POSITIVE, ("eps - rho < 1/2", lambda e, r, b: e - r < 0.5)),
    "morse": (EPS_POSITIVE, RHO_POSITIVE),
    "morse-mirror": (EPS_POSITIVE, ("rho < 0", lambda e, r, b: r < 0)),
    "radial-osc": (EPS_BELOW_HALF, RHO_POSITIVE),
    "harm-osc": (("beta > 0", lambda e, r, b: b > 0),),
    "scarf1": (EPS_BELOW_HALF, SCARF1_RHO),
    "scarf1-cot": (EPS_BELOW_HALF, SCARF1_RHO),
    "rosen-morse2": (EPS_NONZERO, ("eps > rho/eps", lambda e, r, b: e > r / e), ABOVE_THRESHOLD),
    "eckart": (EPS_NONZERO, EPS_BELOW_HALF, ABOVE_THRESHOLD),
    "coulomb": (EPS_NONZERO, EPS_BELOW_HALF, ("rho/eps > 0", lambda e, r, b: r / e > 0)),
    "rosen-morse1": (EPS_NONZERO, EPS_BELOW_HALF),
    "rosen-morse1-cot": (EPS_NONZERO, EPS_BELOW_HALF),
}


def below_eps(e, r):
    """Gamma(2(eps - k)) must stay off the poles: k < eps."""
    return math.ceil(e) - 1


# max_k by formula: None for an unbounded tower, -1 for none
MAX_LEVEL = {
    "scarf2": below_eps, "poschl-teller": below_eps, "morse": below_eps,
    "morse-mirror": below_eps,
    # Gamma(2k - 2 eps) positive at k = 0 requires eps < 0; then every level
    # is admissible and E_k climbs toward the threshold
    "coulomb": lambda e, r: None if e < 0 else -1,
}
GAMMA_ARGS = {
    "rosen-morse2": lambda s, t: (2 * s, s - t, s + t),
    "eckart": lambda s, t: (1 - s + t, 1 - 2 * s, s + t),
}
SCAN_CAP = 65536


def frozen_builds(fid, e, r, b):
    """Whether every range condition holds, in order (a ratio family's
    eps != 0 comes first and guards the divisions after it)."""
    return all(holds(e, r, b) for _, holds in RANGES[fid])


def frozen_max_k(fid, e, r, b, poles=(0, -1)):
    """admissible_range(fp).max_k by the frozen level rule; the scan stops
    at an s in poles."""
    if fid not in GAMMA_ARGS:
        return MAX_LEVEL.get(fid, lambda e, r: None)(e, r)
    spec, args = FAMILY_SPECS[fid], GAMMA_ARGS[fid]
    top, energy = -1, 0.0
    for k in range(SCAN_CAP):
        s = e - k
        if s in poles or not all(a > 0 for a in args(s, r / s)):
            break
        if k:
            raised = energy + spec.remainder(s, r, b)
            if not raised > energy:
                break
            energy = raised
        top = k
    return top
