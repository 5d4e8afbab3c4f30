"""The frozen table of leading-order targets.

Each law is value(u) ~ constant * u**exponent, after dividing out the exact
|t|-power (automatic in the scaled gauge, |t| = exp(-pi/u)).  Every target
the run checks is read from here; the module imports nothing of collarlab.
"""

import math
from dataclasses import dataclass

PI = math.pi


@dataclass(frozen=True)
class AsymptoticTarget:
    check_id: str
    constant: complex
    exponent: float
    description: str


_TABLE = {row[0]: AsymptoticTarget(*row) for row in (
    ("wp-cometric-diag", 2.0, -3.0, "h^{ii} -> 2 u^-3 |t|^2"),
    ("wp-metric-diag", 0.5, 3.0, "h_{ii} -> u^3/(2 |t|^2)"),
    ("ricci-diag", 3.0 / (4.0 * PI**2), 2.0,
     "tau_{ii} -> 3 u^2/(4 pi^2 |t|^2)"),
    ("wp-curv-diag", 3.0 / (8.0 * PI**2), 5.0,
     "R_{iiii} of the WP metric -> 3 u^5/(8 pi^2 |t|^4)"),
    ("g1-term-1", 9.0 / (16.0 * PI**4), 4.0,
     "24 h^{ii} int T(xi(e)) conj(xi(e))"),
    ("g1-term-2", -9.0 / (16.0 * PI**4), 4.0,
     "6 h^{ii} int |K0 e|^2 (2e - 4f)"),
    ("g1-term-3", -3.0 / (16.0 * PI**4), 4.0,
     "-36 tau^{ii} (h^{ii})^2 |int xi(e) e|^2"),
    ("g1-term-4", 9.0 / (16.0 * PI**4), 4.0, "tau_{ii} h^{ii} R_{iiii}"),
    ("g1-sum", 3.0 / (8.0 * PI**4), 4.0,
     "holomorphic sectional curvature magnitude of Ricci metric"),
    ("t-pairing", 3.0 / (256.0 * PI**4), 7.0,
     "int T(xi_i(e_ii)) conj(xi_i(e_ii)) dv"),
    ("k0-pairing", -3.0 / (64.0 * PI**4), 7.0, "int |K0 e|^2 (2e - 4f) dv"),
    ("xi-pairing", -1.0 / (32.0 * PI**3), 6.0,
     "int xi_i(e_ii) e_ii dv (real t)"),
    ("ef-pairing", 3.0 / (16.0 * PI**2), 5.0, "int etilde ftilde dv"),
    ("err-e", 0.0, 4.0, "||e - etilde||_0 = O(u^4/|t|^2)"),
    ("err-xi", 0.0, 5.0, "||xi(etilde) - (box+1)d||_0 = O(u^5/|t|^3)"),
    ("err-T", 0.0, 5.0, "||T(xi(etilde)) - d||_0 = O(u^5/|t|^3)"),
)}


def target_table() -> list[AsymptoticTarget]:
    """Leading constants of the |t|-normalized laws: value ~ C u^p."""
    return list(_TABLE.values())


def target(check_id: str) -> AsymptoticTarget:
    return _TABLE[check_id]


def law(check_id: str, u: float) -> complex:
    """The target's leading term at u: constant * u**exponent."""
    t = _TABLE[check_id]
    return t.constant * u**t.exponent
