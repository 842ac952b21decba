"""Closed-form pilot-pattern selection versus the brute-force search.

Given a detection radius and a trackable speed, the largest feasible
insert spacings and the stationary time-to-frequency exponent minimise
the misalignment objective delta_v * tau + delta_db.  The brute-force
grid search lands on the same point.
"""

from isacthz.config import Deployment, SystemParams
from isacthz.pattern import (PatternRequirement, brute_force_pattern,
                             objective, optimal_pattern)
from isacthz.sensing import sensing_ability

system = SystemParams()
deploy = Deployment()

req = PatternRequirement(d_max_req=78.1, v_max_req=19.44)
pat = optimal_pattern(req, system, deploy.theta_b)
ab = sensing_ability(pat, system, deploy.theta_b)

print(f"Requirement: detect {req.d_max_req} m, track {req.v_max_req} m/s, "
      f"{system.n_rs} pilot elements")
print(f"Closed form: U={pat.u}, V={pat.v}, alpha={pat.alpha:.4f} "
      f"-> {pat.n_s} symbols x {pat.n_f} subcarriers")
print(f"Achieved: dd_b={ab.delta_db * 100:.2f} cm, dv={ab.delta_v:.2f} m/s, "
      f"d_max={ab.d_max:.1f} m, v_max={ab.v_max * 3.6:.0f} km/h")

bf = brute_force_pattern(req, system, deploy.theta_b)
gap = (objective(bf.alpha, bf.u, bf.v, system, deploy.theta_b)
       - objective(pat.alpha, pat.u, pat.v, system, deploy.theta_b))
print(f"Brute force: U={bf.u}, V={bf.v}, alpha={bf.alpha:.4f} "
      f"(objective gap {gap:+.2e})")

print()
print("Trade-off: higher carriers sharpen the velocity resolution, so the")
print("optimal exponent shifts resources to the frequency domain:")
from dataclasses import replace
from isacthz.pattern import optimal_alpha
for f_c in (0.15e12, 0.34e12, 0.6e12):
    a = optimal_alpha(pat.u, pat.v, replace(system, f_c=f_c), deploy.theta_b)
    print(f"  f_c = {f_c / 1e12:.2f} THz -> alpha = {a:.3f}")
