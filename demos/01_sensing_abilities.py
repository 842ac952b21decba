"""Sensing abilities of sweep blocks and tracking pilots.

Walks the resolution formulas across insert spacings, pilot spans and
carrier frequencies, and prints the reference-numerology grid that the
`isac-thz abilities` subcommand emits as CSV.
"""

from dataclasses import replace

from isacthz.config import Deployment, SystemParams
from isacthz.sensing import a_theta, ability_from_spans, ssb_ability

system = SystemParams()
deploy = Deployment()

print(f"Beamwidth 2*pi/{deploy.n_b} rad -> transverse factor "
      f"A_theta = {a_theta(deploy.theta_b):.4f}")
print()

ssb = ssb_ability(system, deploy.theta_b)
print("Sweep-block sensing (blockage detection):")
print(f"  unambiguous range {ssb.d_max:.1f} m, motion resolution "
      f"{ssb.delta_db * 100:.1f} cm, velocity resolution {ssb.delta_v:.1f} m/s")
print()

print("Tracking pilots (user tracking):")
print(f"{'f_c':>9} {'U':>2} {'V':>2} {'B_s':>8} {'T_s':>7} | "
      f"{'d_max':>7} {'dd_b':>7} {'dv':>6} {'v_max':>9}")
for f_c in (0.22e12, 1.0e12):
    sys_fc = replace(system, f_c=f_c)
    for u in (2, 3):
        for v in (1, 3):
            ab = ability_from_spans(u, v, 0.1e9, 0.5e-3, sys_fc, deploy.theta_b)
            print(f"{f_c / 1e12:7.2f}T {u:>2} {v:>2} {'0.1 GHz':>8} {'0.5ms':>7} | "
                  f"{ab.d_max:6.1f}m {ab.delta_db * 100:5.1f}cm "
                  f"{ab.delta_v:5.2f} {ab.v_max * 3.6:7.1f}km/h")

print()
print("Doubling the pilot bandwidth halves the range resolution; doubling")
print("the pilot duration halves the velocity resolution.")
