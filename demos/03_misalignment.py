"""Beam-misalignment probability: analytic pieces and their simulation.

Shows the imperfect-sensing and association-timeout components per scheme
and cross-checks the closed forms against the geometric Monte Carlo.
"""

from isacthz.config import Deployment, SystemParams
from isacthz.mcsim import estimate_misalignment, estimate_timeout
from isacthz.misalignment import beam_misalignment, timeout_probability
from isacthz.schemes import scheme_ability
from isacthz.sensing import SCHEMES

system = SystemParams()
deploy = Deployment()

print(f"{'scheme':>8} {'p_err':>9} {'p_to':>9} {'p_ms':>9}")
for scheme in SCHEMES:
    ability = scheme_ability(scheme, system, deploy)
    m = beam_misalignment(deploy, ability, system.tau)
    print(f"{scheme:>8} {m.p_err:9.5f} {m.p_to:9.5f} {m.p_ms:9.5f}")

print()
trials = 200000
print(f"Monte-Carlo cross-checks at {trials} trials:")
est = estimate_timeout(deploy, trials, seed=7)
ref = timeout_probability(deploy)
print(f"  timeout: simulated {est.mean:.5f} vs analytic {ref:.5f} "
      f"({est.sigmas_off(ref):+.2f} sigma)")

ability = scheme_ability("jsrs", system, deploy)
ests = estimate_misalignment(deploy, ability, system.tau, trials, seed=8)
m = beam_misalignment(deploy, ability, system.tau)
print(f"  jsrs p_ms: simulated {ests['p_ms'].mean:.5f} vs analytic "
      f"{m.p_ms:.5f} ({ests['p_ms'].sigmas_off(m.p_ms):+.2f} sigma)")
