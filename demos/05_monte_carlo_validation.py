"""End-to-end validation: the analytic stack against the geometry engine.

Every closed form in the package has an independent Poisson-point-process
estimator.  This script runs the full chain at a desk-scale trial count
and prints the deviation of each analytic value in standard errors.
"""

from isacthz.channel import LinkBudget
from isacthz.config import Deployment, SystemParams
from isacthz.coverage import CoverageQuery, coverage_probability
from isacthz.mcsim import (estimate_blockage, estimate_coverage,
                           estimate_timeout)
from isacthz.misalignment import blockage_probability, timeout_probability
from isacthz.schemes import scheme_ability

system = SystemParams()
deploy = Deployment()
budget = LinkBudget.from_params(system, deploy)
trials = 50000

est = estimate_blockage(deploy, 52.0, trials, seed=1)
ref = blockage_probability(deploy, 52.0)
print(f"link blockage @52 m : mc {est.mean:.4f}  analytic {ref:.4f}  "
      f"({est.sigmas_off(ref):+.2f} sigma)")

est = estimate_timeout(deploy, trials, seed=2)
ref = timeout_probability(deploy)
print(f"association timeout : mc {est.mean:.4f}  analytic {ref:.4f}  "
      f"({est.sigmas_off(ref):+.2f} sigma)")

ability = scheme_ability("jsrs", system, deploy)
for r1, db in ((20.0, 5.0), (40.0, 0.0)):
    thr = 10.0 ** (db / 10.0)
    est = estimate_coverage(deploy, budget, system, ability, r1, thr,
                            trials, seed=int(r1))
    res = coverage_probability(CoverageQuery(r1=r1, threshold=thr), budget,
                               deploy, system, ability)
    print(f"coverage @({r1:.0f} m, {db:.0f} dB): mc {est.mean:.4f}  "
          f"analytic {res.p_cvp:.4f}  ({est.sigmas_off(res.p_cvp):+.2f} sigma)")
