"""Coverage probability through characteristic-function inversion.

Evaluates the shot-noise field of interference plus re-radiated noise,
inverts its distribution along the oscillatory kernel, and compares the
schemes across serving distance and SINR threshold.
"""

from isacthz.channel import LinkBudget
from isacthz.config import default_deployment, default_system
from isacthz.coverage import coverage_sweep

system = default_system()
deploy = default_deployment()
budget = LinkBudget.from_params(system, deploy)

schemes = ("perfect", "jsrs", "5g", "ssb")
thresholds = [10.0 ** (db / 10.0) for db in (0.0, 5.0, 10.0)]
rows = coverage_sweep((10.0, 20.0, 40.0), thresholds, schemes, budget,
                      deploy, system)

print(f"{'r1 [m]':>7} {'T [dB]':>7} | " + " ".join(f"{s:>9}" for s in schemes))
table = {}
for row in rows:
    table.setdefault((row["r1_m"], row["threshold_db"]), {})[row["scheme"]] = row
for (r1, db) in sorted(table):
    cells = " ".join(f"{table[(r1, db)][s]['p_cvp']:9.4f}" for s in schemes)
    print(f"{r1:7.0f} {db:7.1f} | {cells}")

print()
jsrs = [r["p_cvp"] for r in rows if r["scheme"] == "jsrs"]
perfect = [r["p_cvp"] for r in rows if r["scheme"] == "perfect"]
fiveg = [r["p_cvp"] for r in rows if r["scheme"] == "5g"]
gain = [j / g - 1.0 for j, g in zip(jsrs, fiveg) if g > 1e-9]
print(f"jsrs-vs-perfect gap: max {max(p - j for p, j in zip(perfect, jsrs)):.4f}")
print(f"jsrs coverage gain over the positioning baseline: "
      f"avg {100 * sum(gain) / len(gain):.0f}%")
