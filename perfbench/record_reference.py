"""Record reference.json: the default-seed outputs of tables_cold and
inversion_warm, and the analytic values that gate mc_oracle.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are trusted; the benchmark's checks
compare every later commit against what it writes.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    run.import_isacthz()
    import workloads
    from isacthz import coverage, misalignment

    tables = workloads.TablesCold(workloads.DEFAULT_SEED, tiny=False)
    outputs = tables.run_pass().outputs
    table_ref = {}
    for table, (code, text) in outputs.items():
        if code != 0:
            raise SystemExit(f"{table}: exit {code}")
        columns = (workloads.MISALIGNMENT_COLUMNS if table.startswith("misalign")
                   else workloads.COVERAGE_COLUMNS)
        table_ref[table] = {
            workloads.table_key(table, row): [float(row[c]) for c in columns]
            for row in workloads.parse_table(text)}

    inversion = workloads.InversionWarm(workloads.DEFAULT_SEED, tiny=False)
    inversion.setup()
    grid = inversion.run_pass().outputs

    mc = workloads.McOracle(workloads.DEFAULT_SEED, tiny=False)
    s = mc.scene
    m = misalignment.beam_misalignment(s.deploy, s.jsrs, s.system.tau)
    thr = 10.0 ** (workloads.MC_THRESHOLD_DB / 10.0)
    q = coverage.CoverageQuery(r1=workloads.MC_R1_M, threshold=thr)
    mc_ref = {
        "blockage": misalignment.blockage_probability(s.deploy,
                                                      workloads.MC_LINK_M),
        "timeout": misalignment.timeout_probability(s.deploy),
        "p_err": m.p_err,
        "p_to": m.p_to,
        "p_ms": m.p_ms,
        "coverage_urban": coverage.coverage_probability(
            q, s.budget, s.deploy, s.system, s.jsrs).p_cvp,
        "coverage_open": coverage.coverage_probability(
            q, mc.open_budget, mc.open_deploy, s.system, mc.perfect).p_cvp,
    }

    reference = {"recorded_at": run.git_sha(), "tables_cold": table_ref,
                 "inversion_warm": grid, "mc_oracle": mc_ref}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
