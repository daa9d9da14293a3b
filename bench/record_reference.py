"""Record bench/reference.json: the outputs every benchmark run is
checked against.

    python3 bench/record_reference.py

Runs one qvco_core and one qvco_buffered operation, and every point of
the design_sweep grid, so a sweep drawn from any seed finds its draws in
the reference.  Rerun it only when a change is meant to alter the
physics outputs, and say so with the change.
"""
import json

import env

if __name__ == "__main__":
    env.configure()
    import spans
    import workloads

    reference = {
        "environment": env.describe(),
        "qvco_core": workloads.run_qvco(False, spans.NULL_TRACER),
        "qvco_buffered": workloads.run_qvco(True, spans.NULL_TRACER),
        "design_sweep": {workloads.draw_key(p): workloads.run_design(p, spans.NULL_TRACER)
                         for p in workloads.sweep_grid()},
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name in ("qvco_core", "qvco_buffered"):
        print(name, json.dumps(reference[name]["metrics"]))
    rejected = sum("error" in v for v in reference["design_sweep"].values())
    print(f"design_sweep: {len(reference['design_sweep'])} grid points, {rejected} rejected")
