"""Output checks: every operation against the recorded reference, plus
sanity checks that need no reference.

Tolerances follow the ROADMAP's gates: f_osc 1e-6 relative, phases
0.01 degree, swings 1e-5 relative, extracted values 1e-12 relative.
Supply power shares the swing tolerance, the swing imbalance gets the
same tolerance taken on the largest swing, and startup time may move by
up to two periods, since it is read at cycle boundaries.  Each check
returns a list of problems; an empty list passes.
"""
from __future__ import annotations

import math

F_OSC_REL = 1e-6
PHASE_DEG = 0.01
VPP_REL = 1e-5
EXTRACT_REL = 1e-12
STARTUP_PERIODS = 2.0
QUADRATURE_DEG = 5.0  # sanity bound on V_o3 - 90 degrees


def _rel(name: str, got: float, want: float, tol: float) -> list[str]:
    if math.isclose(got, want, rel_tol=tol, abs_tol=0.0):
        return []
    return [f"{name} = {got!r}, reference {want!r} (rel tol {tol:g})"]


def _optional_rel(name: str, got, want, tol: float) -> list[str]:
    if got is None or want is None:
        return [] if got is want else [f"{name} = {got!r}, reference {want!r}"]
    return _rel(name, got, want, tol)


def check_model(got: dict, want: dict) -> list[str]:
    return [p for key in want for p in _rel(key, got[key], want[key], EXTRACT_REL)]


def sanity_qvco(m: dict) -> list[str]:
    """Independent of the reference: the tc-qvco must oscillate, settle
    and hold V_o3 near quadrature."""
    problems = []
    if not m["oscillating"]:
        return ["not oscillating"]
    if not m["steady"]:
        problems.append("not steady at the end of the span")
    v_o3 = m["phases_deg"].get("V_o3")
    if v_o3 is None or abs(v_o3 - 90.0) > QUADRATURE_DEG:
        problems.append(f"V_o3 at {v_o3!r} deg, not within "
                        f"{QUADRATURE_DEG:g} of quadrature")
    return problems


def check_qvco(got: dict, ref: dict) -> list[str]:
    """One qvco operation's model and SimMetrics against the reference."""
    problems = check_model(got["model"], ref["model"]) + sanity_qvco(got["metrics"])
    m, r = got["metrics"], ref["metrics"]
    for flag in ("oscillating", "steady"):
        if m[flag] != r[flag]:
            problems.append(f"{flag} = {m[flag]}, reference {r[flag]}")
    if problems or not r["oscillating"]:
        return problems
    problems += _rel("f_osc_hz", m["f_osc_hz"], r["f_osc_hz"], F_OSC_REL)
    if set(m["phases_deg"]) != set(r["phases_deg"]):
        problems.append(f"phase outputs {sorted(m['phases_deg'])}, "
                        f"reference {sorted(r['phases_deg'])}")
    for node in set(m["phases_deg"]) & set(r["phases_deg"]):
        diff = (m["phases_deg"][node] - r["phases_deg"][node] + 180.0) % 360.0 - 180.0
        if abs(diff) > PHASE_DEG:
            problems.append(f"phase {node} off by {diff:.4g} deg")
    if set(m["amplitudes_vpp"]) != set(r["amplitudes_vpp"]):
        problems.append("swing outputs differ from the reference")
    for node in set(m["amplitudes_vpp"]) & set(r["amplitudes_vpp"]):
        problems += _rel(f"Vpp {node}", m["amplitudes_vpp"][node],
                         r["amplitudes_vpp"][node], VPP_REL)
    vpp_max = max(r["amplitudes_vpp"].values())
    if abs(m["delta_v_out_v"] - r["delta_v_out_v"]) > VPP_REL * vpp_max:
        problems.append(f"delta_v_out_v = {m['delta_v_out_v']!r}, "
                        f"reference {r['delta_v_out_v']!r}")
    for key in ("power_core_mw", "power_buffer_mw"):
        problems += _optional_rel(key, m[key], r[key], VPP_REL)
    if (m["startup_s"] is None) != (r["startup_s"] is None) or (
            r["startup_s"] is not None and abs(m["startup_s"] - r["startup_s"])
            > STARTUP_PERIODS / r["f_osc_hz"]):
        problems.append(f"startup_s = {m['startup_s']!r}, "
                        f"reference {r['startup_s']!r}")
    return problems


def check_design(got: dict, ref: dict) -> list[str]:
    """One sweep draw against the reference entry of its grid point: the
    same rejection, or the same extracted values and verdict."""
    if "error" in ref or "error" in got:
        if (got.get("error"), got.get("message")) == (ref.get("error"), ref.get("message")):
            return []
        return [f"outcome {got.get('error', 'accepted')}: {got.get('message', '')!r}, "
                f"reference {ref.get('error', 'accepted')}: {ref.get('message', '')!r}"]
    problems = [p for key, want in ref.items() if key != "verdict"
                for p in _rel(key, got[key], want, EXTRACT_REL)]
    if got["verdict"] != ref["verdict"]:
        problems.append(f"verdict {got['verdict']!r}, reference {ref['verdict']!r}")
    return problems
