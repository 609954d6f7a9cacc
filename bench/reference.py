"""Reference models that give the benchmark its known answers.

Each function re-states one model's semantics in plain Python, written from
the model text and the documented tick semantics (strict atoms emit the value
computed at the previous tick, weak atoms emit at once, unassigned outputs
latch). Nothing here imports streamcheck: the answers must never come from
the simulator under test.
"""

from __future__ import annotations

import math


def clamp(v, lo, hi):
    return min(max(v, lo), hi)


# ---------------------------------------------------------------------------
# fixtures/acc.scm.txt and fixtures/brake_override.scm.txt


def acceleration_control(ticks):
    """AccelerationControl (strict) on rows of
    (ReqSpeedAcc, ReqDistAcc, AccMode, BrakeCmd, GasCmd).

    Every transition assigns both outputs and the target state does not
    influence them, so the computed pair depends only on the current inputs.
    """
    pending = ("Standby", 0)
    out = []
    for req_speed, req_dist, acc_mode, brake, gas in ticks:
        out.append(pending)
        if acc_mode and brake == 0 and gas == 0:
            pending = ("Active", min(req_dist, req_speed))
        else:
            pending = ("Standby", 0)
    return out


def acc(ticks):
    """The ACC composite on rows of
    (SensSpeed, SensDist, AccMode, SetSpeed, SetDist, BrakeCmd, GasCmd).

    All five atoms are strict, so each consumes what its producers emit this
    tick, which is what they computed one tick earlier.
    """
    cal_speed = cal_dist = req_speed = req_dist = 0
    mode, cmd = "Standby", 0
    out = []
    for sens_speed, sens_dist, acc_mode, set_speed, set_dist, brake, gas in ticks:
        out.append((mode, cmd))
        engaged = acc_mode and brake == 0 and gas == 0
        new_mode, new_cmd = ("Active", min(req_dist, req_speed)) if engaged else ("Standby", 0)
        new_req_speed = clamp(set_speed - cal_speed, -100, 100)
        new_req_dist = clamp(cal_dist - set_dist, -100, 100)
        cal_speed = clamp(sens_speed, 0, 300)
        cal_dist = clamp(sens_dist, 0, 500)
        req_speed, req_dist = new_req_speed, new_req_dist
        mode, cmd = new_mode, new_cmd
    return out


def brake_override(ticks):
    """BrakeOverride (strict) on rows of (DriverBrake, AccBrake, AccSwitch)."""
    state, pending = "Active", "Active"
    out = []
    for driver, acc_brake, switch in ticks:
        out.append(pending)
        if state == "Active":
            if driver > acc_brake or not switch:
                state = pending = "Standby"
            else:
                pending = "Active"
        elif switch:
            state = pending = "Active"
    return out


# ---------------------------------------------------------------------------
# fixtures/encoder.scm.txt and the generated biased encoder


def enc_ri(i_a, i_c):
    return (i_a and i_c >= 0) or (not i_a and i_c <= 0)


def enc_ro(o_a, o_c):
    return (o_a and o_c >= 0) or (not o_a and o_c <= 0)


def encoder_correspondence(i_a, i_c, bias):
    """check of AbstractEncoder against an encoder computing floor(i_c - bias).

    Returns (ri_stream, ro_stream); bias 0 is fixtures' ConcreteEncoder.
    """
    ri = [enc_ri(a, c) for a, c in zip(i_a, i_c)]
    ro = [enc_ro(a, math.floor(c - bias) if bias else math.floor(c))
          for a, c in zip(i_a, i_c)]
    return ri, ro


def enc_concretize(i_a, mag):
    """EncConcretizer: the abstract sign picks the sign of the magnitude."""
    return [m if a else -m for a, m in zip(i_a, mag)]


# ---------------------------------------------------------------------------
# The generated deep network (see gen.deep_net_model)


def deep_net(stages, block_len, ticks):
    """Simulate the stage chain on rows of (u0, u1, en, g).

    `stages` lists (kind, strict, params) in dataflow order; the output of
    every `block_len`-th stage is a network output. Returns one tuple of
    block outputs per tick.
    """
    pending = [0] * len(stages)
    on = [False] * len(stages)
    out = []
    for u0, u1, en, g in ticks:
        x = u0
        row = []
        for i, (kind, strict, p) in enumerate(stages):
            prev = pending[i]
            if kind == "lin":
                comp = clamp((x * p["a"]) // 4 + u1 - p["c"], -1000, 1000)
            elif kind == "mode":
                if not on[i]:
                    if en and x > p["t"]:
                        on[i] = True
                        comp = min(x + p["c"], 1000)
                    else:
                        comp = x // 2
                elif not en or x < -p["t"]:
                    on[i] = False
                    comp = x // 2
                else:
                    comp = min(x + p["c"], 1000)
            elif kind == "filt":
                comp = (prev * p["k"] + x * (4 - p["k"])) // 4
            else:  # gain
                comp = clamp(math.floor(x * g), -1000, 1000)
            pending[i] = comp
            x = prev if strict else comp
            if (i + 1) % block_len == 0:
                row.append(x)
        out.append(tuple(row))
    return out
