"""The enumerating checks that the exact ones replaced, kept as test oracles.

`verify_galois_by_masks` loops over every subset of the abstract universe;
`causality_by_histories` runs every grid history of the horizon and compares
outputs of histories that share an input prefix. Both are the former library
implementations, minus their caps.
"""

import itertools

from streamcheck.abstraction import (GaloisCounterexample, abstract_output, g_membership,
                                     universe_elements)
from streamcheck.components import (AutomatonSpec, CausalityCounterexample, STRICT,
                                    representative_values, run)
from streamcheck.streams import ChannelHistory, TimedStream


def verify_galois_by_masks(gal):
    abs_elems, conc_elems = universe_elements(gal)

    def key(h):
        return tuple((c, h.streams[c].values) for c in sorted(h.streams))

    abs_index = {key(h): i for i, h in enumerate(abs_elems)}
    f_bit = [abs_index.get(key(abstract_output(gal, x))) for x in conc_elems]
    member = [[g_membership(gal, a, x) for x in conc_elems] for a in abs_elems]
    n_a, n_c = len(abs_elems), len(conc_elems)
    for ta_mask in range(2 ** n_a):
        g_mask = 0
        for i in range(n_a):
            if ta_mask >> i & 1:
                for j in range(n_c):
                    if member[i][j]:
                        g_mask |= 1 << j
        lhs_mask = 0
        for j in range(n_c):
            if f_bit[j] is not None and (ta_mask >> f_bit[j]) & 1:
                lhs_mask |= 1 << j
        if lhs_mask != g_mask:
            j = min(i for i in range(n_c) if (lhs_mask ^ g_mask) >> i & 1)
            tc = (conc_elems[j],)
            ta = tuple(abs_elems[i] for i in range(n_a) if ta_mask >> i & 1)
            return GaloisCounterexample(tc, ta, lhs=bool(lhs_mask >> j & 1),
                                        rhs=bool(g_mask >> j & 1))
    return None


def _history_from_grid(channels, combo, horizon):
    streams = {}
    for i, c in enumerate(channels):
        streams[c.name] = TimedStream.of(c.ctype, combo[i * horizon:(i + 1) * horizon])
    return ChannelHistory(streams, horizon)


def prefix_equal(a, b, t):
    return all(a.streams[c].values[:t] == b.streams[c].values[:t] for c in a.streams)


def causality_by_histories(spec, horizon=3, mode=None, values_per_channel=2):
    if mode is None:
        mode = spec.causality if isinstance(spec, AutomatonSpec) else STRICT
    if mode != STRICT and horizon < 2:
        return None
    channels = list(spec.interface.inputs)
    axes = []
    for c in channels:
        axes.extend([representative_values(c.ctype, values_per_channel)] * horizon)
    runs = []
    for combo in itertools.product(*axes):
        hist = _history_from_grid(channels, combo, horizon)
        runs.append((hist, run(spec, hist, horizon)))
    ts = range(0, horizon) if mode == STRICT else range(1, horizon)
    for t in ts:
        out_t = t + 1 if mode == STRICT else t
        buckets = {}
        for hist, out in runs:
            key = tuple(hist.streams[c.name].values[:t] for c in channels)
            if key not in buckets:
                buckets[key] = (hist, out)
            else:
                h0, o0 = buckets[key]
                if not prefix_equal(o0, out, out_t):
                    return CausalityCounterexample(t, h0, hist, o0, out)
    return None
