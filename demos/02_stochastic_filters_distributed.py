"""Stochastic graph filters and their node-local evaluation.

A filter of order K diffuses the signal through K independently sampled
graph realizations and combines the stages with scalar taps.  The same
computation runs either centrally (matrix products) or by per-node message
passing over the surviving links only; this script checks they agree and
dumps the message trace of a small run.

Run:  python3 demos/02_stochastic_filters_distributed.py
"""

import numpy as np

import sgnn_lab as sl

rng = sl.Rng(7)
adj = sl.build_sbm(10, 2, 0.8, 0.3, rng.child(0))
base = sl.to_shift(adj, sl.NORMALIZED_ADJACENCY)

taps = np.array([0.2, 0.7, -0.4, 0.3])
x = rng.child(1).normal(size=10)
reals = sl.sample_realizations(base, 0.6, rng.child(2), len(taps) - 1)  # (K, N, N)

central = sl.apply_filter(taps, reals, x)
local, messages = sl.apply_distributed(taps, reals, x, record_trace=True)
print("max |centralized - distributed|:", np.abs(central - local).max())
links = [int(np.count_nonzero(np.triu(mat, 1))) for mat in reals]
print(f"messages exchanged over 3 rounds: {len(messages)} (2 per surviving link, {links})")

sl.write_message_trace(messages, "runs_demo_messages.csv")
print("trace written to runs_demo_messages.csv (round, sender, receiver, value)")

# With every link up the filter is the ordinary polynomial in the shift,
# which acts diagonally in the graph Fourier basis.
intact = sl.sample_realizations(base, 1.0, rng.child(3), len(taps) - 1)
u = sl.apply_filter(taps, intact, x)
pair = sl.eig_sym(base)
lhs = sl.gft(pair, u)
rhs = sl.freq_response(taps, pair.values) * sl.gft(pair, x)
print("spectral check (intact links):", np.abs(lhs - rhs).max())

# Monte-Carlo mean of the stochastic filter approaches the deterministic
# filter on the mean shift p * S.
p = 0.7
outs = np.empty((20_000, 10))
mc_rng = rng.child(4)
for i in range(len(outs)):
    outs[i] = sl.apply_filter(taps, sl.sample_realizations(base, p, mc_rng, 3), x)
want = sl.apply_deterministic(taps, sl.expected_shift(base, p), x)
err = np.abs(outs.mean(axis=0) - want).max()
print(f"max |MC mean - filter on mean shift|: {err:.4f}")
