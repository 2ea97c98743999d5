"""Random edge sampling on a small graph: realizations, expected shifts, and
the closed-form second moment versus brute-force enumeration.

Run:  python3 demos/01_random_edge_sampling.py
"""

import numpy as np

import sgnn_lab as sl

rng = sl.Rng(0)

# A stochastic block model with two tight communities.
adj = sl.build_sbm(10, 2, 0.9, 0.2, rng.child(0))
print(f"graph: {adj.n} nodes, {adj.num_edges} edges")
print("degrees:", adj.degrees.astype(int))

# One link-failure realization: every edge survives with probability 0.6.
# A realization is its N x N matrix; the surviving edges are its nonzero
# upper-triangle entries.
real = sl.sample_realization(adj, 0.6, rng.child(1))
print(f"\nrealization keeps {np.count_nonzero(np.triu(real, 1))}/{adj.num_edges} edges")
print("realization is symmetric:", np.array_equal(real, real.T))

# The Laplacian of the surviving edge set still has zero row sums.
lap = sl.to_shift(adj, sl.LAPLACIAN)
lap_real = sl.sample_realization(lap, 0.6, rng.child(2))
print("realized laplacian max |row sum|:", np.abs(lap_real.sum(axis=1)).max())

# First moment: the mean realized shift is p * S, checked by Monte Carlo.
p = 0.5
draws = sl.sample_realizations(adj, p, rng.child(3), 20_000)   # (20000, N, N)
mc_mean = draws.mean(axis=0)
print(f"\nmax |MC mean - p S| over 20k draws: {np.abs(mc_mean - sl.expected_shift(adj, p)).max():.4f}")

# Second moment: closed form against exact enumeration of all 2^M masks.
small = sl.build_sbm(6, 2, 0.9, 0.4, sl.Rng(3).child(0))
for kind in (sl.ADJACENCY, sl.LAPLACIAN):
    base = sl.to_shift(small, kind)
    closed = sl.expected_shift_square(base, p)
    brute = sl.enumerate_expected_shift_square(base, p)
    print(f"E[S^2] closed form vs enumeration ({kind}): "
          f"max abs err {np.abs(closed - brute).max():.2e}")
