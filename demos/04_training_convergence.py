"""Training a network under link failures and watching the running minimum
of the squared gradient norm fall.

The step size matched to the training horizon,

    alpha = sqrt(2 * cost_gap / (T * smoothness * grad_bound^2)),

certifies an O(1/sqrt(T)) decay of the minimum gradient norm; empirically,
quadrupling the horizon should shrink the reached minimum noticeably.

Run:  python3 demos/04_training_convergence.py
"""

import sgnn_lab as sl
from sgnn_lab.experiments import gen_source_dataset

rng = sl.Rng(0, stream=77)
adj = sl.build_sbm(10, 2, 0.8, 0.2, rng.child(0))
base = sl.to_shift(adj, sl.NORMALIZED_ADJACENCY)
dataset = gen_source_dataset(base, 2, (500, 50, 50), 8, 0.01, rng.child(1))
cfg = sl.SgnnConfig(layers=1, features=8, order=4, nonlinearity="relu",
                    in_features=1, out_features=8, readout="pooled", readout_dim=2)
tensor0 = sl.init_tensor(cfg, rng.child(2), 1.0)
train_set = sl.TrainingSet(dataset.train.inputs, dataset.train.labels, base)

for horizon in (400, 1600):
    tcfg = sl.TrainConfig(iterations=horizon, batch_size=len(train_set), lr=0.05,
                          schedule="horizon", optimizer="sgd", link_p=0.9,
                          seed=0, loss="cross_entropy")
    trace = sl.train(tensor0, train_set, tcfg)
    running = sl.convergence_metric(trace)
    print(f"T={horizon:5d}  step={trace.lrs[0]:.4f}  final cost={trace.costs[-1]:.4f}"
          f"  running-min |grad|^2={running[-1]:.3e}")

print("\nthe same loop with Adam and a constant rate, tracing the cost:")
tcfg = sl.TrainConfig(iterations=300, batch_size=100, lr=5e-3, optimizer="adam",
                      link_p=0.9, seed=1, loss="cross_entropy")
trace = sl.train(tensor0, train_set, tcfg)
for t in range(0, 300, 60):
    print(f"  iteration {t:3d}: cost {trace.costs[t]:.4f}")
trace.to_csv("runs_demo_trace.csv")
print("per-iteration trace written to runs_demo_trace.csv (wall_ms written as 0)")
