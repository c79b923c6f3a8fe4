"""Fitting Mondrian trees and forests on synthetic regression data.

Shows batch fitting, streaming updates that match batch fits exactly,
forest averaging, the lifetime schedules, and model save/load.
"""

import numpy as np

import mondrianforest as mf

rng = np.random.default_rng(0)
n, d = 2000, 2
X = rng.random((n, d))


def f(X):
    return np.sin(np.pi * X[:, 0]) * (1.0 + X[:, 1])


y = f(X) + 0.1 * rng.standard_normal(n)
box = mf.BoxRegion.unit(d)

print("=== a single tree ===")
lifetime = mf.lifetime_schedule("lipschitz", n, d)
print(f"schedule lifetime for n={n}, d={d}: {lifetime:.2f}")
partition = mf.sample_mondrian(box, lifetime, mf.RngStream(42))
tree = mf.fit_tree(partition, X, y)
X_test = rng.random((4000, d))
tree_mse = np.mean((mf.predict_tree(tree, X_test) - f(X_test)) ** 2)
print(f"tree: {tree.n_leaves} leaves, test MSE {tree_mse:.5f}")

print("\n=== streaming updates equal the batch fit exactly ===")
streamed = mf.fit_tree(partition, np.empty((0, d)), np.empty(0))
for xi, yi in zip(X[:500], y[:500]):
    streamed = mf.update_tree(streamed, xi, yi)
batch = mf.fit_tree(partition, X[:500], y[:500])
probe = X_test[:100]
print("bit-identical predictions:",
      np.array_equal(mf.predict_tree(streamed, probe), mf.predict_tree(batch, probe)))

print("\n=== forests average trees, and more trees help ===")
for m in (1, 5, 25, 100):
    forest = mf.fit_forest(box, d, lifetime, m, X, y, master_seed=7)
    mse = np.mean((mf.predict_forest(forest, X_test) - f(X_test)) ** 2)
    print(f"  {m:>3} trees: test MSE {mse:.5f}")

print("\n=== risk bound from the closed-form oracle ===")
params = mf.RiskBoundParams(d=d, lifetime=lifetime, n=n, sigma2=0.01,
                            lipschitz=np.pi * np.sqrt(2), sup_f=2.0)
print(f"guaranteed risk bound at this lifetime: {mf.lipschitz_risk_bound(params):.4f}")

print("\n=== save / load ===")
forest = mf.fit_forest(box, d, lifetime, 10, X, y, master_seed=7)
payload = mf.model_to_json(forest)
clone = mf.model_from_json(payload)
leaves = sum(tree.n_leaves for tree in forest.trees)
print(f"model JSON: {len(payload)} bytes, {len(payload) / leaves:.1f} per leaf; "
      "identical predictions after reload:",
      np.array_equal(mf.predict_forest(clone, probe), mf.predict_forest(forest, probe)))
