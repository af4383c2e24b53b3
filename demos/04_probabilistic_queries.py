"""Writing down the probability tables and querying the grounded network.

Builds the laundry scenario, whose conditional probability functions are
leaky noisy-ORs of the network's relations, grounds the template for one
object, and asks the questions a task-repair planner would ask: what is
this object, where can I find one, what is it for.  Likelihood weighting
counts how many of its 30 000 samples fall into each configuration of
the variables it draws, a few hundred here, rather than drawing one
state per sample.  Exact variable
elimination, likelihood weighting, and Gibbs sampling answer the same
query: 0.7696 all three.  The query's one parent is the evidence
``IsA(obj1,sock)`` and nothing depends on the query, so both samplers
answer it by its CPF row at that parent, averaged over the samples: the
exact answer.  They draw no variable, and none of Gibbs' 500 burn-in
sweeps runs.
"""

from situnet import bln, data_path
from situnet.cli import load_config, run_generation

config, _ = load_config(data_path("configs", "laundry.cfg"))
products = run_generation(config)
print(f"laundry model: {len(products.fragments)} fragments")

net = bln.ground(products.declaration, products.fragments, ["obj1"])
print(f"grounded for one object: {len(net)} boolean variables\n")

# -- a task-repair query: a sock is observed; where do socks live? ------------

evidence = {"IsA(obj1,sock)": True}
queries = [name for name in net.names if name.startswith("AtLocation")]
estimates = bln.lw_estimates(net, queries, evidence, n_samples=30_000, seed=11)
print("AtLocation(obj1, *) given IsA(obj1, sock):")
for name, prob in sorted(estimates.items(), key=lambda kv: -kv[1]):
    print(f"  {prob:.3f}  {name}")
print()

# -- category and affordance queries -----------------------------------------

for pattern in ("IsA", "UsedFor"):
    queries = [n for n in net.names if n.startswith(pattern)]
    estimates = bln.lw_estimates(net, queries, evidence, n_samples=30_000, seed=12)
    top = sorted(estimates.items(), key=lambda kv: -kv[1])[:4]
    print(f"top {pattern} answers: " +
          ", ".join(f"{n}={p:.2f}" for n, p in top))
print()

# -- three inference methods, one answer ---------------------------------------

query = "AtLocation(obj1,dresser)"
exact = bln.infer_exact(net, query, evidence)
lw = bln.infer_lw(net, query, evidence, n_samples=50_000, seed=13)
gibbs = bln.infer_gibbs(net, query, evidence, burn_in=500, n_samples=50_000, seed=13)
print(f"{query} given IsA(obj1, sock):")
print(f"  exact {exact:.4f} | likelihood weighting {lw:.4f} | Gibbs {gibbs:.4f}")
