"""Walkthrough: coupled survival-conditioned trees.

One sample couples a parameter-1.2 tree inside a parameter-1.5 tree:
shared finite bushes are literally identical, the extra bushes of the
smaller-parameter tree map onto spare infinite branches of the larger
one, and the child-size domination check passes at every coupled vertex.
"""

import gwtree as gw
from gwtree.trees import tree_to_text

# the sampler leaves the mu-only subtrees of the hi tree open (a walk grows
# them on first visit); complete() grows them to the horizon
pair = gw.sample_coupled_trees(1.2, 1.5, depth=3, seed=8).complete()

print(f"lo tree ({pair.lam}): {len(pair.lo)} nodes   "
      f"hi tree ({pair.mu}): {len(pair.hi)} nodes")
rc = pair.root_couple
print(f"root offspring decomposition: lo has {rc.n_inf_lo} infinite + "
      f"{sum(rc.n_fin_lo.values())} finite children "
      f"(bush sizes {dict(rc.n_fin_lo)}),")
print(f"hi has {rc.n_inf_hi} infinite + {sum(rc.n_fin_hi.values())} finite "
      f"children (shared bushes {dict(rc.n_fin_hi)})")
print(f"slack check: n_inf_hi >= n_inf_lo + extras  "
      f"({rc.n_inf_hi} >= {rc.n_inf_lo} + {rc.extra_total()})")

pair.validate_embedding()
print("embedding: root-preserving, injective, parent-compatible, "
      "subtree-size dominating -> OK")
print("child-size domination at every coupled vertex:", pair.audit_le1())

print()
print("serialized lo tree (id parent type subtree-size):")
print(tree_to_text(pair.lo))
print("node map lo -> hi:", dict(sorted(pair.node_map.items())))
