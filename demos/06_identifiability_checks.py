"""When does the joint distribution identify the causal graph?

Two diagnostics, demonstrated on the chain model from demo 05:

  1. path-connectedness -- every noise support a single run, and the
     joint support one face-connected component;
  2. non-constancy -- each mechanism takes at least two values on the
     observable support for every admissible conditioning set.

The chain model fails both, and the failure is not hypothetical: a
structurally different model (a fork instead of a chain) produces the
bit-identical joint distribution.  Repairing the mechanism to be strictly
increasing restores the non-constancy certificate and the dependence it
is meant to guarantee.
"""

import numpy as np

from ciprop import (
    AffineMechanism,
    Axis,
    SemSpec,
    example1,
    example1_alternative,
    is_ci,
    joint_support_components,
    noise_support_path_connected,
    non_constancy_check,
    propagate,
)

chain = example1()
fork = example1_alternative()
print("chain parents:", dict(chain.dag.parents))
print("fork parents: ", dict(fork.dag.parents))

g_chain = propagate(chain)
g_fork = propagate(fork)
tv = 0.5 * float(np.abs(g_chain.prob - g_fork.prob).sum())
print(f"total variation between the two pushforwards: {tv}")
print("=> the distribution cannot tell the graphs apart\n")

# Diagnostic 1: connectivity.  A's two-band noise is the culprit.
print("noise supports connected:", noise_support_path_connected(chain))
print("joint support components:", joint_support_components(g_chain))

# Diagnostic 2: non-constancy of the X mechanism in its parent B.
report = non_constancy_check(chain, "X", "B", g_chain)
print("\nnon-constancy of f_X in B:", report.holds)
print("witnessed conditioning sets:", sorted(report.witnesses))
print("first failing conditioning set:", report.failing_set)
# Given A, the support only sees one plateau of f_X at a time -- and
# indeed X becomes independent of B once A is known:
print("X vs B given A:", is_ci(g_chain, "X", "B", ("A",)).holds)

# Replace the plateaus with a strictly increasing map and the certificate
# comes back, together with genuine dependence.
monotone = SemSpec(
    chain.dag,
    chain.noises,
    {**chain.mechanisms, "X": AffineMechanism(0.0, {"B": 1.0})},
    {**chain.axes, "X": Axis("X", tuple(-2.6 + 0.1 * k for k in range(53)))},
)
g_monotone = propagate(monotone)
report = non_constancy_check(monotone, "X", "B", g_monotone)
print("\nafter the repair --")
print("non-constancy of f_X in B:", report.holds)
verdict = is_ci(g_monotone, "X", "B", ("A",))
print("X vs B given A still independent:", verdict.holds)
print("dependence strength:", round(verdict.deviation, 6))
