"""
Querying the belief net behind a planning problem
=================================================

The prior clauses of a problem induce a small Bayesian network: one node
per chance variable, with the clause bodies as parents.  Plan evaluation
boils down to joint queries against this net, so here we poke at it
directly.
"""

from riskplan.conditional import Label
from riskplan.probmodel import (build_initial_net, conditional_outcome_probability,
                                d_connected, joint_by_enumeration,
                                joint_probability, net_to_dot)
from riskplan.worlds import load_texts, ski_world

_, problem = load_texts(*ski_world())
net = build_initial_net(problem)

for vid, var in net.variables.items():
    print(f"{vid}: parents {list(var.parents) or 'none'}")

CBS = "clear(b,snowbird)"
CCP = "clear(c,parkcity)"

# a blizzard blocks roads with very different odds, so the marginal of one
# road mixes the two weather regimes
p = joint_probability(net, [Label(CBS, "true")])
print(f"\nP({CBS})                = {p:.6f}")

# both roads depend on the blizzard, which makes them correlated: seeing
# one blocked is bad news for the other
p_ccp = joint_probability(net, [Label(CCP, "true")])
p_given = conditional_outcome_probability(
    net, Label(CCP, "true"), [Label(CBS, "false")])
print(f"P({CCP})                = {p_ccp:.6f}")
print(f"P({CCP} | {CBS}=false)  = {p_given:.6f}")

# the correlation is exactly the shared parent: conditioning on the
# blizzard itself renders the two roads independent
print("\nroads d-connected:", d_connected(net, CBS, CCP))
print("  ... given blizzard:", d_connected(net, CBS, CCP, ["blizzard"]))

# variable elimination is the fast path; brute-force enumeration over all
# value combinations is the oracle it is tested against
both = [Label(CBS, "false"), Label(CCP, "true")]
fast = joint_probability(net, both)
brute = joint_by_enumeration(net, both)
print(f"\nP(blocked here, clear there): ve {fast:.9f}  enumerate {brute:.9f}")

# the net renders to graphviz if you want to look at it
print("\n" + net_to_dot(net))
