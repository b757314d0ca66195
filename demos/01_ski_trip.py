"""
Planning a ski trip under weather uncertainty
=============================================

A car sits in town B.  Snowbird and Park City both count as "a resort",
but after a possible overnight blizzard either access road may be blocked.
Checking a road is cheap; driving commits you.  We accept a 10% chance of
wasting the day and ask the planner for a conditional plan.
"""

from riskplan import plan_linear, plan_nonlinear
from riskplan.conditional import ActionNode, BranchNode, GiveUpLeaf, GoalLeaf
from riskplan.worlds import load_texts, ski_world

gdom, problem = load_texts(*ski_world())
print("operators:", ", ".join(op.name for op in gdom.operators))
print("goal:", " ".join(g.text() for g in problem.goals),
      " epsilon:", problem.epsilon)


# a small renderer for the branching plan
def show(node, indent=""):
    if isinstance(node, ActionNode):
        print(f"{indent}do {node.op.name}")
        show(node.child, indent)
    elif isinstance(node, BranchNode):
        print(f"{indent}do {node.op.name}  (reveals {node.source})")
        for outcome, child in sorted(node.children.items()):
            print(f"{indent}  if {outcome}:")
            show(child, indent + "    ")
    elif isinstance(node, GoalLeaf):
        print(f"{indent}-> goal reached")
    elif isinstance(node, GiveUpLeaf):
        print(f"{indent}-> give up")


# at epsilon 0.1 a single resort suffices: check the Snowbird road and only
# drive when the report comes back clear
res = plan_linear(gdom, problem, epsilon=0.1)
print(f"\nepsilon 0.10: success mass {res.bound.achieved_mass:.4f} "
      f"({res.stats['expanded']} nodes expanded)")
show(res.conditional.root)

# tighten the risk bound and the blocked branch must now fall back to
# Park City instead of giving up
res = plan_linear(gdom, problem, epsilon=0.085)
print(f"\nepsilon 0.085: success mass {res.bound.achieved_mass:.7f}")
show(res.conditional.root)

# the partial-order planner reaches the same mass with the same branch
# structure, it just commits to fewer orderings along the way
res2 = plan_nonlinear(gdom, problem, epsilon=0.085)
print(f"\nnonlinear planner: success mass {res2.bound.achieved_mass:.7f}")
print("links used:")
for link in sorted(res2.graph.links, key=lambda l: l.text()):
    print("  ", link.text())
