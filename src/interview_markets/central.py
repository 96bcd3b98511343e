"""Central interview allocation: per-round deferred acceptance over estimates.

The allocator reads every current estimated list (oracle lists for certain
firms), matches agents to firms by agent-proposing deferred acceptance, and
directs each agent to interview its assigned firm plus a round-robin firm.
"""

from __future__ import annotations

from .engine import AgentFeedback, AgentPlan
from .market import agent_proposing_match


def round_robin_firm(agent: int, t: int, m: int) -> int:
    """Exploration target of `agent` at round t; cycles all m firms per agent.

    0-indexed agents/firms; over any m consecutive rounds each firm appears
    exactly once per agent.
    """
    return (t + agent + 1) % m


class CentralAllocator:
    """Engine policy running the allocator every round.

    When the assigned firm coincides with the round-robin firm the agent
    interviews it twice, keeping the two-draws-per-round budget uniform.
    """

    def __init__(self, n: int, m: int, agent_est, firm_est):
        self.n = n
        self.m = m
        self.agent_est = agent_est
        self.firm_est = firm_est

    def plan(self, t: int) -> list[AgentPlan]:
        agent_est = self.agent_est
        firm_est = self.firm_est
        agent_lists = [agent_est.pref_list(a) for a in range(self.n)]
        firm_lists = [firm_est.pref_list(f) for f in range(self.m)]
        match = agent_proposing_match(agent_lists, firm_lists)
        return [
            AgentPlan((match[a], round_robin_firm(a, t, self.m)), (match[a],))
            for a in range(self.n)
        ]

    def observe(self, t: int, feedback: AgentFeedback) -> None:
        pass  # stateless: every round replans from current estimates
