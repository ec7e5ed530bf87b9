"""The benchmark's workloads: which (method, scenario) runs make one pass.

Every workload calls the public pipeline entry points with their default
``workers=1``.  The workload seed sets the MC / DEE initial cloud; GMM-UT
has no random input, so its runs ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from odlab.scenarios import ScenarioConfig, builtin_scenarios, desk_case, paper_case


@dataclass(frozen=True)
class Case:
    """One run of one method on one scenario."""

    method: str  # "mc" | "dee" | "gmmut"
    scenario: int  # built-in scenario number, keys the reference moments
    config: ScenarioConfig

    @property
    def label(self) -> str:
        return f"{self.method}-s{self.scenario}"


def _desk(method: str, nums, seed: int, **overrides) -> list[Case]:
    base = builtin_scenarios()
    return [Case(method, n, replace(desk_case(base[n], method), seed=seed,
                                    **overrides)) for n in nums]


def _paper(case: str, method: str, nums, seed: int, **overrides) -> list[Case]:
    base = builtin_scenarios()
    return [Case(method, n, replace(paper_case(base[n], case), seed=seed,
                                    **overrides)) for n in nums]


WORKLOADS = {
    "mc-desk": lambda seed: _desk("mc", (1, 2, 3), seed),
    "dee-desk-t0": lambda seed: _desk("dee", (1, 2, 3), seed, t_final=0.0),
    "dee-desk": lambda seed: _desk("dee", (1, 2), seed),
    "dee-1e5-t0": lambda seed: _paper("dee-1e5", "dee", (1,), seed,
                                      t_final=0.0),
    "gmmut-paper": lambda seed: _paper("gmmut", "gmmut", (1, 2, 3), seed),
}


def build(name: str, seed: int) -> list[Case]:
    return WORKLOADS[name](seed)
