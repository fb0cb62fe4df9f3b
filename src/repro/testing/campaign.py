"""Test campaigns: automated strategy-based testing environments.

The paper's future-work item 2 asks for "a fully automated strategy-based
testing environment".  A :class:`TestCampaign` is that environment in
library form:

* takes the composed specification, the plant specification, and a list
  of test purposes;
* synthesizes (and caches) a winning strategy per purpose, falling back
  to cooperative strategies where no winning one exists;
* runs every strategy against an implementation under one or more output
  policies;
* aggregates the verdicts into a :class:`CampaignReport` with the usual
  conformance-testing convention: any ``fail`` makes the implementation
  non-conformant, purposes without winning strategies can only strengthen
  confidence, never prove it.

Example::

    campaign = TestCampaign(arena, plant, [TP1, TP2, TP3])
    report = campaign.run(lambda: SimulatedImplementation(imp_sys, LazyPolicy()))
    print(report.summary())

:class:`MutationCampaign` is the *fault-detection* face of the same
environment (future-work item 3): a pool of mutants described as
picklable :class:`~repro.testing.mutants.MutantSpec` data is swept
against the synthesized strategies under several output policies, and —
mutants being independent — the sweep shards across CPU cores through
:mod:`repro.par` with per-worker strategy caches, deterministic results
for every ``jobs`` value, and merged op counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..game.cooperative import CooperativeStrategy
from ..game.solver import GameResult, TwoPhaseSolver
from ..game.strategy import Strategy
from ..par import steal_map
from ..semantics.system import System
from ..tctl.query import Query, parse_query
from .executor import execute_test
from .implementation import (
    EagerPolicy,
    LazyPolicy,
    QuiescentPolicy,
    RandomPolicy,
    SimulatedImplementation,
)
from .mutants import MutantSpec
from .session import SessionConfig
from .trace import FAIL, INCONCLUSIVE, PASS, TestRun


@dataclass
class PurposeOutcome:
    """One purpose's synthesized strategy and its execution results."""

    purpose: str
    winning: bool
    strategy_states: int
    runs: List[TestRun] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        if any(run.failed for run in self.runs):
            return FAIL
        if all(run.passed for run in self.runs) and self.runs:
            return PASS
        return INCONCLUSIVE


@dataclass
class CampaignReport:
    """Aggregate result of a campaign against one implementation."""

    outcomes: List[PurposeOutcome]

    @property
    def conformant(self) -> Optional[bool]:
        """False if any run failed (sound); None if nothing conclusive."""
        if any(o.verdict == FAIL for o in self.outcomes):
            return False
        if any(o.verdict == PASS for o in self.outcomes):
            return None  # passes build confidence but cannot prove tioco
        return None

    @property
    def failed_purposes(self) -> List[str]:
        return [o.purpose for o in self.outcomes if o.verdict == FAIL]

    def summary(self) -> str:
        lines = []
        for outcome in self.outcomes:
            mode = "winning" if outcome.winning else "cooperative"
            lines.append(
                f"{outcome.verdict.upper():12s} {outcome.purpose}"
                f"  [{mode} strategy, {outcome.strategy_states} states,"
                f" {len(outcome.runs)} run(s)]"
            )
            for run in outcome.runs:
                if run.failed:
                    lines.append(f"    failing trace: {run.trace} — {run.reason}")
        verdict = (
            "NON-CONFORMANT (tioco violated)"
            if self.conformant is False
            else "no violation found"
        )
        lines.append(f"overall: {verdict}")
        return "\n".join(lines)


class TestCampaign:
    """Synthesize once, test many implementations."""

    def __init__(
        self,
        arena: System,
        plant: System,
        purposes: Sequence[Union[str, Query]],
        *,
        time_limit: Optional[float] = None,
        allow_cooperative: bool = True,
        warm_cache: Optional[str] = None,
    ):
        self.arena = arena
        self.plant = plant
        self.time_limit = time_limit
        self.allow_cooperative = allow_cooperative
        #: Win-set solve cache directory (:mod:`repro.game.warm`): purposes
        #: synthesized by any campaign sharing the directory — including
        #: other worker processes and past runs — are restored instead of
        #: re-solved.  ``None`` keeps the historical always-cold behaviour.
        self.warm_cache = warm_cache
        self.queries: List[Query] = [
            q if isinstance(q, Query) else parse_query(q) for q in purposes
        ]
        self._strategies: Dict[str, object] = {}
        self._results: Dict[str, GameResult] = {}
        self._warm = None
        if warm_cache is not None:
            from ..game.warm import resolve_cache

            self._warm = resolve_cache(warm_cache)

    # ------------------------------------------------------------------

    def strategy_for(self, query: Query):
        """Synthesize (cached) the strategy for one purpose."""
        key = str(query)
        if key in self._strategies:
            return self._strategies[key]
        if self._warm is not None:
            from ..game.warm import warm_solve

            result = warm_solve(
                self.arena, query, cache=self._warm, time_limit=self.time_limit
            )
        else:
            solver = TwoPhaseSolver(
                self.arena, query, time_limit=self.time_limit
            )
            result = solver.solve()
        self._results[key] = result
        if result.winning:
            strategy: object = Strategy(result)
        elif self.allow_cooperative:
            strategy = CooperativeStrategy(result)
        else:
            strategy = None
        self._strategies[key] = strategy
        return strategy

    def synthesize_all(self) -> Dict[str, bool]:
        """Pre-compute every strategy; returns purpose -> winning flag."""
        out = {}
        for query in self.queries:
            self.strategy_for(query)
            out[str(query)] = self._results[str(query)].winning
        return out

    # ------------------------------------------------------------------

    def run(
        self,
        implementation_factory: Callable[[], SimulatedImplementation],
        *,
        config: Optional[SessionConfig] = None,
    ) -> CampaignReport:
        """Test one implementation against every purpose.

        ``implementation_factory`` builds a *fresh* implementation per run
        (runs must not leak state into each other).  Session knobs (the
        monitor's ``max_states`` budget, the iteration budget, the number
        of repetitions per purpose) ride in ``config``.
        """
        config = config or SessionConfig()
        outcomes = []
        for query in self.queries:
            strategy = self.strategy_for(query)
            result = self._results[str(query)]
            outcome = PurposeOutcome(
                str(query),
                result.winning,
                getattr(strategy, "size", 0) if strategy is not None else 0,
            )
            if strategy is not None:
                for _ in range(config.repetitions):
                    imp = implementation_factory()
                    outcome.runs.append(
                        execute_test(strategy, self.plant, imp, config=config)
                    )
            outcomes.append(outcome)
        return CampaignReport(outcomes)


# ----------------------------------------------------------------------
# Mutation-detection campaigns (sharded)
# ----------------------------------------------------------------------

#: Default policy sweep of a mutation-detection campaign.  Policies are
#: named by strings (``random:SEED`` carries its seed) so a sweep is
#: picklable and seed-stable across the worker pool.
DEFAULT_POLICIES: Tuple[str, ...] = (
    "eager",
    "lazy",
    "quiescent",
    "random:0",
    "random:1",
)


def make_policy(spec: str):
    """A fresh output policy from its string form."""
    if spec == "eager":
        return EagerPolicy()
    if spec == "lazy":
        return LazyPolicy()
    if spec == "quiescent":
        return QuiescentPolicy()
    if spec.startswith("random:"):
        return RandomPolicy(int(spec.split(":", 1)[1]))
    raise ValueError(
        f"unknown policy {spec!r}; known: eager, lazy, quiescent, random:SEED"
    )


@dataclass(frozen=True)
class MutantOutcome:
    """One mutant's fate against the whole purpose × policy sweep."""

    name: str
    caught: bool
    #: (purpose, policy) of the first failing execution, if any.
    caught_by: Optional[Tuple[str, str]]
    expected_caught: Optional[bool]
    description: str = ""

    @property
    def surprising(self) -> bool:
        """Whether the outcome contradicts the mutant's expectation."""
        return (
            self.expected_caught is not None
            and self.caught != self.expected_caught
        )


@dataclass
class MutationReport:
    """Aggregate kill-rate report of a mutation-detection campaign."""

    outcomes: List[MutantOutcome]

    @property
    def killed(self) -> int:
        return sum(1 for o in self.outcomes if o.caught)

    @property
    def surprises(self) -> List[MutantOutcome]:
        return [o for o in self.outcomes if o.surprising]

    def summary(self) -> str:
        lines = []
        for outcome in self.outcomes:
            verdict = "KILLED" if outcome.caught else "survived"
            via = (
                f"  [{outcome.caught_by[0]} / {outcome.caught_by[1]}]"
                if outcome.caught_by
                else ""
            )
            mark = "  (UNEXPECTED)" if outcome.surprising else ""
            lines.append(f"{verdict:9s} {outcome.name}{via}{mark}")
        lines.append(
            f"mutation score: {self.killed}/{len(self.outcomes)}"
            + (f", {len(self.surprises)} unexpected" if self.surprises else "")
        )
        return "\n".join(lines)


# Per-process strategy cache: synthesis is the expensive, shareable part
# of a mutation campaign, so each worker solves every purpose once and
# reuses the strategies across all the mutants it is handed.  Keyed by
# the campaign's picklable identity (factories are module-level
# callables, purposes are strings).
_CAMPAIGN_CACHE: Dict[tuple, TestCampaign] = {}


def _cached_campaign(
    arena_factory: Callable,
    plant_factory: Callable,
    purposes: Tuple[str, ...],
    time_limit: Optional[float],
    allow_cooperative: bool,
    warm_cache: Optional[str] = None,
) -> TestCampaign:
    key = (
        arena_factory,
        plant_factory,
        purposes,
        time_limit,
        allow_cooperative,
        warm_cache,
    )
    campaign = _CAMPAIGN_CACHE.get(key)
    if campaign is None:
        campaign = TestCampaign(
            System(arena_factory()),
            System(plant_factory()),
            purposes,
            time_limit=time_limit,
            allow_cooperative=allow_cooperative,
            warm_cache=warm_cache,
        )
        _CAMPAIGN_CACHE[key] = campaign
    return campaign


def _detect_one(
    arena_factory: Callable,
    plant_factory: Callable,
    purposes: Tuple[str, ...],
    time_limit: Optional[float],
    allow_cooperative: bool,
    warm_cache: Optional[str],
    spec: MutantSpec,
    config: SessionConfig,
) -> MutantOutcome:
    """One mutant's sweep (module-level: the pool's unit of work)."""
    campaign = _cached_campaign(
        arena_factory,
        plant_factory,
        purposes,
        time_limit,
        allow_cooperative,
        warm_cache,
    )
    mutant = spec.build(plant_factory())
    mutant_system = System(mutant.network)
    policies = config.policies or DEFAULT_POLICIES
    for query in campaign.queries:
        strategy = campaign.strategy_for(query)
        if strategy is None:
            continue
        for policy in policies:
            for _ in range(config.repetitions):
                imp = SimulatedImplementation(mutant_system, make_policy(policy))
                run = execute_test(
                    strategy, campaign.plant, imp, config=config
                )
                if run.failed:
                    return MutantOutcome(
                        spec.name,
                        True,
                        (str(query), policy),
                        spec.expected_caught,
                        spec.description,
                    )
    return MutantOutcome(
        spec.name, False, None, spec.expected_caught, spec.description
    )


class MutationCampaign:
    """Sharded fault-detection sweeps: purposes × mutants × policies.

    ``arena_factory`` / ``plant_factory`` must be *module-level* callables
    returning prepared networks (the composed game arena and the plant
    specification): workers import them by reference, build their own
    systems, and cache the synthesized strategies per process — nothing
    heavier than a :class:`~repro.testing.mutants.MutantSpec` crosses the
    pool.  Outcomes are deterministic for every ``jobs`` value: mutants
    are rebuilt from specs, policies are seed-named, and results come
    back in mutant order.
    """

    def __init__(
        self,
        arena_factory: Callable,
        plant_factory: Callable,
        purposes: Sequence[Union[str, Query]],
        *,
        time_limit: Optional[float] = None,
        allow_cooperative: bool = True,
        warm_cache: Optional[str] = None,
    ):
        self.arena_factory = arena_factory
        self.plant_factory = plant_factory
        self.purposes: Tuple[str, ...] = tuple(str(q) for q in purposes)
        self.time_limit = time_limit
        self.allow_cooperative = allow_cooperative
        #: Directory of the shared win-set solve cache (picklable: the
        #: path string crosses the pool, every worker opens its own
        #: handle).  Lets the per-worker strategy caches start warm —
        #: one worker's (or a past campaign's) synthesis serves them all.
        self.warm_cache = warm_cache

    def detect(
        self,
        spec: MutantSpec,
        *,
        config: Optional[SessionConfig] = None,
    ) -> MutantOutcome:
        """One mutant's sweep, in-process."""
        return _detect_one(
            self.arena_factory,
            self.plant_factory,
            self.purposes,
            self.time_limit,
            self.allow_cooperative,
            self.warm_cache,
            spec,
            config or SessionConfig(),
        )

    def run(
        self,
        specs: Sequence[MutantSpec],
        *,
        jobs: int = 1,
        config: Optional[SessionConfig] = None,
    ) -> MutationReport:
        """Sweep every mutant, sharded over ``jobs`` worker processes.

        Dispatch is work-stealing (:func:`repro.par.steal_map`): mutant
        cost varies wildly with how fast a strategy kills it, so
        single-task dispatch keeps the pool busy where chunking would
        straggle.  The per-process strategy cache still amortizes
        synthesis — every worker solves each purpose at most once,
        whichever mutants it happens to steal.  Session knobs (policy
        sweep, repetitions, budgets) ride in the picklable ``config``.
        """
        config = config or SessionConfig()
        tasks = [
            (
                self.arena_factory,
                self.plant_factory,
                self.purposes,
                self.time_limit,
                self.allow_cooperative,
                self.warm_cache,
                spec,
                config,
            )
            for spec in specs
        ]
        return MutationReport(list(steal_map(_detect_one, tasks, jobs=jobs)))
