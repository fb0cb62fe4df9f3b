"""Strategy-based conformance testing: tioco monitor, session, drivers.

The core is the sans-IO :class:`TestSession` (strategy decisions, spec
monitoring, verdicts), configured by one :class:`SessionConfig` value;
:class:`TestExecutor` / :func:`execute_test` drive it in-process against
a :class:`SimulatedImplementation`, the asyncio server (:mod:`repro.server`)
drives it over sockets.
"""

from .campaign import (
    DEFAULT_POLICIES,
    CampaignReport,
    MutantOutcome,
    MutationCampaign,
    MutationReport,
    PurposeOutcome,
    TestCampaign,
    make_policy,
)
from .mutants import Mutant, MutantSpec
from .executor import TestExecutor, TestExecutionError, execute_test
from .implementation import (
    EagerPolicy,
    LazyPolicy,
    OutputPolicy,
    QuiescentPolicy,
    RandomPolicy,
    ScheduledOutput,
    SimulatedImplementation,
)
from .replay import ReplayResult, parse_trace, replay_trace
from .rtioco import RelativizedMonitor, RtiocoMonitor
from .session import (
    Finish,
    SendInput,
    SessionConfig,
    SessionProtocolError,
    TestSession,
    Wait,
)
from .tioco import Quiescence, SpecNondeterminism, TiocoMonitor
from .trace import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    ActionStep,
    DelayStep,
    TestRun,
    TimedTrace,
)

__all__ = [
    "ActionStep",
    "CampaignReport",
    "DEFAULT_POLICIES",
    "DelayStep",
    "EagerPolicy",
    "FAIL",
    "Finish",
    "INCONCLUSIVE",
    "LazyPolicy",
    "Mutant",
    "MutantOutcome",
    "MutantSpec",
    "MutationCampaign",
    "MutationReport",
    "OutputPolicy",
    "PASS",
    "PurposeOutcome",
    "Quiescence",
    "QuiescentPolicy",
    "RandomPolicy",
    "RelativizedMonitor",
    "ReplayResult",
    "RtiocoMonitor",
    "ScheduledOutput",
    "SendInput",
    "SessionConfig",
    "SessionProtocolError",
    "SimulatedImplementation",
    "SpecNondeterminism",
    "TestCampaign",
    "TestExecutionError",
    "TestExecutor",
    "TestRun",
    "TestSession",
    "TimedTrace",
    "TiocoMonitor",
    "Wait",
    "execute_test",
    "make_policy",
    "parse_trace",
    "replay_trace",
]
