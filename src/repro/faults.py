"""Seeded, deterministic fault injection — the chaos fabric.

Every layer that touches the outside world (the campaign pool, the test
server, the on-disk stores, the compiled kernel backends) carries named
*injection sites*: cheap probes that normally answer "no" and, under an
armed :class:`FaultPlan`, deterministically answer "yes" on scheduled
hits.  The code around each site supplies the fault behaviour (crash,
torn write, dropped connection, kernel error); the plan only decides
*when*.  That split keeps the fabric tiny and the schedule reproducible:
a plan is a pure function of its spec string, its seed, and the per-site
hit count inside one process.

Spec grammar (the ``REPRO_FAULTS`` environment variable)::

    spec    := clause (';' clause)*
    clause  := 'seed=' INT                 -- plan seed (for p= triggers)
             | site ':' trigger
    trigger := '*'                         -- every hit
             | INT (',' INT)*              -- these 1-based hits only
             | 'every=' INT                -- every Nth hit
             | 'p=' FLOAT                  -- seeded Bernoulli per hit

e.g. ``REPRO_FAULTS="par.worker.crash:2;dbm.cext.compute:every=7"``.

Site names are dotted and hierarchical; a clause arms every site it
names exactly *or* prefixes on a dot boundary (``corpus.store`` arms
``corpus.store.write``).  Each trigger bumps a
``faults.fired.<site>`` counter in :mod:`repro.util.counters`, so every
campaign report and server stat shows exactly which faults fired.

Probes at sites with retry semantics (the pool requeues a task after a
worker death) pass ``retry=True`` on re-attempts: scheduled triggers —
hit lists, ``every=``, ``p=`` — model transient faults and never fire
on a retry, so bounded retries absorb them *by construction*; ``*``
models a hard fault (a poison task) and fires on every attempt.

Disarmed cost is one module-global load and an ``is None`` test per
probe.  No perfbench workload arms an ambient plan, so every probe it
reaches is priced inside its end-to-end numbers.

Probabilistic triggers hash ``(seed, site, hit)`` rather than drawing
from shared RNG state, so two sites never perturb each other's schedule
and the decision for hit *n* of a site is the same in any process with
the same plan.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .util import counters

ENV_VAR = "REPRO_FAULTS"

#: How long the ``par.worker.hang`` site sleeps when it fires (seconds).
#: Tests shrink it via the REPRO_FAULTS_HANG environment variable so the
#: pool's task-timeout recovery can be exercised in milliseconds.
HANG_ENV = "REPRO_FAULTS_HANG"
HANG_SECONDS = 30.0


class InjectedFault(RuntimeError):
    """Raised by :func:`fire` when an armed site triggers."""

    def __init__(self, site: str):
        super().__init__(f"injected fault at {site}")
        self.site = site


class _Rule:
    """One parsed ``site:trigger`` clause."""

    __slots__ = ("pattern", "kind", "hits", "every", "prob")

    def __init__(self, pattern: str, kind: str, hits=(), every=0, prob=0.0):
        self.pattern = pattern
        self.kind = kind
        self.hits = frozenset(hits)
        self.every = every
        self.prob = prob

    def decide(self, hit: int, site: str, seed: int) -> bool:
        if self.kind == "always":
            return True
        if self.kind == "hits":
            return hit in self.hits
        if self.kind == "every":
            return hit % self.every == 0
        # "prob": hash (seed, site, hit) so sites never perturb each
        # other's schedule and any process replays the same decisions.
        digest = hashlib.sha256(f"{seed}:{site}:{hit}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < self.prob

    def describe(self) -> str:
        if self.kind == "always":
            return "*"
        if self.kind == "hits":
            return ",".join(str(h) for h in sorted(self.hits))
        if self.kind == "every":
            return f"every={self.every}"
        return f"p={self.prob}"


def _parse_trigger(pattern: str, text: str) -> _Rule:
    text = text.strip()
    if not text:
        raise ValueError(f"empty trigger for fault site {pattern!r}")
    if text == "*":
        return _Rule(pattern, "always")
    if text.startswith("every="):
        every = int(text[len("every="):])
        if every < 1:
            raise ValueError(f"every= must be >= 1 in {text!r}")
        return _Rule(pattern, "every", every=every)
    if text.startswith("p="):
        prob = float(text[len("p="):])
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"p= must be in [0, 1] in {text!r}")
        return _Rule(pattern, "prob", prob=prob)
    hits = [int(part) for part in text.split(",")]
    if any(h < 1 for h in hits):
        raise ValueError(f"hit indices are 1-based, got {text!r}")
    return _Rule(pattern, "hits", hits=hits)


class FaultPlan:
    """A deterministic schedule of fault triggers, keyed by site name.

    Mutable only in its per-site hit counters; the trigger decision for
    hit *n* of a site depends on nothing else, so two plans parsed from
    the same spec fire identically over identical site sequences.
    """

    def __init__(self, rules: List[_Rule], seed: int = 0, spec: str = ""):
        self.rules = rules
        self.seed = seed
        self.spec = spec
        self._hits: Dict[str, int] = {}
        self._match_cache: Dict[str, Optional[_Rule]] = {}

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        rules: List[_Rule] = []
        seed = 0
        for raw in spec.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                seed = int(clause[len("seed="):])
                continue
            if ":" not in clause:
                raise ValueError(
                    f"bad fault clause {clause!r} (expected site:trigger)"
                )
            pattern, trigger = clause.split(":", 1)
            pattern = pattern.strip()
            if not pattern:
                raise ValueError(f"empty site name in clause {clause!r}")
            rules.append(_parse_trigger(pattern, trigger))
        if not rules:
            raise ValueError(f"fault spec {spec!r} arms no sites")
        return cls(rules, seed=seed, spec=spec)

    def _match(self, site: str) -> Optional[_Rule]:
        try:
            return self._match_cache[site]
        except KeyError:
            pass
        found: Optional[_Rule] = None
        for rule in self.rules:
            if site == rule.pattern or site.startswith(rule.pattern + "."):
                found = rule
                break
        self._match_cache[site] = found
        return found

    def should_fire(self, site: str, *, retry: bool = False) -> bool:
        """Count a hit on ``site``; True when the schedule triggers.

        ``retry=True`` marks the probe as a re-attempt of work that
        already absorbed a fault (e.g. a requeued pool task).  Scheduled
        triggers (hit lists, ``every=``, ``p=``) model *transient*
        faults, so they never fire on a retry — and skip the hit
        counter, leaving the schedule where the fresh-work stream left
        it.  ``*`` models a *hard* fault (a poison task, saturation
        chaos) and fires regardless.  This split is what turns "retries
        absorb the schedule, the report is byte-identical" from a
        probability into a guarantee.
        """
        rule = self._match(site)
        if rule is None:
            return False
        if retry and rule.kind != "always":
            return False
        hit = self._hits[site] = self._hits.get(site, 0) + 1
        if not rule.decide(hit, site, self.seed):
            return False
        counters.inc("faults.fired")
        counters.inc(f"faults.fired.{site}")
        return True

    def hits(self, site: str) -> int:
        """How many times ``site`` has been evaluated under this plan."""
        return self._hits.get(site, 0)

    def describe(self) -> str:
        clauses = [f"{r.pattern}:{r.describe()}" for r in self.rules]
        if self.seed:
            clauses.insert(0, f"seed={self.seed}")
        return ";".join(clauses)


# ----------------------------------------------------------------------
# Process-global arming
# ----------------------------------------------------------------------
#
# The active plan is process-local state, initialised lazily from
# REPRO_FAULTS so spawned/forked pool workers arm themselves without
# any explicit hand-off.  ``install``/``injected`` override it (and
# restore on exit), which is what the always-on ``faults`` differential
# check relies on to run its own local schedules even when an ambient
# chaos plan is armed via the environment.

_PLAN: Optional[FaultPlan] = None
_INITIALIZED = False


def _ensure() -> Optional[FaultPlan]:
    global _PLAN, _INITIALIZED
    if not _INITIALIZED:
        spec = os.environ.get(ENV_VAR, "").strip()
        _PLAN = FaultPlan.parse(spec) if spec else None
        _INITIALIZED = True
    return _PLAN


def active() -> Optional[FaultPlan]:
    """The armed plan, if any (lazily read from ``REPRO_FAULTS``)."""
    return _PLAN if _INITIALIZED else _ensure()


def armed() -> bool:
    """True when a fault plan is armed in this process."""
    return active() is not None


def install(plan: Union[FaultPlan, str, None]) -> Optional[FaultPlan]:
    """Arm ``plan`` (a :class:`FaultPlan`, a spec string, or None to
    disarm) in this process; returns the installed plan."""
    global _PLAN, _INITIALIZED
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    _PLAN = plan
    _INITIALIZED = True
    return plan


def should_fire(site: str, *, retry: bool = False) -> bool:
    """The injection probe: True when an armed plan triggers ``site``.

    The disarmed path is a global load and an ``is None`` test — cheap
    enough for per-frame and per-kernel-call sites.  ``retry=True``
    marks a re-attempt: scheduled triggers stay quiet, only ``*`` fires
    (see :meth:`FaultPlan.should_fire`).
    """
    plan = _PLAN if _INITIALIZED else _ensure()
    if plan is None:
        return False
    return plan.should_fire(site, retry=retry)


def fire(site: str, *, retry: bool = False) -> None:
    """Raise :class:`InjectedFault` when ``site`` triggers."""
    if should_fire(site, retry=retry):
        raise InjectedFault(site)


@contextmanager
def injected(
    spec: Union[FaultPlan, str, None], *, env: bool = False
) -> Iterator[Optional[FaultPlan]]:
    """Arm a plan for the dynamic extent of the block, then restore.

    With ``env=True`` the spec is also exported as ``REPRO_FAULTS`` so
    worker processes spawned inside the block arm themselves; the
    previous value is restored on exit.
    """
    global _PLAN, _INITIALIZED
    prev_plan, prev_init = _PLAN, _INITIALIZED
    plan = install(spec)
    prev_env: Tuple[bool, Optional[str]] = (False, None)
    if env:
        prev_env = (True, os.environ.get(ENV_VAR))
        os.environ[ENV_VAR] = plan.describe() if plan else ""
    try:
        yield plan
    finally:
        _PLAN, _INITIALIZED = prev_plan, prev_init
        if prev_env[0]:
            if prev_env[1] is None:
                os.environ.pop(ENV_VAR, None)
            else:
                os.environ[ENV_VAR] = prev_env[1]


def hang_seconds() -> float:
    """Sleep length for hang-style sites (test-shrinkable via env)."""
    try:
        return float(os.environ.get(HANG_ENV, HANG_SECONDS))
    except ValueError:
        return HANG_SECONDS
