"""The differential oracle harness over generated instances.

For every generated instance the harness cross-checks independent
implementations of the same mathematical object against each other — no
hand-written expected outputs, only internal consistency:

``solvers``
    :class:`TwoPhaseSolver` and :class:`OnTheFlySolver` must return the
    same verdict; the on-the-fly winning federations (an intentional
    under-approximation when it stops early) must be included in the
    exhaustive two-phase ones per discrete state, with exact equality
    required on lost games (both converge to the full fixpoint); and the
    two-phase winning sets must be a genuine fixpoint of the documented
    update equation.

``semantics``
    Random concrete (`Fraction`-exact) runs are replayed against the
    symbolic zone semantics step by step: every delayed state must stay
    inside the delay-closed zone, every fired transition must land inside
    the symbolic ``post``, and a refused concrete transition must also be
    refused symbolically.

``conformance``
    A plant must conform to itself: a :class:`SimulatedImplementation`
    interpreting the plant (under eager / lazy / random output policies)
    is monitored by a :class:`TiocoMonitor` of the same plant and a
    :class:`RelativizedMonitor` of the plant composed with the permissive
    environment.  The paper's relativization collapses to plain tioco
    under a universal environment, so *any* reported violation by either
    monitor is a real disagreement between the interpreter and a monitor.
    Multi-automaton plants run through the *partial* semantics: the
    interpreter fires internalised syncs as hidden moves at policy-chosen
    times, and the monitors track the resulting state *set* symbolically
    — every generated family exercises the oracle, none is skipped.

``composition``
    Partial composition against an in-model environment must agree
    move-for-move with the flat closed product when the declared boundary
    is empty: over the reachable closed state graph, the two enumeration
    modes must produce the same synchronizations (identical participating
    edges and labels), with internalised syncs relabelled ``internal``
    and made uncontrollable.

``estimate``
    :class:`StateEstimate` on the compiled kernels must agree with
    itself on the numpy reference kernels observation by observation:
    one seeded monitor session drives both side by side and compares the
    quiescence bound, the enabled input/output labels, every
    delay/action verdict — including rational delays that force integer
    rescaling — and the member lists, in order, down to the zone bytes.

Failing instances are shrunk greedily at the spec level (drop edges,
clear guards/invariants/assignments) while re-running only the failing
check, and reported with the reproducing seed.

Campaigns shard across CPU cores (``run_campaign(jobs=N)``, CLI
``--jobs N|auto``) through :mod:`repro.par`: instances are independent
and seed-derived, workers return reports in instance order, failure
seeds funnel back to the parent for *serial* shrinking, and per-worker
op counters merge into the parent — so the campaign report is
byte-identical for every ``jobs`` value given the same seed and count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import faults
from ..dbm import DBM, INF, LE_ZERO, Federation, bound, negate
from ..dbm import backends as dbm_backends
from ..dbm.backends.base import CHANGED, ExpansionTable, MovePlan
from ..dbm.backends.numpy_backend import NumpyBackend
from ..game.solver import GameResult, OnTheFlySolver, TwoPhaseSolver
from ..graph.explorer import ExplorationLimit, SimulationGraph
from ..par import steal_map
from ..semantics.compose import EstimateLimit, StateEstimate
from ..semantics.system import PARTIAL, DelayInterval, Move, System
from ..tctl.query import parse_query
from ..testing import (
    EagerPolicy,
    LazyPolicy,
    Quiescence,
    RandomPolicy,
    RelativizedMonitor,
    SimulatedImplementation,
    SpecNondeterminism,
    TiocoMonitor,
)
from ..util import counters
from .networks import (
    DEFAULT_FAMILIES,
    GenConfig,
    GeneratedInstance,
    NetSpec,
    generate_instance,
    mutate_instance,
)
from .zones import check_zone_algebra, random_constraints, random_plan, random_zone

OK, SKIP, FAIL = "ok", "skip", "fail"


@dataclass(frozen=True)
class DiffConfig:
    """Effort knobs of the differential checks."""

    max_nodes: int = 4000
    time_limit: Optional[float] = None
    sim_runs: int = 2
    sim_steps: int = 30
    conf_steps: int = 25
    check_fixpoint: bool = True
    #: Exploration budget of the closed-product walk in the composition
    #: check (compared state-by-state against partial enumeration).
    composition_nodes: int = 2000
    #: Symbolic state-set budget of the monitors and estimates
    #: (:class:`SpecMonitorBase` / :class:`StateEstimate` ``max_states``).
    #: Deep-fuzz raises it (CLI ``--max-estimate-states``) to turn
    #: budget SKIPs on hidden-move-rich instances into real runs.
    max_estimate_states: int = 256


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # 'ok' | 'skip' | 'fail'
    detail: str = ""


@dataclass
class InstanceReport:
    seed: int
    family: str
    structural_hash: str
    description: str
    results: List[CheckResult] = field(default_factory=list)
    shrunk: Optional[str] = None  # description of the shrunk reproducer
    #: Set when the instance is a corpus-scheduled mutation: the third
    #: integer of the ``mutate_instance(seed, family, mutation_seed)``
    #: reproducer.  ``None`` for plain generated instances.
    mutation_seed: Optional[int] = None
    #: Per-instance op-counter deltas (:func:`repro.util.counters.diff`)
    #: captured around the checks — the corpus coverage signal.  Volatile
    #: (process-global memo caches make deltas scheduling-dependent), so
    #: it never enters the deterministic report payload.
    coverage: Optional[Dict[str, int]] = None

    @property
    def failures(self) -> List[CheckResult]:
        return [r for r in self.results if r.status == FAIL]

    @property
    def ok(self) -> bool:
        return not self.failures

    def reproducer(self) -> str:
        """The one-liner that rebuilds this instance."""
        if self.mutation_seed is None:
            return f"generate_instance({self.seed}, {self.family!r})"
        return (
            f"mutate_instance({self.seed}, {self.family!r},"
            f" {self.mutation_seed})"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (checkpoint journal lines, corpus entries)."""
        return {
            "seed": self.seed,
            "family": self.family,
            "mutation_seed": self.mutation_seed,
            "structural_hash": self.structural_hash,
            "description": self.description,
            "results": [
                {"name": r.name, "status": r.status, "detail": r.detail}
                for r in self.results
            ],
            "shrunk": self.shrunk,
            "coverage": self.coverage,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "InstanceReport":
        return cls(
            seed=payload["seed"],
            family=payload["family"],
            structural_hash=payload["structural_hash"],
            description=payload["description"],
            results=[
                CheckResult(r["name"], r["status"], r.get("detail", ""))
                for r in payload.get("results", ())
            ],
            shrunk=payload.get("shrunk"),
            mutation_seed=payload.get("mutation_seed"),
            coverage=payload.get("coverage"),
        )


# ----------------------------------------------------------------------
# Check: solvers
# ----------------------------------------------------------------------


def _win_by_key(result: GameResult) -> Dict[tuple, Federation]:
    """Per discrete state, the union of node winning federations."""
    out: Dict[tuple, Federation] = {}
    for node in result.graph.nodes:
        win = result.win_of(node)
        if win.is_empty():
            continue
        key = node.sym.key
        out[key] = out[key].union(win) if key in out else win
    return out


def check_solvers(instance: GeneratedInstance, cfg: DiffConfig) -> CheckResult:
    query = parse_query(instance.query)
    system = System(instance.arena)
    try:
        two_solver = TwoPhaseSolver(
            system, query, max_nodes=cfg.max_nodes, time_limit=cfg.time_limit
        )
        two = two_solver.solve()
        otf_solver = OnTheFlySolver(
            system, query, max_nodes=cfg.max_nodes, time_limit=cfg.time_limit
        )
        otf = otf_solver.solve()
    except ExplorationLimit as limit:
        return CheckResult("solvers", SKIP, str(limit))
    if two.winning != otf.winning:
        return CheckResult(
            "solvers",
            FAIL,
            f"verdicts differ: two-phase={two.winning} on-the-fly={otf.winning}",
        )
    two_map = _win_by_key(two)
    otf_map = _win_by_key(otf)
    for key, fed in otf_map.items():
        reference = two_map.get(key)
        if reference is None or not reference.includes(fed):
            return CheckResult(
                "solvers",
                FAIL,
                f"on-the-fly win set at {key} not included in two-phase win",
            )
    # Converged equality: on lost games both solvers already ran the
    # fixpoint to convergence; on won games the on-the-fly solver stopped
    # early, so resume it to convergence first.  Either way the per-state
    # winning sets must then coincide exactly.
    if two.winning:
        try:
            otf_map = _win_by_key(otf_solver.converge())
        except ExplorationLimit as limit:
            return CheckResult("solvers", SKIP, f"convergence resume: {limit}")
    for key, fed in two_map.items():
        reference = otf_map.get(key)
        if reference is None or not reference.includes(fed):
            return CheckResult(
                "solvers",
                FAIL,
                f"two-phase win set at {key} missing from converged"
                f" on-the-fly win",
            )
    for key, fed in otf_map.items():
        reference = two_map.get(key)
        if reference is None or not reference.includes(fed):
            return CheckResult(
                "solvers",
                FAIL,
                f"converged on-the-fly win at {key} exceeds two-phase win",
            )
    if cfg.check_fixpoint:
        for node in two.graph.nodes:
            # recompute_node composes the equation in Python: the
            # reference for _update's fused node_equation call.
            recomputed = two_solver.recompute_node(node)
            current = two_solver.win_fed(node)
            if not current.includes(recomputed):
                return CheckResult(
                    "solvers", FAIL, f"win set of node {node.id} not a fixpoint"
                )
            if not recomputed.includes(current):
                return CheckResult(
                    "solvers", FAIL, f"win set of node {node.id} shrinks on re-update"
                )
    return CheckResult("solvers", OK)


# ----------------------------------------------------------------------
# Check: symbolic vs concrete semantics
# ----------------------------------------------------------------------


def _random_delay(
    rng: random.Random,
    interval: DelayInterval,
    bound: Optional[Fraction],
    bound_strict: bool,
) -> Optional[Fraction]:
    """A random half-integer delay in ``interval`` capped by the invariant.

    Draws uniformly from the admissible points of the grid ``lo + k/2``
    (``hi`` is ``lo + 2`` when unbounded) by index, so the RNG makes one
    ``choice`` over the index range; with no grid point admissible, the
    midpoint if the interval holds it.
    """
    lo, lo_strict = interval.lo, interval.lo_strict
    hi, hi_strict = interval.hi, interval.hi_strict
    if bound is not None and (hi is None or bound < hi):
        hi, hi_strict = bound, bound_strict
    if hi is not None and (lo > hi or (lo == hi and (lo_strict or hi_strict))):
        return None
    if hi is None:
        hi, hi_strict = lo + 2, False
    span = (hi - lo) * 2
    k_hi = int(span)
    if hi_strict and k_hi == span:
        k_hi -= 1
    k_lo = 1 if lo_strict else 0
    if k_lo <= k_hi:
        return lo + Fraction(rng.choice(range(k_lo, k_hi + 1)), 2)
    mid = (lo + hi) / 2
    return mid if interval.contains(mid) else None


def check_semantics(instance: GeneratedInstance, cfg: DiffConfig) -> CheckResult:
    system = System(instance.arena)
    for run in range(cfg.sim_runs):
        rng = random.Random(instance.seed * 1_000_003 + run)
        state = system.initial_concrete()
        sym = system.initial_symbolic()
        if not state.in_zone(sym.zone):
            return CheckResult(
                "semantics", FAIL, "initial concrete state outside initial zone"
            )
        for step in range(cfg.sim_steps):
            bound, bound_strict = system.max_delay(state)
            candidates: List[Tuple] = []
            for move, interval in system.move_options(state):
                delay = _random_delay(rng, interval, bound, bound_strict)
                if delay is not None:
                    candidates.append((move, delay))
            if not candidates:
                break
            move, delay = rng.choice(candidates)
            delayed = state.delayed(delay)
            if not delayed.in_zone(sym.zone):
                return CheckResult(
                    "semantics",
                    FAIL,
                    f"run {run} step {step}: delay {delay} left the"
                    f" delay-closed zone",
                )
            nxt = system.fire(delayed, move)
            spost = system.post(sym, move)
            if nxt is None:
                if spost is not None:
                    image = list(delayed.clocks)
                    for clock, value in system.resets_of(move):
                        image[clock] = Fraction(value)
                    if (
                        system.apply_move_vars(delayed.vars, move) == spost.vars
                        and spost.zone.contains(image)
                    ):
                        return CheckResult(
                            "semantics",
                            FAIL,
                            f"run {run} step {step}: concrete fire of"
                            f" {move.label} refused but symbolic post admits"
                            f" its image",
                        )
                continue
            if spost is None:
                return CheckResult(
                    "semantics",
                    FAIL,
                    f"run {run} step {step}: fired {move.label} concretely but"
                    f" the symbolic post is empty",
                )
            if spost.locs != nxt.locs or spost.vars != nxt.vars:
                return CheckResult(
                    "semantics",
                    FAIL,
                    f"run {run} step {step}: discrete successor mismatch on"
                    f" {move.label}",
                )
            if not nxt.in_zone(spost.zone):
                return CheckResult(
                    "semantics",
                    FAIL,
                    f"run {run} step {step}: concrete successor of"
                    f" {move.label} outside the symbolic post zone",
                )
            sym = system.delay_closure(spost)
            state = nxt
    return CheckResult("semantics", OK)


# ----------------------------------------------------------------------
# Check: tioco / rtioco self-conformance
# ----------------------------------------------------------------------


def _drive_self_conformance(
    plant_sys: System,
    arena_sys: System,
    policy,
    rng: random.Random,
    steps: int,
    max_states: int = 256,
) -> Optional[str]:
    """Run one self-conformance session; returns a failure detail or None.

    Works for single and composed plants alike: the implementation and
    both monitors enumerate the plant's partial semantics (the networks
    declare their interface partition), and the monitors auto-select
    symbolic state-set tracking when hidden syncs make ``After σ`` a set.
    ``max_states`` bounds both trackers (``DiffConfig.max_estimate_states``).
    """
    imp = SimulatedImplementation(plant_sys, policy)
    monitor = TiocoMonitor(plant_sys, max_states=max_states)
    relativized = RelativizedMonitor(arena_sys, max_states=max_states)

    def observe_output(label: str) -> Optional[str]:
        if not monitor.observe(label, "output"):
            return f"tioco self-violation: {monitor.violation}"
        if not relativized.observe_output(label):
            return f"rtioco disagrees with tioco: {relativized.violation}"
        return None

    for _ in range(steps):
        # Drain zero-delay scheduled outputs / internal steps first, so the
        # implementation state is settled like the monitors'.
        for _drain in range(32):
            scheduled = imp.next_output()
            if scheduled is None or scheduled.delay != 0:
                break
            label = imp.advance(Fraction(0))
            if label is not None:
                failure = observe_output(label)
                if failure:
                    return failure
        else:
            return None  # zero-delay livelock (mutant artifact): end run
        inputs = monitor.enabled_labels("input")
        if inputs and rng.random() < 0.5:
            label = rng.choice(inputs)
            if not imp.give_input(label):
                if monitor.estimated:
                    # Set-based tracking: the estimate admits the input in
                    # *some* hidden-move interleaving, but the
                    # implementation's actual (hidden) state refuses it —
                    # possible only for non-input-enabled specs (drop
                    # mutants).  Nothing was observed; try another round.
                    continue
                return (
                    f"implementation refused input {label} that the identical"
                    f" specification accepts"
                )
            if not monitor.observe(label, "input"):
                return f"tioco monitor refused its own input: {monitor.violation}"
            if not relativized.observe_input(label):
                return f"rtioco input disagreement: {relativized.violation}"
            continue
        scheduled = imp.next_output()
        quiescence = monitor.max_quiescence()
        if scheduled is not None:
            delay = scheduled.delay
        elif quiescence.bound is None:
            delay = Fraction(rng.randint(1, 3))
        elif quiescence.bound > 0:
            delay = quiescence.bound
            if quiescence.strict:
                delay = quiescence.bound / 2
        else:
            if not inputs:
                return None  # genuinely stuck (mutant artifact): end run
            continue
        # Never push the implementation past its *own* invariant bound:
        # with set-tracking monitors the quiescence supremum spans every
        # hidden-move interleaving, which may exceed the bound of the
        # imp's actual reality when a mutant dropped the liveness escape
        # of an invariant location (the imp is then simply timelocked).
        imp_bound, imp_strict = imp.system.max_delay(imp.state)
        if imp_bound is not None and not Quiescence(imp_bound, imp_strict).allows(
            delay
        ):
            delay = imp_bound if not imp_strict else imp_bound / 2
            if delay == 0:
                if not inputs:
                    return None  # imp timelocked (mutant artifact): end run
                continue
        label = imp.advance(delay)
        if not monitor.advance(delay):
            return f"tioco quiescence violation: {monitor.violation}"
        if not relativized.advance(delay):
            return f"rtioco quiescence disagreement: {relativized.violation}"
        if label is not None:
            failure = observe_output(label)
            if failure:
                return failure
    return None


def check_conformance(instance: GeneratedInstance, cfg: DiffConfig) -> CheckResult:
    plant_sys = System(instance.plant)
    arena_sys = System(instance.arena)
    policies = [
        ("eager", EagerPolicy()),
        ("lazy", LazyPolicy()),
        ("random", RandomPolicy(instance.seed & 0xFFFF)),
    ]
    for index, (name, policy) in enumerate(policies):
        rng = random.Random(instance.seed * 7919 + index)
        try:
            failure = _drive_self_conformance(
                plant_sys, arena_sys, policy, rng, cfg.conf_steps,
                max_states=cfg.max_estimate_states,
            )
        except SpecNondeterminism as nondet:
            return CheckResult(
                "conformance", SKIP, f"nondeterministic spec (mutant): {nondet}"
            )
        except EstimateLimit as limit:
            return CheckResult(
                "conformance", SKIP, f"state-estimate budget: {limit}"
            )
        if failure:
            return CheckResult("conformance", FAIL, f"[{name} policy] {failure}")
    return CheckResult("conformance", OK)


# ----------------------------------------------------------------------
# Check: partial composition vs the flat closed product
# ----------------------------------------------------------------------


def check_composition(instance: GeneratedInstance, cfg: DiffConfig) -> CheckResult:
    """Empty-boundary partial composition ≡ the flat closed product.

    Rebuilds the arena (plant + in-model environment) with a declared
    *empty* interface — every pairable channel internalised — and walks
    the closed reachable state graph comparing move enumeration in both
    modes at every node: the same synchronizations (identical
    participating edges and labels) must appear, with every internalised
    sync relabelled ``internal`` and made uncontrollable.
    """
    network = instance.spec.build_arena(interface=())
    system = System(network)
    graph = SimulationGraph(system, max_nodes=cfg.composition_nodes)
    try:
        graph.explore_all()
    except ExplorationLimit:
        pass  # compare over the explored prefix
    for node in graph.nodes:
        locs, vars = node.sym.locs, node.sym.vars
        closed = system.moves_from(locs, vars)
        partial = system.moves_from(locs, vars, PARTIAL)

        def move_key(move):
            return (move.label, tuple((i, e.index) for i, e in move.edges))

        closed_keys = sorted(map(move_key, closed))
        partial_keys = sorted(map(move_key, partial))
        if closed_keys != partial_keys:
            diff = sorted(set(closed_keys) ^ set(partial_keys))
            return CheckResult(
                "composition",
                FAIL,
                f"move sets differ at {locs}: {diff[:3]}"
                f" (closed {len(closed)} vs partial {len(partial)})",
            )
        partial_by = {move_key(move): move for move in partial}
        for move in closed:
            twin = partial_by[move_key(move)]
            has_sync = any(edge.sync is not None for _, edge in move.edges)
            # Hidden (internalised) syncs are relabelled internal and —
            # per the TIOGA convention — uncontrollable; tau edges keep
            # their own direction and controllability.
            expected_dir = "internal" if has_sync else move.direction
            expected_ctl = False if has_sync else move.controllable
            if twin.controllable != expected_ctl:
                return CheckResult(
                    "composition",
                    FAIL,
                    f"controllability of {move.label} at {locs}:"
                    f" partial={twin.controllable} expected={expected_ctl}",
                )
            if twin.direction != expected_dir:
                return CheckResult(
                    "composition",
                    FAIL,
                    f"direction of {move.label} at {locs}:"
                    f" partial={twin.direction} expected={expected_dir}",
                )
    return CheckResult("composition", OK, f"{graph.node_count} states compared")


# ----------------------------------------------------------------------
# Check: state estimation on the compiled vs the reference kernels
# ----------------------------------------------------------------------


class _EstimateMismatch(Exception):
    """The two runs of an estimate session disagree (the detail)."""


def _members_difference(got: list, ref: list) -> str:
    """Where two member lists first differ, without the zone bytes."""
    at = next(
        (x for x, (a, b) in enumerate(zip(got, ref)) if a != b),
        min(len(got), len(ref)),
    )
    first = [
        members[at][:2] if at < len(members) else None for members in (got, ref)
    ]
    return (
        f"{len(got)} compiled vs {len(ref)} reference members, first"
        f" difference at {at}: compiled (locs, vars)={first[0]!r}"
        f" reference={first[1]!r}"
    )


def _drive_estimate_pair(
    plant_sys: System, seed: int, steps: int, backend, max_states: int = 256
) -> Optional[str]:
    """One seeded session on ``backend`` and on the numpy reference.

    Two :class:`StateEstimate` objects take the same observation
    sequence — inputs, outputs, and rational delays chosen from the
    spec's own answers — one with ``backend`` active, one with the
    reference kernels, and every monitor-facing answer and the member
    lists are compared after each call.  Denominators 2, 3, and 7 force
    rescaling.  Both runs execute the same algorithm, so a budget
    overflow must hit both at the same call: it is re-raised (a
    SKIP-worthy resource limit for the caller), and an overflow on one
    side only is a disagreement.  Returns the first disagreement, or
    None.
    """
    kernels = (backend, _REFERENCE)
    estimates: List[Optional[StateEstimate]] = [None, None]

    def agree(step: int, what: str, call):
        answers = []
        for index, active in enumerate(kernels):
            with dbm_backends.use_backend(active):
                try:
                    answers.append(call(index))
                except EstimateLimit as limit:
                    answers.append(limit)
        got, ref = answers
        got_limit = isinstance(got, EstimateLimit)
        ref_limit = isinstance(ref, EstimateLimit)
        if got_limit and ref_limit:
            raise got
        if got_limit or ref_limit or got != ref:
            if call in (start, members) and not (got_limit or ref_limit):
                detail = _members_difference(got, ref)
            else:
                detail = f"compiled={got!r} reference={ref!r}"
            raise _EstimateMismatch(
                f"step {step}: compiled/reference estimates disagree on"
                f" {what}: {detail}"
            )
        return got

    def start(index: int) -> list:
        estimates[index] = StateEstimate(plant_sys, max_states=max_states)
        return members(index)

    def members(index: int) -> list:
        return [
            (m.locs, m.vars, m.zone.hash_key())
            for m in estimates[index].states
        ]

    rng = random.Random(seed * 48611 + 17)
    try:
        agree(0, "the initial members", start)
        for step in range(steps):
            quiet = agree(
                step, "max_quiescence", lambda i: estimates[i].max_quiescence()
            )
            labels = {
                direction: agree(
                    step,
                    f"enabled {direction} labels",
                    lambda i: estimates[i].enabled_labels(direction),
                )
                for direction in ("input", "output")
            }
            outputs, inputs = labels["output"], labels["input"]
            roll = rng.random()
            if outputs and roll < 0.35:
                label = rng.choice(outputs)
                what = f"observe {label}!"
                ok = agree(
                    step, what, lambda i: estimates[i].observe(label, "output")
                )
            elif inputs and roll < 0.6:
                label = rng.choice(inputs)
                what = f"observe {label}?"
                ok = agree(
                    step, what, lambda i: estimates[i].observe(label, "input")
                )
            else:
                bound, strict = quiet
                delay = Fraction(rng.randint(1, 6), rng.choice((1, 2, 3, 7)))
                if bound is not None and (
                    delay > bound or (delay == bound and strict)
                ):
                    delay = bound / 2 if strict or bound > 0 else Fraction(0)
                what = f"advance {delay}"
                ok = agree(step, what, lambda i: estimates[i].advance(delay))
            agree(step, f"the members after {what}", members)
            if not ok:
                return None  # both refused their own answer: done
    except _EstimateMismatch as mismatch:
        return str(mismatch)
    return None


def check_estimate(instance: GeneratedInstance, cfg: DiffConfig) -> CheckResult:
    """Differential: ``StateEstimate`` on every loadable compiled kernel
    backend vs on the numpy reference kernels.

    Runs on every family — single-automaton plants exercise the padded
    single-state paths, composed plants the hidden-move closure proper.
    SKIP where no compiled backend loads, like ``kernel``.
    """
    backends_under_test = dbm_backends.compiled_backends()
    if not backends_under_test:
        return CheckResult("estimate", SKIP, "no compiled backend loads")
    plant_sys = System(instance.plant)
    for backend in backends_under_test:
        try:
            failure = _drive_estimate_pair(
                plant_sys, instance.seed, cfg.conf_steps, backend,
                max_states=cfg.max_estimate_states,
            )
        except EstimateLimit as limit:
            return CheckResult(
                "estimate", SKIP, f"state-estimate budget: {limit}"
            )
        if failure:
            return CheckResult(
                "estimate", FAIL, f"backend {backend.name!r}: {failure}"
            )
    return CheckResult("estimate", OK)


# ----------------------------------------------------------------------
# Check: warm-start solving vs cold solving
# ----------------------------------------------------------------------


def _node_win_map(result: GameResult) -> Dict[tuple, Federation]:
    """Per *node* (discrete state + zone), the nonempty winning sets.

    Stricter than :func:`_win_by_key`: the ``warmstart`` check compares
    node for node, so a per-node discrepancy cannot hide inside a
    per-discrete-state union.
    """
    out: Dict[tuple, Federation] = {}
    for node in result.graph.nodes:
        entry = result.wins.get(node.id)
        if entry is None or entry.win.is_empty():
            continue
        out[(node.sym.locs, node.sym.vars, node.sym.zone.hash_key())] = entry.win
    return out


def _win_maps_equal(a: Dict[tuple, Federation], b: Dict[tuple, Federation]):
    """The first differing key (as a printable detail), or None."""
    for key in sorted(a.keys() | b.keys()):
        left, right = a.get(key), b.get(key)
        if left is None or right is None or not left.equals(right):
            return f"locs={key[0]} vars={key[1]}"
    return None


def check_warmstart(instance: GeneratedInstance, cfg: DiffConfig) -> CheckResult:
    """Differential: warm-start solving ≡ cold solving.

    The restore path of :mod:`repro.game.warm` is pinned against the
    cold two-phase fixpoint with exact per-node win-set equality: solve,
    serialize to minimal-constraint form, then force the deserialize →
    explore → install path and compare.
    """
    from ..game.warm import WinSetCache, warm_solve

    query = parse_query(instance.query)
    system = System(instance.arena)
    # A private in-memory cache, so the first solve is a genuine miss and
    # the second a genuine install.
    private = WinSetCache()
    try:
        stored = warm_solve(
            system, query, cache=private,
            max_nodes=cfg.max_nodes, time_limit=cfg.time_limit,
        )
        private.forget_results()
        restored = warm_solve(
            system, query, cache=private,
            max_nodes=cfg.max_nodes, time_limit=cfg.time_limit,
        )
    except ExplorationLimit as limit:
        return CheckResult("warmstart", SKIP, str(limit))
    if stored.winning != restored.winning:
        return CheckResult(
            "warmstart",
            FAIL,
            f"restored verdict differs: stored={stored.winning}"
            f" restored={restored.winning}",
        )
    mismatch = _win_maps_equal(_node_win_map(stored), _node_win_map(restored))
    if mismatch:
        return CheckResult(
            "warmstart", FAIL, f"restored win set differs at {mismatch}"
        )
    return CheckResult("warmstart", OK)


# ----------------------------------------------------------------------
# Kernel backend differential
# ----------------------------------------------------------------------


_REFERENCE = NumpyBackend()


def _kernel_stack(rng: random.Random, dim: int, k: int) -> np.ndarray:
    """A ``(k, dim, dim)`` stack of random *canonical nonempty* zones,
    built on the reference kernels so a backend under test cannot skew
    its own inputs."""
    zones = []
    with dbm_backends.use_backend(_REFERENCE):
        while len(zones) < k:
            zone = random_zone(rng, dim=dim, max_constraints=5)
            if not zone.is_empty():
                zones.append(zone)
    return np.stack([z.m for z in zones])


def _zone_kernel_mismatch(rng: random.Random, backend) -> Optional[str]:
    """One ``kernel`` trial: the per-zone kernels once on a random
    canonical zone, then the fused step chain
    (:func:`_fused_kernel_mismatch`).

    Verdicts must equal the numpy reference's, :data:`CHANGED` matrices
    and closed matrices must be byte-identical, and the input zone must
    come back unwritten.  Returns the first mismatch, or None.
    """
    dim = rng.randint(2, 6)
    zone = _kernel_stack(rng, dim, 1)[0]
    pristine = zone.copy()
    roll = rng.random()
    if roll < 0.2:
        # Only bounds the zone already implies: the verdict is UNCHANGED.
        cons = [
            (i, j, min(int(zone[i, j]) + rng.randint(0, 2), INF))
            for i, j in (rng.sample(range(dim), 2) for _ in range(3))
        ]
    else:
        cons = random_constraints(rng, dim, 4)
        i, j = rng.sample(range(dim), 2)
        back = int(zone[j, i])
        if back < INF and roll < 0.5:
            # (-b, <) against x_j - x_i <= b closes a negative cycle, and
            # tightenings before it only shrink m[j, i]: the list empties.
            cons.insert(
                rng.randint(0, len(cons)), (i, j, bound(-(back >> 1), True))
            )
    caps = [rng.randint(0, 8) for _ in range(dim)]
    for name, call, detail in (
        ("zone_constrain", lambda b: b.zone_constrain(zone, cons), cons),
        ("zone_extrapolate", lambda b: b.zone_extrapolate(zone, caps), caps),
    ):
        ref_status, ref_m = call(_REFERENCE)
        got_status, got_m = call(backend)
        if ref_status != got_status:
            return (
                f"{name} verdict: ref={ref_status} got={got_status} ({detail})"
            )
        if ref_status == CHANGED and not np.array_equal(ref_m, got_m):
            return f"{name} matrix differs ({detail})"
    if not np.array_equal(zone, pristine):
        return "per-zone kernel wrote its input zone"
    raw = zone.copy()
    for _ in range(rng.randint(0, 3)):
        a, b = rng.randrange(dim), rng.randrange(dim)
        if a != b:
            raw[a, b] = bound(rng.randint(-6, 10), rng.random() < 0.5)
    ref_m, got_m = raw.copy(), raw.copy()
    ref_ok = _REFERENCE.zone_close(ref_m)
    got_ok = backend.zone_close(got_m)
    if ref_ok != got_ok or (ref_ok and not np.array_equal(ref_m, got_m)):
        return f"zone_close: ref={ref_ok} got={got_ok}"
    return _fused_kernel_mismatch(rng, backend)


#: The fused-step shapes :func:`_fused_kernel_mismatch` draws from.
SUCCESSOR_CASES = (
    "guard_empties", "invariant_empties_after_reset", "assignments",
    "noop_extrapolation", "random",
)
PRED_CASES = ("disjoint_source", "random")


def _complement_of_some_bound(
    rng: random.Random, zone: np.ndarray
) -> Optional[np.ndarray]:
    """A zone disjoint from ``zone``: the complement of one of its finite
    bounds, the ``x >= 0`` ones aside (None when it has none)."""
    dim = zone.shape[0]
    bounds = [
        (i, j, int(zone[i, j]))
        for i in range(dim)
        for j in range(dim)
        if i != j and zone[i, j] < INF and not (i == 0 and zone[i, j] == LE_ZERO)
    ]
    if not bounds:
        return None
    i, j, enc = rng.choice(bounds)
    with dbm_backends.use_backend(_REFERENCE):
        return DBM.universal(dim).tighten(j, i, negate(enc)).m


def _fused_kernel_mismatch(
    rng: random.Random,
    backend,
    successor_case: Optional[str] = None,
    pred_case: Optional[str] = None,
) -> Optional[str]:
    """Run ``zone_successor`` and ``zone_pred`` once each against the
    numpy reference; the first mismatch, or None.

    Verdicts (empty or not) must agree and nonempty results must be
    byte-identical; no input matrix may be written.  Each call draws one
    case of :data:`SUCCESSOR_CASES` and one of :data:`PRED_CASES` unless
    given, with delay on or off at random; then, in half the calls, the
    federation kernels (:func:`_federation_kernel_mismatch`), and in the
    other half the expansion kernels (:func:`_expand_kernel_mismatch`).
    """
    dim = rng.randint(2, 6)
    zone = _kernel_stack(rng, dim, 1)[0]
    pristine = zone.copy()
    case = successor_case or rng.choice(SUCCESSOR_CASES)
    base = random_plan(rng, dim)
    guard, assigns, invariant = base.guard, base.assigns, base.invariant
    caps = None
    if rng.random() < 0.5:
        caps = tuple(rng.randint(0, 8) for _ in range(dim))
    if case == "guard_empties":
        i, j = rng.sample(range(dim), 2)
        back = int(zone[j, i])
        if back >= INF:
            # Nothing bounds x_j - x_i: bound it, then contradict it.
            guard += ((j, i, bound(rng.randint(0, 4), False)),)
            back = guard[-1][2]
        guard += ((i, j, bound(-(back >> 1), True)),)
    elif case == "invariant_empties_after_reset":
        # x := c, then an invariant x >= c + 1: empty only because of
        # the assignment, never because of the guard.
        x = rng.randrange(1, dim)
        c = rng.choice((0, 2))
        guard = ()
        assigns = tuple(sorted({**dict(assigns), x: c}.items()))
        invariant += ((0, x, bound(-(c + 1), False)),)
    elif case == "assignments":
        clocks = rng.sample(range(1, dim), rng.randint(1, dim - 1))
        assigns = tuple(sorted((x, rng.randint(1, 6)) for x in clocks))
    elif case == "noop_extrapolation":
        # Caps above every constant in play: ExtraM must change nothing.
        caps = (64,) * dim
    plan = MovePlan(guard, assigns, invariant, base.delay, caps)
    ref_m = _REFERENCE.zone_successor(zone, plan)
    got_m = backend.zone_successor(zone, plan)
    if (ref_m is None) != (got_m is None) or (
        ref_m is not None and not np.array_equal(ref_m, got_m)
    ):
        return (
            f"zone_successor ({case}): ref={'empty' if ref_m is None else 'zone'}"
            f" got={'empty' if got_m is None else 'zone'} {plan!r}"
        )
    if not np.array_equal(zone, pristine):
        return f"zone_successor wrote its input zone ({case})"

    case = pred_case or rng.choice(PRED_CASES)
    plan = random_plan(rng, dim)
    source = _kernel_stack(rng, dim, 1)[0]
    if case == "disjoint_source":
        # A source zone disjoint from the whole pre-image, so the answer
        # is empty whatever the source zone's own shape.
        image = _REFERENCE.zone_pred(zone, plan, DBM.universal(dim).m)
        if image is not None:
            outside = _complement_of_some_bound(rng, image)
            if outside is not None:
                source = outside
    source_pristine = source.copy()
    ref_m = _REFERENCE.zone_pred(zone, plan, source)
    got_m = backend.zone_pred(zone, plan, source)
    if (
        (ref_m is None) != (got_m is None)
        or (ref_m is source) != (got_m is source)
        or (ref_m is not None and not np.array_equal(ref_m, got_m))
    ):
        return (
            f"zone_pred ({case}): ref={'empty' if ref_m is None else 'zone'}"
            f" got={'empty' if got_m is None else 'zone'} {plan!r}"
        )
    if not (
        np.array_equal(zone, pristine)
        and np.array_equal(source, source_pristine)
    ):
        return f"zone_pred wrote an input zone ({case})"
    if rng.random() < 0.5:
        # Every other trial on average: the federation kernels' numpy
        # reference is the slowest code this check runs.
        return _federation_kernel_mismatch(rng, backend)
    return _expand_kernel_mismatch(rng, backend, zone=zone)


#: The expansion shapes :func:`_expand_kernel_mismatch` draws from: a
#: plan that empties the zone among others, every plan extrapolating or
#: none, and a table with no moves.
EXPAND_CASES = ("plan_empties", "extrapolation", "no_extrapolation", "zero_moves")


def _kernel_table(
    rng: random.Random, plans: Sequence[MovePlan], controllable=None
) -> ExpansionTable:
    """An expansion table over ``plans``, each move controllable or not
    at random unless ``controllable`` says which."""
    moves = []
    for x in range(len(plans)):
        ctrl = rng.random() < 0.5 if controllable is None else controllable
        moves.append(Move(f"m{x}", "input" if ctrl else "output", ctrl, ()))
    return ExpansionTable(moves, [((x,), ()) for x in range(len(plans))], plans)


def _expand_kernel_mismatch(
    rng: random.Random,
    backend,
    case: Optional[str] = None,
    zone: Optional[np.ndarray] = None,
) -> Optional[str]:
    """Run ``zone_expand`` and ``first_superset`` once each against the
    numpy reference; the first mismatch, or None.

    The masks must agree and kept rows be byte-identical, the probe must
    return the same index, and no input may be written.  Draws one case
    of :data:`EXPAND_CASES` unless given, and a zone of dim 2 or more
    unless given.
    """
    if zone is None:
        zone = _kernel_stack(rng, rng.randint(2, 6), 1)[0]
    dim = zone.shape[0]
    pristine = zone.copy()
    case = case or rng.choice(EXPAND_CASES)
    caps = tuple(rng.randint(0, 8) for _ in range(dim))
    plans = []
    for _ in range(0 if case == "zero_moves" else rng.randint(1, 4)):
        base = random_plan(rng, dim)
        extrapolate = {"extrapolation": True, "no_extrapolation": False}.get(
            case, rng.random() < 0.5
        )
        plans.append(base.extrapolating(caps if extrapolate else None))
    if case == "plan_empties":
        i, j = rng.sample(range(dim), 2)
        back = int(zone[j, i])
        guard = ((j, i, bound(rng.randint(0, 4), False)),) if back >= INF else ()
        back = guard[0][2] if guard else back
        guard += ((i, j, bound(-(back >> 1), True)),)
        base = random_plan(rng, dim)
        plans.insert(
            rng.randint(0, len(plans)),
            MovePlan(guard, base.assigns, base.invariant, base.delay),
        )
    table = _kernel_table(rng, plans)
    ref_rows, ref_ok = _REFERENCE.zone_expand(zone, table)
    got_rows, got_ok = backend.zone_expand(zone, table)
    if not (
        np.array_equal(ref_ok, got_ok)
        and np.array_equal(ref_rows[ref_ok], got_rows[ref_ok])
    ):
        return (
            f"zone_expand ({case}): ref={ref_ok.tolist()}"
            f" got={got_ok.tolist()} {plans!r}"
        )
    if not np.array_equal(zone, pristine):
        return f"zone_expand wrote its input zone ({case})"
    # Probe one of the zones in play against the others: a hit or a miss.
    candidates = [zone, *ref_rows[ref_ok]]
    probe = candidates.pop(rng.randrange(len(candidates)))
    stack = np.array(candidates, dtype=np.int64).reshape(-1, dim, dim)
    stack_pristine = stack.copy()
    ref_hit = _REFERENCE.first_superset(stack, probe)
    got_hit = backend.first_superset(stack, probe)
    if ref_hit != got_hit:
        return f"first_superset ({case}): ref={ref_hit} got={got_hit}"
    if not np.array_equal(stack, stack_pristine):
        return "first_superset wrote its input stack"
    return None


#: The federation-kernel shapes :func:`_federation_kernel_mismatch`
#: draws from: subtrahends disjoint from, including, or partly
#: overlapping the minuend, or an empty operand; strict or lenient
#: ``Predt`` where the two differ (a goal arrival on the instant the bad
#: set starts), a bad set covering the goal, an empty operand, or random
#: operands.
SUBTRACT_CASES = ("disjoint", "included", "partial_overlap", "empty")
PREDT_CASES = ("strict", "lenient", "bad_covers_goal", "empty", "random")


def _kernel_pool(rng: random.Random, dim: int) -> List[DBM]:
    """Random canonical zones to draw a trial's federations from (the one
    zone of dim 1, the reference clock alone, when ``dim`` is 1)."""
    if dim == 1:
        return [DBM.universal(1)]
    return [DBM(m) for m in _kernel_stack(rng, dim, 5)]


def _kernel_fed(rng: random.Random, pool: List[DBM], k: int) -> np.ndarray:
    """A reduced federation of up to ``k`` zones of ``pool``, as a stack."""
    chosen = rng.sample(pool, min(k, len(pool)))
    with dbm_backends.use_backend(_REFERENCE):
        return np.array(Federation(pool[0].dim, chosen)._rows())


def _kernel_invariant(rng: random.Random, zone: np.ndarray) -> np.ndarray:
    """A clock invariant of upper bounds, strict or not, some of them at
    the zone's own upper bound so that its boundary faces are nonempty."""
    dim = zone.shape[0]
    bounds = []
    for x in range(1, dim):
        if rng.random() < 0.3:
            continue
        c = rng.randint(0, 8)
        if zone[x, 0] < INF and rng.random() < 0.5:
            c = max(0, int(zone[x, 0]) >> 1)
        bounds.append((x, 0, bound(c, rng.random() < 0.25)))
    with dbm_backends.use_backend(_REFERENCE):
        return DBM.from_constraints(dim, bounds).m.copy()


def _federation_kernel_mismatch(
    rng: random.Random,
    backend,
    subtract_case: Optional[str] = None,
    predt_case: Optional[str] = None,
) -> Optional[str]:
    """Run ``fed_subtract``, ``fed_predt`` and ``fixpoint_body`` once
    each against the numpy reference; the first mismatch, or None.

    Results must be byte-identical, zone order included; ``fed_subtract``
    must return its first operand itself exactly when the reference does;
    no input may be written.  Draws one case of :data:`SUBTRACT_CASES`
    and one of :data:`PREDT_CASES` unless given; then, in half the calls,
    runs ``node_equation`` on the same zone pool
    (:func:`_equation_kernel_mismatch`).
    """
    dim = rng.randint(1, 5)
    pool = _kernel_pool(rng, dim)
    case = subtract_case or rng.choice(SUBTRACT_CASES)
    a = _kernel_fed(rng, pool, rng.randint(1, 3))
    if case == "disjoint":
        a = a[:1]
        outside = [
            _complement_of_some_bound(rng, a[0]) for _ in range(rng.randint(1, 2))
        ]
        universal = DBM.universal(dim).m  # no bound, nothing disjoint
        b = np.stack([universal if m is None else m for m in outside])
    elif case == "included":
        b = np.concatenate((_kernel_fed(rng, pool, rng.randint(0, 2)), a))
    elif case == "partial_overlap":
        overlapping = [
            z.m
            for z in pool
            if not (
                (z.m >= a).all(axis=(1, 2)).any()
                or all(DBM(m).disjoint_from(z) for m in a)
            )
        ]
        b = _kernel_fed(rng, pool, 1)
        if overlapping:
            b = rng.choice(overlapping)[None].copy()
    else:
        b = _kernel_fed(rng, pool, rng.randint(0, 3))
        if case == "empty":
            if rng.random() < 0.5:
                a = a[:0]
            else:
                b = b[:0]
    inputs = [a, b]
    pristine = [x.copy() for x in inputs]
    ref = _REFERENCE.fed_subtract(a, b)
    got = backend.fed_subtract(a, b)
    if (ref is a) != (got is a) or not np.array_equal(ref, got):
        return (
            f"fed_subtract ({case}): ref={ref.shape[0]} zones"
            f"{' (a)' if ref is a else ''} got={got.shape[0]} zones"
            f"{' (a)' if got is a else ''} dim={dim}"
        )

    case = predt_case or rng.choice(PREDT_CASES)
    goal = _kernel_fed(rng, pool, rng.randint(1, 3))
    bad = _kernel_fed(rng, pool, rng.randint(1, 3))
    lenient = rng.random() < 0.5
    if case in ("strict", "lenient") and dim > 1:
        # Goal zones pinned to x == c and a bad set from x >= c on: the
        # arrival instant touches the bad set, where the conventions part.
        lenient = case == "lenient"
        x, c = rng.randrange(1, dim), rng.randint(0, 6)
        with dbm_backends.use_backend(_REFERENCE):
            pinned = [
                DBM(m).constrained([(x, 0, bound(c, False)), (0, x, bound(-c, False))])
                for m in goal
            ]
            goal = np.array(Federation(dim, pinned)._rows())
            starts = DBM.universal(dim).tighten(0, x, bound(-c, False))
            bad = np.array(Federation(dim, [starts, *map(DBM, bad[:1])])._rows())
    elif case == "bad_covers_goal":
        with dbm_backends.use_backend(_REFERENCE):
            ups = Federation(dim, [DBM(m).up() for m in goal])
        bad = np.concatenate((bad[: rng.randint(0, 1)], ups._rows()))
    elif case == "empty":
        if rng.random() < 0.5:
            goal = goal[:0]
        else:
            bad = bad[:0]
    inputs += [goal, bad]
    pristine += [goal.copy(), bad.copy()]
    ref = _REFERENCE.fed_predt(goal, bad, lenient)
    got = backend.fed_predt(goal, bad, lenient)
    if not np.array_equal(ref, got):
        return (
            f"fed_predt ({case}, lenient={lenient}): ref={ref.shape[0]}"
            f" zones got={got.shape[0]} zones dim={dim}"
        )

    zone = _kernel_fed(rng, pool, 1)[0]
    invariant = _kernel_invariant(rng, zone)
    terms = [_kernel_fed(rng, pool, rng.randint(0, 2)) for _ in range(4)]
    if rng.random() < 0.5:  # the enabled set holds the boundary
        terms[3] = np.concatenate((terms[3], zone[None]))
    can_delay = rng.random() < 0.5
    inputs += [zone, invariant, *terms]
    pristine += [zone.copy(), invariant.copy(), *(t.copy() for t in terms)]
    ref = _REFERENCE.fixpoint_body(zone, invariant, *terms, can_delay)
    got = backend.fixpoint_body(zone, invariant, *terms, can_delay)
    if not np.array_equal(ref, got):
        return (
            f"fixpoint_body (can_delay={can_delay}): ref={ref.shape[0]}"
            f" zones got={got.shape[0]} zones dim={dim}"
        )
    if not all(np.array_equal(x, y) for x, y in zip(inputs, pristine)):
        return "a federation kernel wrote an input"
    if rng.random() < 0.5:
        return _equation_kernel_mismatch(rng, backend, pool=pool)
    return None


#: The node-equation shapes :func:`_equation_kernel_mismatch` draws
#: from: only controllable out-edges, only uncontrollable ones, an
#: uncontrollable edge into a target with no winning state, or a node
#: that cannot delay; otherwise random edges.
EQUATION_CASES = (
    "controllable_only", "uncontrollable_only", "losing_target", "no_delay",
    "random",
)


def _equation_kernel_mismatch(
    rng: random.Random,
    backend,
    case: Optional[str] = None,
    pool: Optional[List[DBM]] = None,
) -> Optional[str]:
    """Run ``node_equation`` once against the numpy reference; the first
    mismatch, or None.

    The result must be byte-identical, zone order included, and no input
    may be written.  Draws one case of :data:`EQUATION_CASES` unless
    given, and the zones from ``pool`` (:func:`_kernel_pool`) unless
    given.
    """
    if pool is None:
        pool = _kernel_pool(rng, rng.randint(1, 5))
    dim = pool[0].dim
    case = case or rng.choice(EQUATION_CASES)
    zone = rng.choice(pool).m
    invariant = _kernel_invariant(rng, zone)
    goal = np.array(
        [rng.choice(pool).m for _ in range(rng.randint(0, 1))], dtype=np.int64
    ).reshape(-1, dim, dim)
    ne = rng.randint(1, 2)
    controllable = {"controllable_only": True, "uncontrollable_only": False}
    table = _kernel_table(
        rng,
        [random_plan(rng, dim) for _ in range(ne + 1)],
        controllable.get(case, False if case == "losing_target" else None),
    )
    slots = [rng.randrange(ne + 1) for _ in range(ne)]
    targets = np.stack([rng.choice(pool).m for _ in range(ne)])
    wins = [_kernel_fed(rng, pool, rng.randint(0, 2)) for _ in range(ne)]
    if case == "losing_target":
        wins[rng.randrange(ne)] = wins[0][:0]
    can_delay = case != "no_delay" and rng.random() < 0.75
    inputs = [zone, invariant, goal, targets, *wins]
    pristine = [x.copy() for x in inputs]
    args = (zone, invariant, goal, can_delay, table, slots, targets, wins)
    ref = _REFERENCE.node_equation(*args)
    got = backend.node_equation(*args)
    if not np.array_equal(ref, got):
        return (
            f"node_equation ({case}, can_delay={can_delay}): ref="
            f"{ref.shape[0]} zones got={got.shape[0]} zones dim={dim}"
        )
    if not all(np.array_equal(x, y) for x, y in zip(inputs, pristine)):
        return f"node_equation wrote an input ({case})"
    return None


def check_kernel(instance: GeneratedInstance, cfg: DiffConfig) -> CheckResult:
    """Backend exactness differential: every loadable compiled kernel
    backend against the numpy reference kernels, on seeded random zones
    and federations (eight trials of :func:`_zone_kernel_mismatch`).

    The kernel-level twin of the ``estimate`` check's session
    differential: always on, so no campaign can silently run on a kernel
    backend that was never cross-checked.  SKIP where no compiled
    backend loads (numpy is the reference itself).

    The trials run with no fault armed, and a compiled call that demotes
    to the reference fails the check: a guarded backend whose kernel
    raises on every call would otherwise compare equal (it *is* the
    reference then) without ever running compiled code.
    """
    backends_under_test = dbm_backends.compiled_backends()
    if not backends_under_test:
        return CheckResult("kernel", SKIP, "no compiled backend loads")
    rng = random.Random(instance.seed ^ 0x6B65726E)  # "kern"
    for trial in range(8):
        trial_seed = rng.randrange(2**63)
        for backend in backends_under_test:
            before = _demotions()
            with faults.injected(None):
                mismatch = _zone_kernel_mismatch(
                    random.Random(trial_seed), backend
                )
            demoted = _demotions() - before
            if demoted and not mismatch:
                mismatch = f"{demoted} compiled call(s) demoted to the reference"
            if mismatch:
                return CheckResult(
                    "kernel",
                    FAIL,
                    f"backend {backend.name!r} trial {trial}: {mismatch}",
                )
    return CheckResult("kernel", OK)


def _demotions() -> int:
    """The process's ``dbm.backend_demotions`` count so far."""
    return counters.export()["counts"].get("dbm.backend_demotions", 0)


# ----------------------------------------------------------------------
# Check: fault-injection degradation
# ----------------------------------------------------------------------


def check_faults(instance: GeneratedInstance, cfg: DiffConfig) -> CheckResult:
    """Degradation differential over :mod:`repro.faults`.

    Always on, like ``kernel``: every campaign proves that graceful
    degradation is *exact*, not just survivable.  Three legs, all
    seeded from the instance and run under local
    :func:`repro.faults.injected` plans (which nest: an ambient chaos
    plan from ``REPRO_FAULTS`` is shelved for the duration, so the
    check's verdict never depends on outside fault schedules):

    1. *plan determinism* — two parses of the same probabilistic spec
       must make identical fire decisions, hit for hit;
    2. *kernel demotion* — every compiled backend, forced to demote on
       every call by an injected ``dbm.<name>.compute`` fault, must
       return byte-identical results to the numpy reference on the
       chain of :func:`_zone_kernel_mismatch` (per-zone and fused step
       kernels, then the expansion kernels or the federation and
       node-equation kernels);
    3. *store degradation* — a corpus write torn by an injected
       ``corpus.store.write`` fault must quarantine on read (no torn
       payload ever served) and ``fsck(repair=True)`` must restore the
       store to clean.
    """
    import tempfile

    from ..corpus.store import Corpus, CorpusEntry

    # Leg 1: deterministic probabilistic plans.
    spec = f"check.faults.site:p=0.5;seed={instance.seed & 0xFFFFFF}"
    first = faults.FaultPlan.parse(spec)
    second = faults.FaultPlan.parse(spec)
    with faults.injected(None):
        seq_a = [first.should_fire("check.faults.site") for _ in range(64)]
        seq_b = [second.should_fire("check.faults.site") for _ in range(64)]
    if seq_a != seq_b:
        return CheckResult(
            "faults", FAIL, f"probabilistic plan not deterministic: {spec!r}"
        )
    if not any(seq_a) or all(seq_a):
        return CheckResult(
            "faults", FAIL, f"p=0.5 plan degenerate over 64 hits: {spec!r}"
        )

    # Leg 2: injected kernel faults demote byte-exactly.
    rng = random.Random(instance.seed ^ 0x66617574)  # "faut"
    for backend in dbm_backends.compiled_backends():
        name = backend.name
        with faults.injected(f"dbm.{name}.compute:*"):
            zone_mismatch = _zone_kernel_mismatch(rng, backend)
        if zone_mismatch:
            return CheckResult(
                "faults",
                FAIL,
                f"backend {name!r} demoted under injection but differs"
                f" from the numpy reference: {zone_mismatch}",
            )

    # Leg 3: torn corpus writes quarantine and repair clean.
    entry = CorpusEntry(
        structural_hash=instance.structural_hash(),
        seed=instance.seed,
        family=instance.family,
        signature="faults-check",
        statuses={"faults": OK},
    )
    with tempfile.TemporaryDirectory(prefix="repro-faults-") as tmp:
        store = Corpus(tmp)
        with faults.injected("corpus.store.write:1"):
            store.add(entry)
        if store.get(entry.structural_hash) is not None:
            return CheckResult(
                "faults", FAIL, "torn corpus entry served instead of"
                " quarantined"
            )
        report = store.fsck(repair=True)
        if report["corrupt"] and store.fsck()["corrupt"]:
            return CheckResult(
                "faults", FAIL, "fsck --repair left corrupt entries behind"
            )
        with faults.injected(None):
            store.add(entry)
        loaded = store.get(entry.structural_hash)
        if loaded is None or loaded.seed != entry.seed:
            return CheckResult(
                "faults", FAIL, "repaired store refused a clean re-add"
            )
    return CheckResult("faults", OK)


# ----------------------------------------------------------------------
# Registry, per-instance runner, shrinking
# ----------------------------------------------------------------------

CHECKS: Dict[str, Callable[[GeneratedInstance, DiffConfig], CheckResult]] = {
    "solvers": check_solvers,
    "semantics": check_semantics,
    "conformance": check_conformance,
    "composition": check_composition,
    "estimate": check_estimate,
    "warmstart": check_warmstart,
    "kernel": check_kernel,
    "faults": check_faults,
}


def run_instance_checks(
    instance: GeneratedInstance,
    cfg: Optional[DiffConfig] = None,
    checks: Optional[Sequence[str]] = None,
) -> InstanceReport:
    cfg = cfg or DiffConfig()
    report = InstanceReport(
        seed=instance.seed,
        family=instance.family,
        structural_hash=instance.structural_hash(),
        description=instance.describe(),
    )
    for name in checks or CHECKS:
        report.results.append(CHECKS[name](instance, cfg))
    return report


def _shrink_candidates(spec: NetSpec) -> Iterator[NetSpec]:
    """Strictly smaller variants of a spec, most aggressive first."""

    def with_automaton(index: int, aut) -> NetSpec:
        automata = list(spec.automata)
        automata[index] = aut
        return replace(spec, automata=tuple(automata))

    for index, aut in enumerate(spec.automata):
        for position in range(len(aut.edges)):
            edges = aut.edges[:position] + aut.edges[position + 1 :]
            yield with_automaton(index, replace(aut, edges=edges))
    for index, aut in enumerate(spec.automata):
        for position, loc in enumerate(aut.locations):
            if loc.invariant is not None:
                locations = list(aut.locations)
                locations[position] = replace(loc, invariant=None)
                yield with_automaton(
                    index, replace(aut, locations=tuple(locations))
                )
            if loc.urgent:
                locations = list(aut.locations)
                locations[position] = replace(loc, urgent=False)
                yield with_automaton(
                    index, replace(aut, locations=tuple(locations))
                )
        for position, edge in enumerate(aut.edges):
            if edge.clock_guard or edge.int_guard:
                edges = list(aut.edges)
                edges[position] = replace(edge, clock_guard=(), int_guard=None)
                yield with_automaton(index, replace(aut, edges=tuple(edges)))
            if edge.assign or edge.resets:
                edges = list(aut.edges)
                edges[position] = replace(edge, assign=None, resets=())
                yield with_automaton(index, replace(aut, edges=tuple(edges)))


def shrink_instance(
    instance: GeneratedInstance,
    check_name: str,
    cfg: Optional[DiffConfig] = None,
    max_attempts: int = 200,
) -> GeneratedInstance:
    """Greedy spec-level shrinking preserving failure of ``check_name``.

    Checks derive all their randomness from the instance seed, which the
    shrunk spec keeps, so a reproduced failure really is the same failure.
    """
    cfg = cfg or DiffConfig()
    check = CHECKS[check_name]
    current = instance
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate_spec in _shrink_candidates(current.spec):
            attempts += 1
            if attempts >= max_attempts:
                break
            candidate = GeneratedInstance(spec=candidate_spec, config=current.config)
            try:
                result = check(candidate, cfg)
            except Exception:
                continue  # candidate broke the model: not a valid reducer
            if result.status == FAIL:
                current = candidate
                improved = True
                break
    return current


# ----------------------------------------------------------------------
# Campaign driver (shared by the CLI and the test suite)
# ----------------------------------------------------------------------


def _run_one_task(
    seed: int,
    family: Optional[str],
    mutation_seed: Optional[int],
    gen_config: Optional[GenConfig],
    diff_config: DiffConfig,
    checks: Optional[Tuple[str, ...]],
) -> InstanceReport:
    """One generate → check task (module-level: the pool's unit of work).

    Regenerates the instance from its seed(s) instead of pickling
    networks across the pool — generation is cheap, and reproducing from
    the two (or, for corpus-scheduled mutations, three) integers is the
    repo-wide determinism contract anyway.  Shrinking is *not* done
    here: failure seeds funnel back to the parent, which shrinks
    serially so the (order-sensitive) greedy reducer sees the same
    sequence regardless of worker scheduling.

    Op counters are snapshotted around the checks so the report carries
    its own coverage deltas — under :func:`repro.par.steal_map` the
    worker's counters were just reset, so the delta is exactly this
    task's profile; in-process the snapshot isolates it from whatever
    accrued before.
    """
    before = counters.export()
    if mutation_seed is None:
        instance = generate_instance(seed, family, gen_config)
    else:
        instance = mutate_instance(seed, family, mutation_seed, gen_config)
    report = run_instance_checks(instance, diff_config, checks)
    report.mutation_seed = mutation_seed
    report.coverage = counters.diff(before, counters.export())
    return report


def _zone_trials(seed: int, trials: int) -> List[str]:
    """A campaign's zone-algebra trials, off its seed: failure details."""
    return check_zone_algebra(random.Random(seed ^ 0x5EED5), trials=trials)


def _pool_task(name: str, *args):
    """One :func:`run_campaign` pool task: this module's function ``name``
    (``_run_one_task`` or ``_zone_trials``) applied to ``args``.

    The function is looked up when the task runs, so a wrapper installed
    on the module attribute before the campaign starts (a profiler timing
    each instance) runs inside forked workers too.
    """
    return globals()[name](*args)


def _quarantined_report(
    seed: int,
    family: Optional[str],
    mutation_seed: Optional[int],
    gen_config: Optional[GenConfig],
) -> InstanceReport:
    """The deterministic stand-in for a task the pool quarantined.

    Regenerated in the parent from the task's integers, so the report
    (hash, description) is stable across runs and ``jobs`` values; the
    single synthetic ``harness`` FAIL is deliberately free of anything
    volatile (no pids, no tracebacks) for the same reason.  Harness
    failures never shrink — there is no check to re-run.
    """
    if mutation_seed is None:
        instance = generate_instance(seed, family, gen_config)
    else:
        instance = mutate_instance(seed, family, mutation_seed, gen_config)
    report = InstanceReport(
        seed=seed,
        family=instance.family,
        structural_hash=instance.structural_hash(),
        description=instance.describe(),
        results=[
            CheckResult(
                "harness",
                FAIL,
                "task quarantined: worker crashed or hung on every attempt",
            )
        ],
    )
    report.mutation_seed = mutation_seed
    return report


@dataclass
class CampaignSummary:
    reports: List[InstanceReport]
    zone_failures: List[str]
    zone_trials: int
    #: True when the campaign stopped with tasks still pending (an
    #: interrupt or ``stop_after``); the checkpoint holds the finished
    #: prefix and ``--resume`` completes it.  Partial summaries skip the
    #: zone trials and shrinking — both run once, at completion.
    partial: bool = False
    #: Number of unfinished tasks behind :attr:`partial`.
    pending: int = 0

    @property
    def failed_reports(self) -> List[InstanceReport]:
        return [r for r in self.reports if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failed_reports and not self.zone_failures

    def counts(self) -> Dict[str, Dict[str, int]]:
        """check name -> status -> count (family-summed view)."""
        table: Dict[str, Dict[str, int]] = {}
        for family_rows in self.counts_by_family().values():
            for name, row in family_rows.items():
                agg = table.setdefault(name, {OK: 0, SKIP: 0, FAIL: 0})
                for status, count in row.items():
                    agg[status] += count
        return table

    def counts_by_family(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """family -> check name -> status -> count.

        The oracle-coverage breakdown tracked by the nightly deep-fuzz
        artifacts: per generator family, how many instances each check
        actually exercised (multi-automaton plants must show conformance
        runs, not skips).
        """
        table: Dict[str, Dict[str, Dict[str, int]]] = {}
        for report in self.reports:
            family = table.setdefault(report.family, {})
            for result in report.results:
                row = family.setdefault(
                    result.name, {OK: 0, SKIP: 0, FAIL: 0}
                )
                row[result.status] += 1
        return table

    def format(self, verbose: bool = False) -> str:
        lines: List[str] = []
        families: Dict[str, int] = {}
        for report in self.reports:
            families[report.family] = families.get(report.family, 0) + 1
        lines.append(
            f"{len(self.reports)} instances ("
            + ", ".join(f"{fam}: {n}" for fam, n in sorted(families.items()))
            + ")"
        )
        for name, row in sorted(self.counts().items()):
            lines.append(
                f"  {name:12s} ok={row[OK]:<4d} skip={row[SKIP]:<4d}"
                f" fail={row[FAIL]}"
            )
        by_family = self.counts_by_family()
        conf_bits = [
            f"{family} {rows['conformance'][OK]}/{sum(rows['conformance'].values())}"
            for family, rows in sorted(by_family.items())
            if "conformance" in rows
        ]
        if conf_bits:
            lines.append("  conformance coverage: " + ", ".join(conf_bits))
        lines.append(
            f"  {'zones':12s} trials={self.zone_trials}"
            f" fail={len(self.zone_failures)}"
        )
        if verbose:
            for report in self.reports:
                status = "FAIL" if not report.ok else "ok"
                lines.append(f"  [{status}] {report.description}")
        for report in self.failed_reports:
            lines.append(f"DISAGREEMENT {report.description}")
            lines.append(f"  structural hash: {report.structural_hash}")
            for result in report.failures:
                lines.append(f"  {result.name}: {result.detail}")
            lines.append(f"  reproduce: {report.reproducer()}")
            if report.shrunk:
                lines.append(f"  shrunk reproducer: {report.shrunk}")
        for detail in self.zone_failures[:10]:
            lines.append(f"ZONE DISAGREEMENT {detail}")
        if self.partial:
            lines.append(
                f"PARTIAL: {self.pending} tasks pending"
                f" (checkpointed; continue with --resume)"
            )
        lines.append(
            "verdict: "
            + ("no disagreements found" if self.ok else "DISAGREEMENTS FOUND")
        )
        return "\n".join(lines)


def campaign_tasks(
    count: int,
    seed: int = 0,
    families: Sequence[str] = DEFAULT_FAMILIES,
    mutations: Sequence[Tuple[int, Optional[str], int]] = (),
) -> List[Tuple[int, Optional[str], Optional[int]]]:
    """The full ordered task list of a campaign.

    Base task ``i`` is ``(seed + i, families[i % len], None)``; corpus-
    scheduled mutation tasks ``(seed, family, mutation_seed)`` follow.
    The list is what a checkpoint fingerprints: a task's position is its
    identity across interrupted and resumed runs.
    """
    tasks: List[Tuple[int, Optional[str], Optional[int]]] = [
        (seed + index, families[index % len(families)], None)
        for index in range(count)
    ]
    for mut_seed, mut_family, mutation_seed in mutations:
        tasks.append((mut_seed, mut_family, mutation_seed))
    return tasks


def run_campaign(
    count: int,
    seed: int = 0,
    families: Sequence[str] = DEFAULT_FAMILIES,
    gen_config: Optional[GenConfig] = None,
    diff_config: Optional[DiffConfig] = None,
    checks: Optional[Sequence[str]] = None,
    zone_trials: int = 40,
    shrink: bool = True,
    fail_fast: bool = False,
    on_report: Optional[Callable[[InstanceReport], None]] = None,
    jobs: int = 1,
    mutations: Sequence[Tuple[int, Optional[str], int]] = (),
    checkpoint=None,
    stop_after: Optional[int] = None,
) -> CampaignSummary:
    """Generate ``count`` instances and run every check on each.

    Instance ``i`` has seed ``seed + i`` and family ``families[i % len]``;
    zone-algebra trials run off ``seed`` as well, so the whole campaign is
    reproducible from its two integers.  ``mutations`` appends corpus-
    scheduled ``(seed, family, mutation_seed)`` tasks after the base
    instances (each reproducible from its three integers).

    ``jobs > 1`` steals tasks across a :mod:`repro.par` worker pool
    (:func:`~repro.par.steal_map`: single-task dispatch, so one
    solver-heavy seed never straggles a chunk).  The zone-algebra trials
    are one more task, queued after the instances, so the first worker
    to go idle runs them while the others finish the slowest instances;
    if that task is quarantined, the parent runs the trials itself.  The
    summary (statuses, per-family counts, failing seeds, shrunk
    reproducers, zone failures) is **identical to the serial run**:
    tasks are seed-independent, results are reassembled in task order,
    and shrinking of funneled-back failure seeds happens serially in the
    parent, after the pool.  Only
    ``on_report`` ordering (progress) and per-worker memo cache hit
    rates (profiling counters) depend on scheduling.  Under
    ``fail_fast`` the parallel path still runs the whole batch but
    truncates the summary at the first failure, matching the serial
    report; it trades the early exit for throughput.

    ``checkpoint`` (a :class:`repro.corpus.CampaignCheckpoint`) makes
    the run resumable: tasks already journaled are not re-run, every
    fresh result is journaled as it lands, and a run cut short — by
    ``stop_after`` (process at most that many pending tasks) or by an
    exception such as ``KeyboardInterrupt`` mid-pool — leaves a journal
    from which the next call continues.  Because a task's result depends
    only on its integers, the resumed campaign's summary is identical to
    an uninterrupted run's, for any ``jobs`` value on either side.
    """
    diff_config = diff_config or DiffConfig()
    check_names = tuple(checks) if checks is not None else None
    tasks = campaign_tasks(count, seed, families, mutations)
    results: List[Optional[InstanceReport]] = [None] * len(tasks)
    if checkpoint is not None:
        for index, report in checkpoint.completed().items():
            if 0 <= index < len(tasks):
                results[index] = report
    pending = [
        (index, task)
        for index, task in enumerate(tasks)
        if results[index] is None
    ]
    # The zone trials run once, in a run that finishes every task.
    zone_task = zone_trials > 0 and (
        stop_after is None or stop_after >= len(pending)
    )
    if stop_after is not None:
        pending = pending[:stop_after]

    def record(index: int, report: InstanceReport) -> None:
        results[index] = report
        if checkpoint is not None:
            checkpoint.record(index, report)
        if on_report is not None:
            on_report(report)

    zone_failures: Optional[List[str]] = None
    if jobs > 1:
        payloads = [
            ("_run_one_task", task_seed, family, mutation_seed, gen_config,
             diff_config, check_names)
            for _, (task_seed, family, mutation_seed) in pending
        ]
        if zone_task:
            # Queued last: the first worker to go idle runs the trials
            # while the others finish the batch's slowest instances.
            payloads.append(("_zone_trials", seed, zone_trials))

        def delivered(pos: int, result) -> None:
            nonlocal zone_failures
            if pos == len(pending):
                zone_failures = result
            else:
                record(pending[pos][0], result)

        def quarantined(pos: int, error: BaseException) -> None:
            if pos == len(pending):
                return  # the zone trials: the parent runs them below
            # A worker crashed/hung on this task through every retry:
            # record a deterministic harness failure and keep going —
            # one poison task costs itself, never the campaign.
            task_seed, family, mutation_seed = pending[pos][1]
            record(
                pending[pos][0],
                _quarantined_report(
                    task_seed, family, mutation_seed, gen_config
                ),
            )

        steal_map(
            _pool_task,
            payloads,
            jobs=jobs,
            on_result=delivered,
            retries=2,
            quarantine=quarantined,
        )
    else:
        for index, (task_seed, family, mutation_seed) in pending:
            report = _run_one_task(
                task_seed, family, mutation_seed, gen_config, diff_config,
                check_names,
            )
            record(index, report)
            if fail_fast and not report.ok:
                break

    # The reported prefix: everything up to the first gap (in task
    # order), truncated at the first failure under fail_fast — so the
    # serial early exit and the run-everything parallel path agree.
    reports: List[InstanceReport] = []
    for report in results:
        if report is None:
            break
        reports.append(report)
        if fail_fast and not report.ok:
            break
    unfinished = sum(1 for report in results if report is None)
    if unfinished and not (fail_fast and reports and not reports[-1].ok):
        # Interrupted (stop_after): report the finished prefix only and
        # defer the order-sensitive tail work to the completing run.
        return CampaignSummary(reports, [], 0, partial=True,
                               pending=unfinished)

    # Serial shrinking of the failure seeds funneled back from the
    # workers (greedy reduction re-runs checks; keeping it in the
    # parent keeps it scheduling-independent and seed-reproducible).
    if shrink:
        for report in reports:
            if report.ok or report.shrunk is not None:
                continue
            if report.failures[0].name not in CHECKS:
                continue  # synthetic harness failure: nothing to re-run
            if report.mutation_seed is None:
                instance = generate_instance(
                    report.seed, report.family, gen_config
                )
            else:
                instance = mutate_instance(
                    report.seed, report.family, report.mutation_seed,
                    gen_config,
                )
            shrunk = shrink_instance(
                instance, report.failures[0].name, diff_config
            )
            if shrunk is not instance:
                report.shrunk = shrunk.describe()
    if zone_failures is None:
        zone_failures = _zone_trials(seed, zone_trials)
    return CampaignSummary(reports, zone_failures, zone_trials)
