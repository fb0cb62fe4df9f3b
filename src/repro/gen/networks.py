"""Seeded random generation of timed I/O game networks.

Networks are generated into an intermediate, editable representation
(:class:`NetSpec`) and only then compiled into a prepared
:class:`~repro.ta.model.Network` through the normal builder — so the
shrinker of :mod:`repro.gen.differential` can delete edges, clear guards,
or drop invariants and rebuild, and so a generated model is always
well-formed *by construction*:

* invariants are single upper bounds ``c <= b`` (the only shape the model
  layer accepts);
* every edge entering a location with an invariant on clock ``c`` resets
  ``c``, so discrete steps never land outside an invariant;
* every location carrying an invariant keeps at least one unconditional
  output/internal edge enabled at the invariant boundary, so maximal runs
  never deadlock against the clock;
* committed locations have exactly one outgoing edge — an unguarded
  internal move — mirroring the paper's use of committed locations for
  instantaneous processing;
* per (location, channel) there is at most one edge, and guarded input
  edges get complementary self-loops, which makes single-automaton plants
  deterministic and strongly input-enabled (the paper's §2.2 test
  hypotheses) and therefore usable as tioco specifications.

Scenario families:

``random``
    One plant automaton with arbitrary topology — the generalization of
    the old private ``random_game`` helper of ``tests/test_random_games``.
``chain``
    A pipeline of stages passing a token left to right inside bounded
    response windows, with optional uncontrollable failure branches and a
    tester-controlled shortcut on the last stage.
``ring``
    A token ring: the tester injects a token at stage 0 and wins when it
    completes a full lap (counted in a shared integer variable).
``clientserver``
    One server automaton serializing requests from several clients, with
    optional uncontrollable ``deny`` branches; the goal counts grants.
``broadcast``
    A publisher announcing once on an UPPAAL-style broadcast channel to
    several subscribers (all enabled receivers take the cast
    simultaneously); subscribers may go deaf first on uncontrollable
    ``drop`` branches, and some publishers route the start input through
    an *urgent* relay location.
``urgent_random``
    The ``random`` family with urgent locations enabled: delay-freezing
    locations (no move priority) that always keep an unconditional
    output escape, exercising the monitors' urgent settling rules on
    single plants (where the conformance oracle actually runs).
``mutant``
    A base instance from any family above with one mutation operator
    applied at the spec level (guard shift, invariant widening, edge
    retarget / drop / spurious-add, output-channel swap, urgent toggle,
    spurious broadcast receiver) — the generation-level analogue of
    :mod:`repro.testing.mutants`.

The closed game *arena* is the plant composed with a maximally permissive
environment automaton that offers every input and consumes every
environment-visible output at any time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ta.builder import NetworkBuilder
from ..ta.model import Network

#: Edge roles: ``real`` edges carry the behaviour, ``liveness`` edges are
#: the designated invariant-boundary escapes, ``complement``/``ignore``
#: self-loops exist only for input-enabledness and are never mutated.
REAL, LIVENESS, COMPLEMENT, IGNORE = "real", "liveness", "complement", "ignore"


@dataclass(frozen=True)
class GuardAtom:
    """One clock comparison ``clock op value`` (op in >=, <=, >, <)."""

    clock: str
    op: str
    value: int

    def text(self) -> str:
        return f"{self.clock} {self.op} {self.value}"


@dataclass(frozen=True)
class EdgeSpec:
    source: str
    target: str
    sync: Optional[str] = None  # "chan!" | "chan?" | None (internal)
    clock_guard: Tuple[GuardAtom, ...] = ()
    int_guard: Optional[str] = None  # e.g. "v0 < 3"
    resets: Tuple[str, ...] = ()  # clocks reset to 0
    assign: Optional[str] = None  # e.g. "v0 := v0 + 1"
    role: str = REAL

    def guard_text(self) -> Optional[str]:
        parts = [atom.text() for atom in self.clock_guard]
        if self.int_guard:
            parts.append(self.int_guard)
        return " && ".join(parts) if parts else None

    def assign_text(self) -> Optional[str]:
        parts = [f"{clock} := 0" for clock in self.resets]
        if self.assign:
            parts.append(self.assign)
        return ", ".join(parts) if parts else None


@dataclass(frozen=True)
class LocSpec:
    name: str
    invariant: Optional[Tuple[str, int]] = None  # (clock, bound): clock <= bound
    committed: bool = False
    initial: bool = False
    urgent: bool = False


@dataclass(frozen=True)
class AutSpec:
    name: str
    locations: Tuple[LocSpec, ...]
    edges: Tuple[EdgeSpec, ...]

    def location(self, name: str) -> LocSpec:
        for loc in self.locations:
            if loc.name == name:
                return loc
        raise KeyError(name)


@dataclass(frozen=True)
class NetSpec:
    """The editable intermediate representation of a generated network."""

    name: str
    family: str
    seed: int
    clocks: Tuple[str, ...]
    int_vars: Tuple[Tuple[str, int, int, int], ...]  # (name, low, high, init)
    input_channels: Tuple[str, ...]
    output_channels: Tuple[str, ...]
    #: Output channels consumed inside the plant (stage-to-stage tokens);
    #: the permissive environment must not receive them, or it would race
    #: the designated receiver for the binary synchronization.
    env_hidden: Tuple[str, ...]
    automata: Tuple[AutSpec, ...]
    goal: str  # state predicate, e.g. "P0.Done && hops == 2"
    #: UPPAAL-style broadcast channels: one emitter, all enabled receivers.
    #: Never hidden from the environment — broadcast receivers cannot race
    #: the plant's designated receivers, so the env may always listen.
    broadcast_channels: Tuple[str, ...] = ()

    @property
    def query(self) -> str:
        return f"control: A<> {self.goal}"

    @property
    def single_plant(self) -> bool:
        return len(self.automata) == 1

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def observable_channels(self) -> Tuple[str, ...]:
        """The interface partition: channels observable at the boundary.

        Everything except ``env_hidden`` — inputs, environment-visible
        outputs, and broadcast channels (always audible).  The hidden
        channels carry stage-to-stage tokens consumed *inside* the plant;
        under the partial semantics their syncs complete internally.
        """
        return (
            self.input_channels
            + tuple(c for c in self.output_channels if c not in self.env_hidden)
            + self.broadcast_channels
        )

    def build_plant(self) -> Network:
        """The plant network alone (tioco specification, open boundary)."""
        return self._build(f"{self.name}-plant", include_env=False)

    def build_arena(
        self, interface: Optional[Tuple[str, ...]] = None
    ) -> Network:
        """Plant composed with the permissive environment (game arena).

        ``interface`` overrides the declared boundary — the composition
        differential passes ``()`` to internalise everything and compare
        against the flat closed product.
        """
        return self._build(self.name, include_env=True, interface=interface)

    def _build(
        self,
        name: str,
        *,
        include_env: bool,
        interface: Optional[Tuple[str, ...]] = None,
    ) -> Network:
        net = NetworkBuilder(name)
        for clock in self.clocks:
            net.clock(clock)
        for var, low, high, init in self.int_vars:
            net.int_var(var, low, high, init)
        net.input_channel(*self.input_channels)
        net.output_channel(*self.output_channels)
        net.broadcast_channel(*self.broadcast_channels)
        net.interface(
            *(self.observable_channels() if interface is None else interface)
        )
        for aut in self.automata:
            builder = net.automaton(aut.name)
            for loc in aut.locations:
                invariant = None
                if loc.invariant is not None:
                    invariant = f"{loc.invariant[0]} <= {loc.invariant[1]}"
                builder.location(
                    loc.name,
                    invariant,
                    initial=loc.initial,
                    committed=loc.committed,
                    urgent=loc.urgent,
                )
            for edge in aut.edges:
                builder.edge(
                    edge.source,
                    edge.target,
                    guard=edge.guard_text(),
                    sync=edge.sync,
                    assign=edge.assign_text(),
                )
        if include_env:
            env = net.automaton("ENV")
            env.location("e", initial=True)
            for channel in self.input_channels:
                env.edge("e", "e", sync=f"{channel}!")
            for channel in self.output_channels:
                if channel not in self.env_hidden:
                    env.edge("e", "e", sync=f"{channel}?")
            for channel in self.broadcast_channels:
                # Broadcast reception never blocks or races the plant's
                # own receivers, so the environment always listens in.
                env.edge("e", "e", sync=f"{channel}?")
        return net.build()


@dataclass(frozen=True)
class GenConfig:
    """Size and shape knobs of the generator (all families)."""

    max_locations: int = 5
    max_clocks: int = 2
    max_int_vars: int = 1
    max_input_channels: int = 2
    max_output_channels: int = 2
    max_out_edges_per_loc: int = 2
    max_automata: int = 3
    max_clients: int = 3
    max_subscribers: int = 3
    max_constant: int = 6
    var_range: int = 4
    committed_prob: float = 0.15
    urgent_prob: float = 0.3
    invariant_prob: float = 0.5
    guard_prob: float = 0.6
    reset_prob: float = 0.5
    input_edge_prob: float = 0.5
    fail_prob: float = 0.35
    nudge_prob: float = 0.5
    var_prob: float = 0.4

    def scaled(self, **overrides) -> "GenConfig":
        """A copy with some knobs overridden (``--max-locations`` on the CLI)."""
        return replace(self, **overrides)


@dataclass
class GeneratedInstance:
    """One generated scenario: spec + compiled networks + query."""

    spec: NetSpec
    config: GenConfig
    _plant: Optional[Network] = field(default=None, repr=False)
    _arena: Optional[Network] = field(default=None, repr=False)

    @property
    def seed(self) -> int:
        return self.spec.seed

    @property
    def family(self) -> str:
        return self.spec.family

    @property
    def query(self) -> str:
        return self.spec.query

    @property
    def single_plant(self) -> bool:
        return self.spec.single_plant

    @property
    def plant(self) -> Network:
        if self._plant is None:
            self._plant = self.spec.build_plant()
        return self._plant

    @property
    def arena(self) -> Network:
        if self._arena is None:
            self._arena = self.spec.build_arena()
        return self._arena

    def structural_hash(self) -> str:
        """Stable digest of the arena network (seed-reproducible)."""
        return self.arena.structural_hash()

    def describe(self) -> str:
        spec = self.spec
        sizes = ", ".join(
            f"{aut.name}:{len(aut.locations)}l/{len(aut.edges)}e"
            for aut in spec.automata
        )
        return (
            f"{spec.family} seed={spec.seed} [{sizes};"
            f" clocks={len(spec.clocks)} vars={len(spec.int_vars)}]"
            f" goal={spec.goal!r}"
        )


# ----------------------------------------------------------------------
# Shared well-formedness passes
# ----------------------------------------------------------------------


def _interval_guard(
    rng: random.Random, clock: str, max_constant: int
) -> Tuple[GuardAtom, ...]:
    lo = rng.randint(0, max_constant // 2)
    hi = lo + rng.randint(0, max_constant - lo)
    atoms: List[GuardAtom] = []
    if lo > 0:
        atoms.append(GuardAtom(clock, ">=", lo))
    if rng.random() < 0.8:
        atoms.append(GuardAtom(clock, "<=", hi))
    return tuple(atoms)


def _complement_loops(loc: str, guard: Tuple[GuardAtom, ...], sync: str) -> List[EdgeSpec]:
    """Self-loops covering the complement of a single-clock interval guard,
    so a guarded input edge keeps the location strongly input-enabled."""
    loops: List[EdgeSpec] = []
    for atom in guard:
        if atom.op == ">=":
            flipped = GuardAtom(atom.clock, "<", atom.value)
        elif atom.op == "<=":
            flipped = GuardAtom(atom.clock, ">", atom.value)
        else:  # pragma: no cover - generator only emits >= / <=
            continue
        loops.append(
            EdgeSpec(loc, loc, sync=sync, clock_guard=(flipped,), role=COMPLEMENT)
        )
    return loops


def _with_entry_resets(aut: AutSpec) -> AutSpec:
    """Add resets so no edge can enter an invariant location illegally.

    Pure self-loops are exempt: the source state already satisfies its own
    invariant, and adding resets to ignore-loops would change timing.
    """
    inv_clock = {
        loc.name: loc.invariant[0]
        for loc in aut.locations
        if loc.invariant is not None
    }
    edges: List[EdgeSpec] = []
    for edge in aut.edges:
        clock = inv_clock.get(edge.target)
        if (
            clock is not None
            and edge.source != edge.target
            and clock not in edge.resets
        ):
            edge = replace(edge, resets=edge.resets + (clock,))
        edges.append(edge)
    return replace(aut, edges=tuple(edges))


def finalize_automaton(aut: AutSpec) -> AutSpec:
    """Apply the well-formedness passes a hand-edited spec also needs."""
    return _with_entry_resets(aut)


# ----------------------------------------------------------------------
# Families: random / urgent_random (single deterministic plants)
# ----------------------------------------------------------------------


def _gen_random(
    rng: random.Random, cfg: GenConfig, *, urgent: bool = False
) -> NetSpec:
    """The ``random`` family; with ``urgent`` also the ``urgent_random``
    variant, which marks some locations urgent (delay-freezing, no move
    priority) and guarantees each an unconditional output escape so the
    frozen instant always offers an action (no urgent timelock)."""
    clocks = tuple(f"x{i}" for i in range(rng.randint(1, cfg.max_clocks)))
    int_vars = tuple(
        (f"v{i}", 0, cfg.var_range, 0) for i in range(rng.randint(0, cfg.max_int_vars))
    )
    inputs = tuple(f"i{k}" for k in range(rng.randint(1, cfg.max_input_channels)))
    outputs = tuple(f"o{k}" for k in range(rng.randint(1, cfg.max_output_channels)))
    n_locs = rng.randint(3, cfg.max_locations)
    names = [f"g{i}" for i in range(n_locs)]
    committed = {
        name
        for name in names[1:-1]  # never the initial or the goal location
        if rng.random() < cfg.committed_prob
    }
    urgent_locs: set = set()
    if urgent:
        eligible = [name for name in names[1:-1] if name not in committed]
        urgent_locs = {
            name for name in eligible if rng.random() < cfg.urgent_prob
        }
        if not urgent_locs and eligible:
            urgent_locs = {rng.choice(eligible)}
    normal = [name for name in names if name not in committed]

    def random_resets() -> Tuple[str, ...]:
        return tuple(c for c in clocks if rng.random() < cfg.reset_prob)

    def random_var_use() -> Tuple[Optional[str], Optional[str]]:
        """(int_guard, assign) for an output edge; bounded by construction."""
        if not int_vars or rng.random() > cfg.var_prob:
            return None, None
        var, low, high, _ = rng.choice(int_vars)
        kind = rng.random()
        if kind < 0.4:
            return f"{var} < {high}", f"{var} := {var} + 1"
        if kind < 0.6:
            return None, f"{var} := {rng.randint(low, high)}"
        return f"{var} == {rng.randint(low, min(high, 2))}", None

    edges: List[EdgeSpec] = []
    for name in names:
        if name in committed:
            # Exactly one outgoing move: an unguarded internal step.
            edges.append(
                EdgeSpec(
                    name,
                    rng.choice(normal),
                    resets=random_resets(),
                    role=REAL,
                )
            )
            continue
        # Output edges: at most one per channel per location.
        n_out = rng.randint(0, min(len(outputs), cfg.max_out_edges_per_loc))
        for channel in rng.sample(list(outputs), n_out):
            guard: Tuple[GuardAtom, ...] = ()
            if rng.random() < cfg.guard_prob:
                guard = _interval_guard(rng, rng.choice(clocks), cfg.max_constant)
            int_guard, assign = random_var_use()
            edges.append(
                EdgeSpec(
                    name,
                    rng.choice(names),
                    sync=f"{channel}!",
                    clock_guard=guard,
                    int_guard=int_guard,
                    resets=random_resets(),
                    assign=assign,
                    role=REAL,
                )
            )
        # Input edges: one real edge per channel (maybe), complements for
        # its guard, or a plain ignore loop — always fully input-enabled.
        for channel in inputs:
            if rng.random() < cfg.input_edge_prob:
                guard = ()
                if rng.random() < cfg.guard_prob:
                    guard = _interval_guard(rng, rng.choice(clocks), cfg.max_constant)
                edges.append(
                    EdgeSpec(
                        name,
                        rng.choice(names),
                        sync=f"{channel}?",
                        clock_guard=guard,
                        resets=random_resets(),
                        role=REAL,
                    )
                )
                edges.extend(_complement_loops(name, guard, f"{channel}?"))
            else:
                edges.append(EdgeSpec(name, name, sync=f"{channel}?", role=IGNORE))
        if name in urgent_locs:
            # The urgent freeze must always offer an action: keep one
            # unconditional output escape (no clock window, no int guard,
            # no saturating assignment), mirroring the invariant-boundary
            # liveness rule.
            own_outputs = [
                pos
                for pos, e in enumerate(edges)
                if e.source == name
                and e.role == REAL
                and e.sync
                and e.sync.endswith("!")
            ]
            if own_outputs:
                pos = own_outputs[0]
                edges[pos] = replace(
                    edges[pos],
                    clock_guard=(),
                    int_guard=None,
                    assign=None,
                    role=LIVENESS,
                )
            else:
                edges.append(
                    EdgeSpec(
                        name,
                        rng.choice(names),
                        sync=f"{rng.choice(outputs)}!",
                        role=LIVENESS,
                    )
                )

    # Invariants, with a designated always-enabled escape edge per location.
    locations: List[LocSpec] = []
    for idx, name in enumerate(names):
        invariant = None
        if (
            name not in committed
            and name not in urgent_locs  # urgent already freezes delay
            and rng.random() < cfg.invariant_prob
        ):
            outgoing = [
                (pos, e)
                for pos, e in enumerate(edges)
                if e.source == name and e.role == REAL and e.sync and e.sync.endswith("!")
            ]
            if outgoing:
                invariant = (rng.choice(clocks), rng.randint(1, cfg.max_constant))
                pos, escape = rng.choice(outgoing)
                # The escape must stay fireable forever: no clock window, no
                # int guard, and no assignment (a saturating increment would
                # disable the move once the variable hits its bound).
                edges[pos] = replace(
                    escape,
                    clock_guard=(),
                    int_guard=None,
                    assign=None,
                    role=LIVENESS,
                )
        locations.append(
            LocSpec(
                name,
                invariant=invariant,
                committed=(name in committed),
                initial=(idx == 0),
                urgent=(name in urgent_locs),
            )
        )

    aut = finalize_automaton(AutSpec("P", tuple(locations), tuple(edges)))
    prefix, family = ("urand", "urgent_random") if urgent else ("rand", "random")
    return NetSpec(
        name=f"{prefix}{rng.getrandbits(24)}",
        family=family,
        seed=0,  # patched by generate_instance
        clocks=clocks,
        int_vars=int_vars,
        input_channels=inputs,
        output_channels=outputs,
        env_hidden=(),
        automata=(aut,),
        goal=f"P.{names[-1]}",
    )


def _gen_urgent_random(rng: random.Random, cfg: GenConfig) -> NetSpec:
    return _gen_random(rng, cfg, urgent=True)


# ----------------------------------------------------------------------
# Family: chain (pipeline of stages with response windows)
# ----------------------------------------------------------------------


def _gen_chain(rng: random.Random, cfg: GenConfig) -> NetSpec:
    n = rng.randint(2, max(2, cfg.max_automata))
    clocks = tuple(f"c{i}" for i in range(n))
    inputs: List[str] = ["go"]
    outputs: List[str] = []
    hidden: List[str] = []
    automata: List[AutSpec] = []
    for i in range(n):
        last = i == n - 1
        recv = "go?" if i == 0 else f"h{i - 1}?"
        emit_chan = "fin" if last else f"h{i}"
        outputs.append(emit_chan)
        if not last:
            hidden.append(emit_chan)
        deadline = rng.randint(2, cfg.max_constant)
        earliest = rng.randint(0, deadline)
        locs = [
            LocSpec("Idle", initial=True),
            LocSpec("Busy", invariant=(clocks[i], deadline)),
            LocSpec("Done"),
        ]
        edges = [
            EdgeSpec("Idle", "Busy", sync=recv, resets=(clocks[i],), role=REAL),
            EdgeSpec(
                "Busy",
                "Done",
                sync=f"{emit_chan}!",
                clock_guard=(GuardAtom(clocks[i], ">=", earliest),)
                if earliest
                else (),
                role=LIVENESS,
            ),
        ]
        if rng.random() < cfg.fail_prob:
            # An uncontrollable failure branch racing the token.
            fail_after = rng.randint(1, deadline)
            outputs.append(f"err{i}")
            locs.append(LocSpec("Stuck"))
            edges.append(
                EdgeSpec(
                    "Busy",
                    "Stuck",
                    sync=f"err{i}!",
                    clock_guard=(GuardAtom(clocks[i], ">=", fail_after),),
                    role=REAL,
                )
            )
        if last and rng.random() < cfg.nudge_prob:
            # A tester-controlled shortcut past the final window.
            inputs.append(f"nd{i}")
            edges.append(
                EdgeSpec(
                    "Busy",
                    "Done",
                    sync=f"nd{i}?",
                    clock_guard=(GuardAtom(clocks[i], "<=", deadline),),
                    role=REAL,
                )
            )
            for loc in ("Idle", "Done"):
                edges.append(EdgeSpec(loc, loc, sync=f"nd{i}?", role=IGNORE))
            if any(spec_loc.name == "Stuck" for spec_loc in locs):
                edges.append(EdgeSpec("Stuck", "Stuck", sync=f"nd{i}?", role=IGNORE))
        if i == 0:
            for loc in locs[1:]:
                edges.append(EdgeSpec(loc.name, loc.name, sync="go?", role=IGNORE))
        automata.append(
            finalize_automaton(AutSpec(f"P{i}", tuple(locs), tuple(edges)))
        )
    return NetSpec(
        name=f"chain{n}",
        family="chain",
        seed=0,
        clocks=clocks,
        int_vars=(),
        input_channels=tuple(inputs),
        output_channels=tuple(outputs),
        env_hidden=tuple(hidden),
        automata=tuple(automata),
        goal=f"P{n - 1}.Done",
    )


# ----------------------------------------------------------------------
# Family: ring (token ring with a lap counter)
# ----------------------------------------------------------------------


def _gen_ring(rng: random.Random, cfg: GenConfig) -> NetSpec:
    n = rng.randint(2, max(2, cfg.max_automata))
    clocks = tuple(f"c{i}" for i in range(n))
    outputs = [f"tok{i}" for i in range(n)]
    hidden = list(outputs)  # every token hop has a designated receiver
    int_vars = (("hops", 0, n + 1, 0),)
    automata: List[AutSpec] = []
    fail_channels: List[str] = []
    for i in range(n):
        deadline = rng.randint(2, cfg.max_constant)
        earliest = rng.randint(0, deadline)
        emit = f"tok{i}!"
        if i == 0:
            locs = [
                LocSpec("Idle", initial=True),
                LocSpec("Hold", invariant=(clocks[0], deadline)),
                LocSpec("Await"),
                LocSpec("Done"),
            ]
            edges = [
                EdgeSpec("Idle", "Hold", sync="go?", resets=(clocks[0],), role=REAL),
                EdgeSpec(
                    "Hold",
                    "Await",
                    sync=emit,
                    clock_guard=(GuardAtom(clocks[0], ">=", earliest),)
                    if earliest
                    else (),
                    role=LIVENESS,
                ),
                EdgeSpec("Await", "Done", sync=f"tok{n - 1}?", role=REAL),
            ]
            for loc in ("Hold", "Await", "Done"):
                edges.append(EdgeSpec(loc, loc, sync="go?", role=IGNORE))
        else:
            locs = [
                LocSpec("Wait", initial=True),
                LocSpec("Hold", invariant=(clocks[i], deadline)),
                LocSpec("Rest"),
            ]
            edges = [
                EdgeSpec(
                    "Wait",
                    "Hold",
                    sync=f"tok{i - 1}?",
                    resets=(clocks[i],),
                    assign="hops := hops + 1",
                    role=REAL,
                ),
                EdgeSpec(
                    "Hold",
                    "Rest",
                    sync=emit,
                    clock_guard=(GuardAtom(clocks[i], ">=", earliest),)
                    if earliest
                    else (),
                    role=LIVENESS,
                ),
            ]
        if rng.random() < cfg.fail_prob:
            fail_after = rng.randint(1, deadline)
            chan = f"err{i}"
            fail_channels.append(chan)
            locs.append(LocSpec("Lost"))
            edges.append(
                EdgeSpec(
                    "Hold",
                    "Lost",
                    sync=f"{chan}!",
                    clock_guard=(GuardAtom(clocks[i], ">=", fail_after),),
                    role=REAL,
                )
            )
            if i == 0:
                edges.append(EdgeSpec("Lost", "Lost", sync="go?", role=IGNORE))
        automata.append(
            finalize_automaton(AutSpec(f"P{i}", tuple(locs), tuple(edges)))
        )
    return NetSpec(
        name=f"ring{n}",
        family="ring",
        seed=0,
        clocks=clocks,
        int_vars=int_vars,
        input_channels=("go",),
        output_channels=tuple(outputs + fail_channels),
        env_hidden=tuple(hidden),
        automata=tuple(automata),
        goal=f"P0.Done && hops == {n - 1}",
    )


# ----------------------------------------------------------------------
# Family: clientserver (request serialization with denial branches)
# ----------------------------------------------------------------------


def _gen_client_server(rng: random.Random, cfg: GenConfig) -> NetSpec:
    m = rng.randint(1, max(1, cfg.max_clients))
    clocks = ("c",)
    inputs = tuple(f"req{j}" for j in range(m))
    outputs: List[str] = [f"grant{j}" for j in range(m)]
    hidden = list(outputs)  # grants go to the matching client
    int_vars = (("srv", 0, 2 * m + 2, 0),)
    serve_locs: List[LocSpec] = [LocSpec("Idle", initial=True)]
    edges: List[EdgeSpec] = []
    for j in range(m):
        deadline = rng.randint(2, cfg.max_constant)
        earliest = rng.randint(0, deadline)
        serve = f"Serve{j}"
        serve_locs.append(LocSpec(serve, invariant=("c", deadline)))
        edges.append(
            EdgeSpec("Idle", serve, sync=f"req{j}?", resets=("c",), role=REAL)
        )
        edges.append(
            EdgeSpec(
                serve,
                "Idle",
                sync=f"grant{j}!",
                clock_guard=(GuardAtom("c", ">=", earliest),) if earliest else (),
                assign="srv := srv + 1",
                role=LIVENESS,
            )
        )
        if rng.random() < cfg.fail_prob:
            deny_after = rng.randint(1, deadline)
            outputs.append(f"deny{j}")
            edges.append(
                EdgeSpec(
                    serve,
                    "Idle",
                    sync=f"deny{j}!",
                    clock_guard=(GuardAtom("c", ">=", deny_after),),
                    role=REAL,
                )
            )
    # The server is busy-deaf: requests while serving are ignored.
    for loc in serve_locs[1:]:
        for channel in inputs:
            edges.append(EdgeSpec(loc.name, loc.name, sync=f"{channel}?", role=IGNORE))
    server = finalize_automaton(AutSpec("S", tuple(serve_locs), tuple(edges)))
    clients: List[AutSpec] = []
    for j in range(m):
        clients.append(
            AutSpec(
                f"C{j}",
                (LocSpec("Wait", initial=True), LocSpec("Happy")),
                (
                    EdgeSpec("Wait", "Happy", sync=f"grant{j}?", role=REAL),
                    EdgeSpec("Happy", "Happy", sync=f"grant{j}?", role=IGNORE),
                ),
            )
        )
    return NetSpec(
        name=f"cs{m}",
        family="clientserver",
        seed=0,
        clocks=clocks,
        int_vars=int_vars,
        input_channels=inputs,
        output_channels=tuple(outputs),
        env_hidden=tuple(hidden),
        automata=(server,) + tuple(clients),
        goal=f"srv >= {m}",
    )


# ----------------------------------------------------------------------
# Family: broadcast (publisher / subscribers over a broadcast channel)
# ----------------------------------------------------------------------


def _gen_broadcast(rng: random.Random, cfg: GenConfig) -> NetSpec:
    """A publisher announcing on a broadcast channel to ``k`` subscribers.

    The tester starts the publisher (``go``); within a bounded window the
    publisher casts once on a broadcast channel and every still-listening
    subscriber takes the announcement simultaneously, bumping a shared
    counter.  Subscribers may go deaf first on an uncontrollable ``drop``
    branch, so the game is only winnable when the cast can beat every
    drop window.  Some publishers are *urgent relays*: the initial input
    routes through an urgent Arm location that must forward instantly.
    """
    k = rng.randint(1, max(1, cfg.max_subscribers))
    deadline = rng.randint(2, cfg.max_constant)
    earliest = rng.randint(0, deadline)
    urgent_relay = rng.random() < cfg.urgent_prob
    pub_locs = [
        LocSpec("Idle", initial=True),
        LocSpec("Prep", invariant=("x", deadline)),
        LocSpec("Sent"),
    ]
    pub_edges = [
        EdgeSpec(
            "Prep",
            "Sent",
            sync="cast!",
            clock_guard=(GuardAtom("x", ">=", earliest),) if earliest else (),
            role=LIVENESS,
        ),
    ]
    if urgent_relay:
        pub_locs.insert(1, LocSpec("Arm", urgent=True))
        pub_edges.append(EdgeSpec("Idle", "Arm", sync="go?", role=REAL))
        # The urgent freeze resolves through an unguarded output relay.
        pub_edges.append(
            EdgeSpec("Arm", "Prep", sync="armed!", resets=("x",), role=LIVENESS)
        )
        pub_edges.append(EdgeSpec("Arm", "Arm", sync="go?", role=IGNORE))
    else:
        pub_edges.append(
            EdgeSpec("Idle", "Prep", sync="go?", resets=("x",), role=REAL)
        )
    for loc in ("Prep", "Sent"):
        pub_edges.append(EdgeSpec(loc, loc, sync="go?", role=IGNORE))
    outputs: List[str] = ["armed"] if urgent_relay else []
    automata = [finalize_automaton(AutSpec("P", tuple(pub_locs), tuple(pub_edges)))]
    for j in range(k):
        locs = [LocSpec("Wait", initial=True), LocSpec("Got")]
        edges = [
            EdgeSpec(
                "Wait",
                "Got",
                sync="cast?",
                assign="got := got + 1",
                role=REAL,
            )
        ]
        if rng.random() < cfg.fail_prob:
            drop_after = rng.randint(1, deadline)
            outputs.append(f"drop{j}")
            locs.append(LocSpec("Deaf"))
            edges.append(
                EdgeSpec(
                    "Wait",
                    "Deaf",
                    sync=f"drop{j}!",
                    clock_guard=(GuardAtom("x", ">=", drop_after),),
                    role=REAL,
                )
            )
        automata.append(
            finalize_automaton(AutSpec(f"S{j}", tuple(locs), tuple(edges)))
        )
    return NetSpec(
        name=f"bcast{k}",
        family="broadcast",
        seed=0,
        clocks=("x",),
        int_vars=(("got", 0, k + 1, 0),),
        input_channels=("go",),
        output_channels=tuple(outputs),
        env_hidden=(),
        automata=tuple(automata),
        goal=f"P.Sent && got == {k}",
        broadcast_channels=("cast",),
    )


# ----------------------------------------------------------------------
# Family: mutant (a base instance with one spec-level mutation)
# ----------------------------------------------------------------------


def _mutable_edges(aut: AutSpec) -> List[int]:
    return [
        pos
        for pos, edge in enumerate(aut.edges)
        if edge.role in (REAL, LIVENESS)
    ]


def mutate_spec(spec: NetSpec, rng: random.Random) -> NetSpec:
    """Apply one random mutation operator at the spec level.

    Mutants stay model-legal (entry resets are re-established) but may
    lose liveness, determinism, or input-enabledness — exactly the faults
    the differential harness must stay robust against.
    """
    operators = ["shift_guard", "widen_invariant", "retarget", "drop", "spurious"]
    visible = [c for c in spec.output_channels if c not in spec.env_hidden]
    if len(visible) >= 2:
        operators.append("swap_output")
    if any(loc.urgent for aut in spec.automata for loc in aut.locations):
        operators.append("toggle_urgent")
    if spec.broadcast_channels:
        operators.append("spurious_receiver")
    for _ in range(12):  # retry until an operator finds a target
        op = rng.choice(operators)
        aut_idx = rng.randrange(len(spec.automata))
        aut = spec.automata[aut_idx]
        mutated = _apply_operator(op, aut, spec, rng)
        if mutated is not None:
            automata = list(spec.automata)
            automata[aut_idx] = finalize_automaton(mutated)
            return replace(
                spec,
                name=f"{spec.name}-{op}",
                family="mutant",
                automata=tuple(automata),
            )
    return replace(spec, family="mutant")


def _apply_operator(
    op: str, aut: AutSpec, spec: NetSpec, rng: random.Random
) -> Optional[AutSpec]:
    edges = list(aut.edges)
    if op == "shift_guard":
        guarded = [
            pos for pos in _mutable_edges(aut) if edges[pos].clock_guard
        ]
        if not guarded:
            return None
        pos = rng.choice(guarded)
        atoms = list(edges[pos].clock_guard)
        k = rng.randrange(len(atoms))
        atom = atoms[k]
        atoms[k] = replace(atom, value=max(0, atom.value + rng.choice((-2, -1, 1, 2))))
        edges[pos] = replace(edges[pos], clock_guard=tuple(atoms))
        return replace(aut, edges=tuple(edges))
    if op == "widen_invariant":
        locs = list(aut.locations)
        with_inv = [i for i, loc in enumerate(locs) if loc.invariant is not None]
        if not with_inv:
            return None
        i = rng.choice(with_inv)
        clock, bound = locs[i].invariant
        locs[i] = replace(
            locs[i], invariant=(clock, max(1, bound + rng.choice((-1, 1, 2))))
        )
        return replace(aut, locations=tuple(locs))
    if op == "retarget":
        candidates = [
            pos
            for pos in _mutable_edges(aut)
            if edges[pos].source != edges[pos].target
        ]
        if not candidates:
            return None
        pos = rng.choice(candidates)
        new_target = rng.choice([loc.name for loc in aut.locations])
        edges[pos] = replace(edges[pos], target=new_target)
        return replace(aut, edges=tuple(edges))
    if op == "swap_output":
        visible = [c for c in spec.output_channels if c not in spec.env_hidden]
        candidates = [
            pos
            for pos in _mutable_edges(aut)
            if edges[pos].sync is not None
            and edges[pos].sync.endswith("!")
            and edges[pos].sync[:-1] in visible
        ]
        if not candidates:
            return None
        pos = rng.choice(candidates)
        current = edges[pos].sync[:-1]
        others = [c for c in visible if c != current]
        if not others:
            return None
        edges[pos] = replace(edges[pos], sync=f"{rng.choice(others)}!")
        return replace(aut, edges=tuple(edges))
    if op == "drop":
        candidates = _mutable_edges(aut)
        if len(candidates) < 2:
            return None
        pos = rng.choice(candidates)
        del edges[pos]
        return replace(aut, edges=tuple(edges))
    if op == "toggle_urgent":
        locs = list(aut.locations)
        candidates = [
            i
            for i, loc in enumerate(locs)
            if not loc.committed and not loc.initial
        ]
        if not candidates:
            return None
        i = rng.choice(candidates)
        locs[i] = replace(locs[i], urgent=not locs[i].urgent, invariant=None)
        return replace(aut, locations=tuple(locs))
    if op == "spurious_receiver":
        # An extra broadcast receiving edge: may make the broadcast move
        # nondeterministic or change the fan-out; receivers must stay
        # clock-guard-free (model-layer restriction).
        channel = rng.choice(spec.broadcast_channels)
        names = [loc.name for loc in aut.locations if not loc.committed]
        if not names:
            return None
        edges.append(
            EdgeSpec(
                rng.choice(names),
                rng.choice(names),
                sync=f"{channel}?",
                role=REAL,
            )
        )
        return replace(aut, edges=tuple(edges))
    if op == "spurious":
        visible = [c for c in spec.output_channels if c not in spec.env_hidden]
        if not visible:
            return None
        names = [loc.name for loc in aut.locations if not loc.committed]
        source = rng.choice(names)
        guard: Tuple[GuardAtom, ...] = ()
        if spec.clocks and rng.random() < 0.6:
            guard = _interval_guard(rng, rng.choice(spec.clocks), 6)
        edges.append(
            EdgeSpec(
                source,
                rng.choice(names),
                sync=f"{rng.choice(visible)}!",
                clock_guard=guard,
                role=REAL,
            )
        )
        return replace(aut, edges=tuple(edges))
    return None


def _gen_mutant(rng: random.Random, cfg: GenConfig) -> NetSpec:
    base_family = rng.choice(
        ("random", "chain", "ring", "clientserver", "broadcast", "urgent_random")
    )
    base = FAMILIES[base_family](rng, cfg)
    return mutate_spec(base, rng)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

FAMILIES: Dict[str, Callable[[random.Random, GenConfig], NetSpec]] = {
    "random": _gen_random,
    "chain": _gen_chain,
    "ring": _gen_ring,
    "clientserver": _gen_client_server,
    "broadcast": _gen_broadcast,
    "urgent_random": _gen_urgent_random,
    "mutant": _gen_mutant,
}

DEFAULT_FAMILIES: Tuple[str, ...] = tuple(FAMILIES)


def generate_instance(
    seed: int,
    family: Optional[str] = None,
    config: Optional[GenConfig] = None,
) -> GeneratedInstance:
    """Generate one instance; everything derives from ``seed``.

    ``family`` None picks a family from the seed itself, so plain integer
    seeds still cover the whole space.
    """
    cfg = config or GenConfig()
    rng = random.Random(seed)
    if family is None:
        family = rng.choice(DEFAULT_FAMILIES)
    try:
        generator = FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; known: {', '.join(FAMILIES)}"
        ) from None
    spec = replace(generator(rng, cfg), seed=seed)
    return GeneratedInstance(spec=spec, config=cfg)


def mutate_instance(
    seed: int,
    family: Optional[str],
    mutation_seed: int,
    config: Optional[GenConfig] = None,
) -> GeneratedInstance:
    """Regenerate ``(seed, family)`` and apply one seeded mutation.

    The corpus scheduler's unit of work: a corpus entry is identified by
    its generating ``(seed, family)`` pair, and a mutation of it by one
    extra integer — so a mutated instance is reproducible from three
    integers exactly like a base instance is from two.  The mutated spec
    keeps the base seed (checks derive their randomness from it), while
    ``mutate_spec`` stamps the family ``mutant`` and records the operator
    in the name.
    """
    base = generate_instance(seed, family, config)
    rng = random.Random(mutation_seed)
    spec = replace(mutate_spec(base.spec, rng), seed=seed)
    return GeneratedInstance(spec=spec, config=base.config)


def generate_batch(
    count: int,
    seed: int = 0,
    families: Sequence[str] = DEFAULT_FAMILIES,
    config: Optional[GenConfig] = None,
) -> List[GeneratedInstance]:
    """``count`` instances cycling round-robin through ``families``.

    Instance ``i`` uses seed ``seed + i`` and family ``families[i % len]``,
    so any failure is reproducible as ``generate_instance(seed + i,
    family)``.
    """
    return [
        generate_instance(seed + i, families[i % len(families)], config)
        for i in range(count)
    ]
