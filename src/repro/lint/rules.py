"""The SIM rule set: determinism and simulation-safety checks.

Each rule is a class with a ``check(ctx)`` generator yielding
:class:`~repro.lint.findings.Finding` objects.  Rules are registered in
:data:`RULES` and documented twice: a one-line ``title`` for listings
and a longer ``rationale`` (with a bad/good example pair) printed by
``python -m repro lint --explain SIMxxx``.

Design notes
------------
The rules are *syntactic*.  There is no type inference beyond a small
per-scope propagation of "this local is set-typed" for SIM004, so each
rule is written to keep false positives near zero on idiomatic code and
to be suppressible (``# simlint: disable=SIMxxx``) where the remaining
ambiguity is judged acceptable.  Python dict iteration is
insertion-ordered (3.7+) and therefore deterministic; only ``set`` /
``frozenset`` iteration order depends on ``PYTHONHASHSEED``, which is
why SIM004 targets sets even though unordered-container bugs are
colloquially blamed on "dict ordering".
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Type

from repro.lint.domains import Domain
from repro.lint.findings import Finding

# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def build_import_map(tree: ast.Module) -> Dict[str, str]:
    """Map local names to dotted origins for every import in ``tree``.

    ``import numpy as np``            → ``{"np": "numpy"}``
    ``from random import Random``     → ``{"Random": "random.Random"}``
    ``from datetime import datetime`` → ``{"datetime": "datetime.datetime"}``
    """
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = origin
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports never shadow stdlib modules
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def qualified_name(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve an attribute chain to a dotted name through the imports.

    Returns ``None`` when the base is not an imported name (locals,
    ``self`` attributes, call results) — the rules only judge what they
    can resolve.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = imports.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def _call_target_name(node: ast.Call) -> Optional[str]:
    """The bare attribute/function name a call dispatches to."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class RuleContext:
    """Everything a rule needs to inspect one module."""

    def __init__(self, path: str, domain: Domain, tree: ast.Module,
                 source: str) -> None:
        self.path = path
        self.domain = domain
        self.tree = tree
        self.source = source
        self.imports = build_import_map(tree)

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule.code,
            message=message,
        )


class Rule:
    """Base class; subclasses set the metadata and implement check()."""

    code: str = ""
    title: str = ""
    domains: Iterable[Domain] = (Domain.SIM,)
    rationale: str = ""
    example_bad: str = ""
    example_good: str = ""

    def applies(self, domain: Domain) -> bool:
        return domain in tuple(self.domains)

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    @classmethod
    def explain(cls) -> str:
        lines = [f"{cls.code}: {cls.title}", "", cls.rationale.strip()]
        if cls.example_bad:
            lines += ["", "Bad:", _indent(cls.example_bad)]
        if cls.example_good:
            lines += ["", "Good:", _indent(cls.example_good)]
        return "\n".join(lines) + "\n"


def _indent(block: str) -> str:
    return "\n".join(f"    {line}" for line in block.strip().splitlines())


# ----------------------------------------------------------------------
# SIM001 — process-global / unseeded RNGs
# ----------------------------------------------------------------------

#: Seeded construction is fine; these numpy entry points are the modern
#: seeded API and are exempt when called with arguments.
_NUMPY_SEEDED = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "PCG64DXSM",
    "Philox", "MT19937", "SFC64", "BitGenerator",
})


class Sim001GlobalRandom(Rule):
    code = "SIM001"
    title = ("no process-global or unseeded RNGs in sim code — draw from "
             "sim.child_rng(tag) or an injected/seeded Random")
    domains = (Domain.SIM,)
    rationale = """
Module-level ``random.*`` calls draw from one hidden process-global
stream, so any unrelated draw (another subsystem, a library, a test
running first) shifts every later value and the trace diverges.  Bare
``random.Random()`` / ``numpy.random.default_rng()`` seed from OS
entropy and differ on every run; ``random.SystemRandom`` is
nondeterministic by design.  The engine's ``sim.child_rng(tag)``
derives an independent stream as a pure function of ``(seed, tag)`` —
use it, or accept an explicitly seeded RNG as a parameter.
"""
    example_bad = """
import random
delay = random.uniform(0.0, jitter)      # global stream
rng = random.Random()                    # OS-entropy seed
"""
    example_good = """
self._rng = sim.child_rng(f"link:{name}")
delay = self._rng.uniform(0.0, jitter)
rng = random.Random(f"{seed}:{tag}")     # explicit seed: reproducible
"""

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = qualified_name(node.func, ctx.imports)
            if qual is None:
                continue
            if qual == "random.Random":
                if not node.args and not node.keywords:
                    yield ctx.finding(
                        self, node,
                        "bare random.Random() seeds from OS entropy; pass an "
                        "explicit seed or use sim.child_rng(tag)")
            elif qual == "random.SystemRandom":
                yield ctx.finding(
                    self, node,
                    "random.SystemRandom is nondeterministic by design; "
                    "sim code must use a seeded RNG")
            elif qual.startswith("random."):
                yield ctx.finding(
                    self, node,
                    f"{qual}() draws from the process-global RNG; use "
                    "sim.child_rng(tag) or an injected random.Random(seed)")
            elif qual.startswith("numpy.random."):
                attr = qual.rsplit(".", 1)[1]
                if attr in _NUMPY_SEEDED:
                    if attr == "default_rng" and not node.args and not node.keywords:
                        yield ctx.finding(
                            self, node,
                            "numpy.random.default_rng() without a seed is "
                            "fresh OS entropy per call; pass a seed")
                else:
                    yield ctx.finding(
                        self, node,
                        f"{qual}() uses numpy's process-global RNG; use "
                        "numpy.random.default_rng(seed)")


# ----------------------------------------------------------------------
# SIM002 — wall-clock time
# ----------------------------------------------------------------------

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


class Sim002WallClock(Rule):
    code = "SIM002"
    title = ("no wall-clock reads in sim code — all time flows from "
             "sim.now (harness dirs fleet/, cli.py, benchmarks/ exempt)")
    domains = (Domain.SIM,)
    rationale = """
Simulated time is ``sim.now``, full stop.  A wall-clock read inside the
sim domain couples results to host speed and scheduling: traces stop
replaying, fleet shard caches (content-addressed by campaign spec, not
by machine) go stale silently, and byte-identical serial/pool
aggregation breaks.  Harness code — the CLI's progress/ETA line, the
fleet pool's worker timeouts, benchmarks — measures real elapsed time
on purpose and lives on an allowlist (see repro.lint.domains).
"""
    example_bad = """
t0 = time.monotonic()          # host-dependent
stamp = datetime.now()         # differs every run
"""
    example_good = """
t0 = self.sim.now              # simulated seconds, reproducible
"""

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = qualified_name(node.func, ctx.imports)
            if qual in _WALL_CLOCK:
                yield ctx.finding(
                    self, node,
                    f"{qual}() reads the wall clock; sim code must use "
                    "sim.now (harness code belongs under fleet/, cli.py or "
                    "benchmarks/)")


# ----------------------------------------------------------------------
# SIM003 — nondeterministic child_rng tags
# ----------------------------------------------------------------------

_UNSTABLE_BUILTINS = frozenset({"id", "hash", "repr", "vars", "dir"})


class Sim003UnstableRngTag(Rule):
    code = "SIM003"
    title = ("child_rng tags must be stable strings — id()/hash()/repr() "
             "vary across processes")
    domains = (Domain.SIM, Domain.HARNESS)
    rationale = """
``sim.child_rng(tag)`` makes the stream a pure function of
``(seed, tag)`` — but only if the tag itself is stable.  ``id(obj)`` is
a memory address, ``hash(str)`` is salted per process
(PYTHONHASHSEED), and a default ``repr`` embeds the id; a tag built
from any of these gives every process (and every rerun) a different
stream, which is exactly the bug the discipline exists to prevent.
This applies in the harness too: the fleet runner derives shard seeds
with the same ``(seed, tag)`` recipe.  The check sees through nesting
(f-string format specs, ``str.format`` arguments) and one level of
local indirection (``tag = f"x:{id(o)}"`` followed by
``sim.child_rng(tag)``).
"""
    example_bad = """
rng = sim.child_rng(f"flow:{id(self)}")
rng = sim.child_rng(str(hash(name)))
tag = "flow:{}".format(id(self))
rng = sim.child_rng(tag)                    # indirection doesn't help
"""
    example_good = """
rng = sim.child_rng(f"flow:{self.name}")    # stable, human-readable
"""

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        scopes: List[ast.AST] = [ctx.tree]
        scopes += [n for n in ast.walk(ctx.tree)
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in scopes:
            assignments = self._single_assignments(scope)
            for node in self._scope_nodes(scope):
                if not isinstance(node, ast.Call):
                    continue
                if _call_target_name(node) != "child_rng":
                    continue
                pieces: List[ast.AST] = list(node.args)
                pieces += [kw.value for kw in node.keywords]
                for arg in pieces:
                    culprit = self._unstable_part(arg)
                    if culprit is None:
                        culprit = self._unstable_via_name(arg, assignments)
                    if culprit is not None:
                        yield ctx.finding(
                            self, node,
                            f"child_rng tag depends on {culprit}, which "
                            "varies across processes/runs; build tags from "
                            "stable names")
                        break

    @staticmethod
    def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without descending into nested function defs."""
        body = scope.body if hasattr(scope, "body") else []
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    @classmethod
    def _single_assignments(cls, scope: ast.AST) -> Dict[str, ast.AST]:
        """Names bound by exactly one plain assignment in ``scope``."""
        counts: Dict[str, int] = {}
        values: Dict[str, ast.AST] = {}
        for node in cls._scope_nodes(scope):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AugAssign):
                targets, value = [node.target], None
            for target in targets:
                if isinstance(target, ast.Name):
                    counts[target.id] = counts.get(target.id, 0) + 1
                    if value is not None:
                        values[target.id] = value
        return {name: values[name] for name, n in counts.items()
                if n == 1 and name in values}

    @classmethod
    def _unstable_via_name(cls, arg: ast.AST,
                           assignments: Dict[str, ast.AST]) -> Optional[str]:
        """One level of indirection: a Name whose sole assignment is
        built from an unstable call."""
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Name) and sub.id in assignments:
                culprit = cls._unstable_part(assignments[sub.id])
                if culprit is not None:
                    return f"{culprit} (via {sub.id!r})"
        return None

    @staticmethod
    def _unstable_part(arg: ast.AST) -> Optional[str]:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Call):
                func = sub.func
                if isinstance(func, ast.Name) and func.id in _UNSTABLE_BUILTINS:
                    return f"{func.id}()"
                if isinstance(func, ast.Attribute) and func.attr == "__repr__":
                    return "__repr__()"
            elif isinstance(sub, ast.Attribute) and sub.attr == "__repr__":
                return "__repr__"
        return None


# ----------------------------------------------------------------------
# SIM004 — unordered iteration feeding order-sensitive sinks
# ----------------------------------------------------------------------

#: Calls whose argument/invocation order is observable in traces or
#: aggregates: the event queue (seq numbers!), heaps, ordered
#: accumulators.
_ORDER_SINKS = frozenset({
    "schedule", "schedule_at", "call_later", "call_at", "heappush",
    "append", "appendleft", "push", "record", "enqueue", "emit", "send",
    "observe", "add_flow",
})

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})


class Sim004UnorderedIteration(Rule):
    code = "SIM004"
    title = ("don't feed set iteration order into schedule()/ordered "
             "accumulators — wrap the set in sorted()")
    domains = (Domain.SIM,)
    rationale = """
``set`` iteration order depends on insertion history *and* on the
per-process string-hash salt (PYTHONHASHSEED), so two processes — e.g.
a fleet worker and a byte-identical in-process run — can walk the
same set differently.  Harmless for commutative folds (unions, sums),
fatal when the order reaches an order-sensitive sink: ``schedule()``
assigns tie-breaking sequence numbers in call order, and list-building
(``append``, list comprehensions, ``list(...)``) bakes the order into
aggregates.  ``sorted(the_set)`` makes the order explicit and
deterministic.  Dict iteration is insertion-ordered in Python 3.7+ and
is therefore not flagged.

The check is syntactic: it flags iteration over expressions it can see
are sets (literals, ``set()``/``frozenset()`` calls, set operators on
those, and locals assigned from them) when the loop body calls an
order-sensitive sink, and ``list()``/``tuple()``/list-comprehension
materialization of such sets.
"""
    example_bad = """
for node in failed_nodes:                 # a set
    sim.schedule(delay, node.restart)     # order -> event seq numbers
order = [n.name for n in reachable]       # a set -> ordered list
"""
    example_good = """
for node in sorted(failed_nodes, key=lambda n: n.name):
    sim.schedule(delay, node.restart)
order = sorted(n.name for n in reachable)
"""

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        scopes: List[ast.AST] = [ctx.tree]
        scopes += [n for n in ast.walk(ctx.tree)
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in scopes:
            set_names = self._set_locals(scope)
            for node in self._scope_nodes(scope):
                yield from self._check_node(ctx, node, set_names)

    @staticmethod
    def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without descending into nested function defs."""
        body = scope.body if hasattr(scope, "body") else []
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _set_locals(self, scope: ast.AST) -> Set[str]:
        """Names assigned *only* set-typed expressions within ``scope``."""
        assigned: Dict[str, bool] = {}

        def note(name: str, is_set: bool) -> None:
            assigned[name] = assigned.get(name, True) and is_set

        for node in self._scope_nodes(scope):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    note(target.id, self._is_set_expr(value, set()))
        return {name for name, is_set in assigned.items() if is_set}

    def _is_set_expr(self, node: ast.AST, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
                return True
            if (isinstance(func, ast.Attribute) and func.attr in _SET_METHODS
                    and self._is_set_expr(func.value, set_names)):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self._is_set_expr(node.left, set_names)
                    or self._is_set_expr(node.right, set_names))
        return False

    def _check_node(self, ctx: RuleContext, node: ast.AST,
                    set_names: Set[str]) -> Iterator[Finding]:
        if isinstance(node, ast.For):
            if (self._is_set_expr(node.iter, set_names)
                    and self._body_hits_sink(node.body)):
                yield ctx.finding(
                    self, node,
                    "iterating a set feeds an order-sensitive sink "
                    "(schedule/append/...); wrap the set in sorted()")
        elif isinstance(node, ast.ListComp):
            if any(self._is_set_expr(gen.iter, set_names)
                   for gen in node.generators):
                yield ctx.finding(
                    self, node,
                    "list comprehension over a set bakes hash order into "
                    "an ordered result; use sorted(...)")
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id in ("list", "tuple")
                    and len(node.args) == 1 and not node.keywords
                    and self._is_set_expr(node.args[0], set_names)):
                yield ctx.finding(
                    self, node,
                    f"{func.id}(set) materializes hash order; use "
                    "sorted(...) for a deterministic sequence")

    @staticmethod
    def _body_hits_sink(body: List[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if (isinstance(node, ast.Call)
                        and _call_target_name(node) in _ORDER_SINKS):
                    return True
        return False


# ----------------------------------------------------------------------
# SIM005 — float equality on sim time
# ----------------------------------------------------------------------

_TIME_ATTRS = frozenset({"now", "sim_time"})
_TIME_NAMES = frozenset({"now", "sim_time", "t_now"})


class Sim005FloatTimeEquality(Rule):
    code = "SIM005"
    title = "no ==/!= on sim-time floats — use <=, >=, or an epsilon"
    domains = (Domain.SIM,)
    rationale = """
Sim timestamps are floats accumulated through additions
(``now + delay + jitter``); exact equality silently turns into "never
true" the moment a rate or delay changes from a dyadic to a non-dyadic
value, and the guard degrades to an off-by-one-event bug that only
shows up in some scenarios.  Compare with ``<=`` / ``>=`` against a
boundary, or use an explicit epsilon / event-count check when "exactly
at t" is really meant.
"""
    example_bad = """
if self.sim.now == 0.0:        # float equality on accumulated time
    self._bootstrap()
"""
    example_good = """
if self.sim.now <= 0.0:        # boundary comparison, same intent
    self._bootstrap()
"""

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            if any(self._is_timelike(op) for op in operands):
                yield ctx.finding(
                    self, node,
                    "float ==/!= on a sim-time value; use <=/>= or an "
                    "epsilon comparison")

    @staticmethod
    def _is_timelike(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in _TIME_ATTRS
        if isinstance(node, ast.Name):
            return node.id in _TIME_NAMES
        return False


# ----------------------------------------------------------------------
# SIM006 — mutable default arguments
# ----------------------------------------------------------------------

_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
    "OrderedDict",
})


class Sim006MutableDefault(Rule):
    code = "SIM006"
    title = "no mutable default arguments in sim code"
    domains = (Domain.SIM,)
    rationale = """
A mutable default (``def f(x, acc=[])``) is evaluated once at import
and shared by every call — state leaks across simulator instances and
across fleet shards running in one worker process, so shard results
depend on which shards the worker happened to run before.  Use ``None``
and construct inside the function, or ``dataclasses.field(default_factory=...)``.
"""
    example_bad = """
def run(self, hooks=[]):
    hooks.append(self._default_hook)   # grows forever, shared
"""
    example_good = """
def run(self, hooks=None):
    hooks = list(hooks) if hooks else []
"""

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults)
            defaults += [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if self._is_mutable(default):
                    yield ctx.finding(
                        self, default,
                        "mutable default argument is shared across calls; "
                        "default to None and construct inside")

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            return name in _MUTABLE_CALLS
        return False


# ----------------------------------------------------------------------
# Whole-program rules (SIM007–SIM010)
# ----------------------------------------------------------------------
#
# These run against the :class:`~repro.lint.project.Project` model
# (one-parse symbol table + call graph over every linted file) instead
# of a single module, so they can see interprocedural facts the
# per-file rules cannot: who passes a seeded RNG to whom, which two
# call sites can build the same tag string, what a fleet worker can
# reach, and what ends up inside a checkpoint deepcopy.  Each rule
# filters by *module* domain internally (the driver hands them the
# whole project).


class ProjectRule(Rule):
    """Base for whole-program rules; implement :meth:`check_project`."""

    #: Project rules see every module and decide domain relevance per
    #: finding, so the per-file ``applies()`` gate always passes.
    domains = (Domain.SIM, Domain.HARNESS)

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project) -> Iterator[Finding]:
        raise NotImplementedError

    def project_finding(self, mod, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=mod.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.code,
            message=message,
        )


class Sim007RngProvenance(ProjectRule):
    code = "SIM007"
    title = ("seeded RNGs must stay seeded — no process-global fallback "
             "in functions that receive a child_rng, no escape into "
             "module-level storage")
    rationale = """
A function that *receives* a seeded RNG (a ``sim.child_rng(tag)``
stream, tracked interprocedurally through assignments, call arguments,
returns and ``self.attr`` stores) has already opted into the
determinism contract — drawing from the process-global ``random``
module in the same body, or constructing a fresh unseeded ``Random()``
as a fallback (``rng = rng or random.Random()``), silently mixes a
nondeterministic stream into a deterministic one.  The second failure
mode is *escape*: binding a seeded RNG into module-level storage (a
module global, a module-level dict, a class attribute at import time)
turns a per-run stream into process state — under the fleet's warm
fork workers, every shard the worker runs afterwards continues the
same stream, so shard results depend on scheduling order.
"""
    example_bad = """
def jitter(rng):                   # callers pass sim.child_rng(...)
    return rng.random() + random.random()   # global fallback

_RNG = random.Random(1234)         # module-level: shared across shards
"""
    example_good = """
def jitter(rng):
    return 2.0 * rng.random()      # only the injected stream

class Link:
    def __init__(self, sim, name):
        self._rng = sim.child_rng(f"link:{name}")   # per-instance
"""

    def check_project(self, project) -> Iterator[Finding]:
        from repro.lint.flow import TaintAnalysis

        taint = TaintAnalysis(project)
        for fn, node, pname, detail in taint.global_random_fallbacks():
            mod = project.modules[fn.module]
            if mod.domain is not Domain.SIM:
                continue
            yield self.project_finding(
                mod, node,
                f"{fn.name}() receives a seeded RNG (parameter {pname!r}) "
                f"but also draws from {detail}; use only the injected "
                "stream")
        for mod, node, desc in taint.module_storage_escapes():
            if mod.domain is not Domain.SIM:
                continue
            yield self.project_finding(mod, node, desc)


class Sim008TagCollision(ProjectRule):
    code = "SIM008"
    title = ("child_rng tags must be collision-free — two call sites "
             "that can build the same tag share one stream")
    rationale = """
``sim.child_rng(tag)`` derives the stream from ``(seed, tag)`` alone,
so two call sites that can construct the *same* tag string get
byte-identical random streams — every draw correlated, silently, with
no crash.  This rule folds each tag expression into a pattern of
literal characters and holes (f-strings, ``+``, ``%``-formatting,
``str.format``, one level of local indirection; holes that are
parameters fold to constants when every resolved call site passes
one), then reports pairs of distinct call sites whose patterns can
intersect.  Namespace your tags: a distinct literal prefix per
subsystem (``"scale.cell.{id}"`` vs ``"scale.promote.{id}"``) is what
keeps the patterns disjoint.  Fully-dynamic tags (a bare parameter)
are never reported — the rule refuses to guess.
"""
    example_bad = """
self.rx_rng = sim.child_rng(f"radio:{cell}")
self.tx_rng = sim.child_rng(f"radio:{cell}")   # same (seed, tag)!
"""
    example_good = """
self.rx_rng = sim.child_rng(f"radio.rx:{cell}")
self.tx_rng = sim.child_rng(f"radio.tx:{cell}")
"""

    def check_project(self, project) -> Iterator[Finding]:
        from repro.lint.flow import TagIndex

        index = TagIndex(project)
        for site_a, site_b in index.collisions():
            mod = project.modules_by_path.get(site_b.path)
            if mod is None:
                continue
            shown = sorted({p.render() for p in site_a.patterns
                            if not p.is_pure_hole()})
            yield Finding(
                path=site_b.path, line=site_b.line, col=site_b.col,
                rule=self.code,
                message=(f"child_rng tag can collide with the call at "
                         f"{site_a.path}:{site_a.line} (pattern "
                         f"{' | '.join(shown)}); colliding tags share one "
                         "RNG stream — add a distinct literal prefix"))


class Sim009ForkSharedState(ProjectRule):
    code = "SIM009"
    title = ("no module-level mutable state mutated from sim code "
             "reachable by fleet workers — warm fork workers leak it "
             "across shards")
    rationale = """
The fleet's warm workers (PR7) run *many* shards per process: anything
a shard writes into module-level storage — a module dict/list, a
mutable class attribute — is still there when the next shard runs, so
results depend on which shards a worker happened to execute first, and
the serial/pool byte-identity gate breaks in ways the per-shard cache
then *preserves*.  This rule walks the call graph from the fleet
worker entry points (``run_shard``, ``_execute_batch``,
``_worker_init``, registered scenario functions) and flags sim-domain
code on those paths that mutates module-level containers or
class-level attributes never rebound per instance.  Import-time
initialization (module body) is exempt — each process imports once,
deterministically.  When a project has no fleet entry points at all
(a standalone file), every function is treated as reachable.
"""
    example_bad = """
_CACHE = {}

def lookup(sim, key):              # reachable from run_shard
    if key not in _CACHE:
        _CACHE[key] = expensive(sim, key)   # leaks across shards
    return _CACHE[key]
"""
    example_good = """
class Catalog:
    def __init__(self):
        self._cache = {}           # per-instance, dies with the shard

    def lookup(self, sim, key): ...
"""

    #: Fleet worker entry points: the functions a pool worker executes.
    WORKER_ENTRY_NAMES = frozenset({
        "run_shard", "_execute_batch", "_worker_init",
    })
    SCENARIO_DECORATORS = frozenset({"register_scenario"})

    _MUTATORS = frozenset({
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "appendleft",
        "extendleft", "__setitem__",
    })

    def check_project(self, project) -> Iterator[Finding]:
        roots = self._roots(project)
        standalone = not roots
        if standalone:
            reachable = set(project.functions)
        else:
            reachable = project.reachable_from(roots, include_weak=True)
        via = ("any caller (no fleet entry points in scope)" if standalone
               else "a fleet worker entry point")
        for qual in sorted(reachable):
            fn = project.functions.get(qual)
            if fn is None:
                continue
            mod = project.modules[fn.module]
            if mod.domain is not Domain.SIM:
                continue
            yield from self._check_function(project, mod, fn, via)

    def _roots(self, project) -> List[str]:
        roots = []
        for qual, fn in project.functions.items():
            if fn.name in self.WORKER_ENTRY_NAMES:
                roots.append(qual)
            elif set(fn.decorators) & self.SCENARIO_DECORATORS:
                roots.append(qual)
        return sorted(roots)

    def _check_function(self, project, mod, fn, via: str) -> Iterator[Finding]:
        from repro.lint.flow import _assigned_names
        from repro.lint.project import _walk_no_nested

        local_names = _assigned_names(fn.node)
        global_decls: Set[str] = set()
        for node in _walk_no_nested(fn.node):
            if isinstance(node, ast.Global):
                global_decls.update(node.names)
        for node in _walk_no_nested(fn.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    desc = self._store_target(project, mod, fn, target,
                                              local_names, global_decls)
                    if desc:
                        yield self.project_finding(
                            mod, node,
                            f"{desc} is mutated here and reachable from "
                            f"{via}; warm fork workers leak it across "
                            "shards — keep state per-instance")
            elif isinstance(node, ast.Call):
                desc = self._mutating_call(project, mod, fn, node,
                                           local_names, global_decls)
                if desc:
                    yield self.project_finding(
                        mod, node,
                        f"{desc} is mutated here and reachable from "
                        f"{via}; warm fork workers leak it across shards "
                        "— keep state per-instance")

    def _store_target(self, project, mod, fn, target: ast.AST,
                      local_names: Set[str],
                      global_decls: Set[str]) -> Optional[str]:
        if isinstance(target, ast.Name):
            if target.id in global_decls:
                gvar = mod.globals.get(target.id)
                qual = gvar.qual if gvar else f"{mod.module}.{target.id}"
                return f"module global {qual}"
            return None
        if isinstance(target, ast.Subscript):
            return self._container_base(project, mod, fn, target.value,
                                        local_names, global_decls,
                                        "[...]")
        return None

    def _mutating_call(self, project, mod, fn, call: ast.Call,
                       local_names: Set[str],
                       global_decls: Set[str]) -> Optional[str]:
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in self._MUTATORS):
            return None
        return self._container_base(project, mod, fn, func.value,
                                    local_names, global_decls,
                                    f".{func.attr}(...)")

    def _container_base(self, project, mod, fn, base: ast.AST,
                        local_names: Set[str], global_decls: Set[str],
                        op: str) -> Optional[str]:
        if isinstance(base, ast.Name):
            name = base.id
            if name in fn.params:
                return None
            if name in local_names and name not in global_decls:
                return None
            gvar = project.global_for_name(mod, name)
            if gvar is not None and gvar.mutable:
                return f"module-level container {gvar.qual}{op}"
            return None
        if isinstance(base, ast.Attribute) and isinstance(base.value,
                                                          ast.Name):
            owner = base.value.id
            attr = base.attr
            if owner == "self":
                cinfo = project.owning_class(fn)
                if (cinfo is not None and attr in cinfo.class_attrs
                        and cinfo.class_attrs[attr].mutable
                        and attr not in cinfo.instance_attrs):
                    return (f"class-level container "
                            f"{cinfo.qual}.{attr}{op}")
                return None
            resolved = project.resolve_local(mod, (owner,))
            cinfo = project.class_of(resolved) if resolved else None
            if (cinfo is not None and attr in cinfo.class_attrs
                    and cinfo.class_attrs[attr].mutable):
                return f"class-level container {cinfo.qual}.{attr}{op}"
        return None


class Sim010CheckpointSafety(ProjectRule):
    code = "SIM010"
    title = ("no generators, open files, locks, or deepcopy-dropped "
             "controller types on classes inside Checkpoint deepcopy "
             "roots")
    rationale = """
``Checkpoint(sim, roots)`` snapshots with ``copy.deepcopy`` — so every
field on every class reachable from the roots must survive a deepcopy
*and mean the same thing afterwards*.  Three ways that fails:
generators / ``iter(...)`` results and open OS resources (files,
sockets, locks) either crash the deepcopy or alias live state into the
snapshot; and a type that some reachable class's ``__deepcopy__``
deliberately *drops* (PR6's ``ReplayController`` bug class) silently
vanishes on restore — assign such a type anywhere *except* the field
designed to drop it, and a restored run diverges from the recorded
one.  The rule resolves checkpoint root classes from
``*.checkpoint(...)`` / ``Checkpoint(...)`` call sites (through
return types, including a name-based fallback for dynamic harness
dispatch), closes over field types, and checks every field store.
``itertools.count()`` is deliberately allowed: it deepcopies and
pickles fine (the engine's own event sequencer uses one).
"""
    example_bad = """
class Session:                      # reachable from checkpoint roots
    def __init__(self, sim, frames):
        self._pending = (f for f in frames)    # generator: deepcopy
        self._log = open("session.log", "w")   # crashes or aliases
"""
    example_good = """
class Session:
    def __init__(self, sim, frames):
        self._pending = list(frames)           # plain data snapshots
        self._log_path = "session.log"         # reopen on demand
"""

    _RESOURCE_CALLS = {
        "open": "an open file",
        "io.open": "an open file",
        "io.FileIO": "an open file",
        "io.BufferedReader": "an open file",
        "io.BufferedWriter": "an open file",
        "io.TextIOWrapper": "an open file",
        "socket.socket": "a live socket",
        "socket.create_connection": "a live socket",
        "tempfile.TemporaryFile": "an open temp file",
        "tempfile.NamedTemporaryFile": "an open temp file",
        "tempfile.SpooledTemporaryFile": "an open temp file",
        "threading.Lock": "a lock",
        "threading.RLock": "a lock",
        "threading.Condition": "a lock",
        "threading.Semaphore": "a lock",
        "threading.BoundedSemaphore": "a lock",
        "threading.Event": "a lock-backed event",
        "multiprocessing.Lock": "a lock",
        "multiprocessing.RLock": "a lock",
    }

    def check_project(self, project) -> Iterator[Finding]:
        roots = self._root_classes(project)
        if not roots:
            return
        closure = self._field_closure(project, roots)
        dropped, excluded = self._deepcopy_exclusions(project, closure)
        for cls_qual in sorted(closure):
            cinfo = project.class_of(cls_qual)
            if cinfo is None:
                continue
            mod = project.modules[cinfo.module]
            for method in cinfo.methods.values():
                yield from self._check_stores(
                    project, mod, method, cinfo, dropped, excluded)
        # Exterior stores: obj.field = Excluded(...) where obj's class
        # is in the closure.
        yield from self._check_exterior_stores(
            project, closure, dropped, excluded)

    # -- roots ---------------------------------------------------------
    def _root_classes(self, project) -> Set[str]:
        from repro.lint.project import _walk_no_nested

        roots: Set[str] = set()
        for fn in project.functions.values():
            mod = project.modules[fn.module]
            env = project._local_env(fn)
            for node in _walk_no_nested(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                if self._is_checkpoint_call(project, mod, node):
                    for arg in node.args:
                        roots |= self._arg_classes(project, mod, fn, env,
                                                   arg)
        return roots

    def _is_checkpoint_call(self, project, mod, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "checkpoint":
            return True
        if isinstance(func, ast.Name):
            origin = mod.imports.get(func.id, "")
            if origin.endswith(".Checkpoint") or func.id == "Checkpoint":
                return True
        return False

    def _arg_classes(self, project, mod, fn, env, arg: ast.AST) -> Set[str]:
        from repro.lint.project import _walk_no_nested

        out: Set[str] = set()
        if isinstance(arg, ast.Name):
            out |= env.get(arg.id, set())
            if not out:
                # The local env only sees constructor/annotation types;
                # trace the name to its assignment for the dynamic
                # cases (world = harness.make_world(seed)).
                for node in _walk_no_nested(fn.node):
                    if (isinstance(node, ast.Assign)
                            and any(isinstance(t, ast.Name)
                                    and t.id == arg.id
                                    for t in node.targets)
                            and isinstance(node.value, ast.Call)):
                        out |= self._arg_classes(project, mod, fn, env,
                                                 node.value)
        elif isinstance(arg, (ast.Tuple, ast.List)):
            for elt in arg.elts:
                out |= self._arg_classes(project, mod, fn, env, elt)
        elif isinstance(arg, ast.Call):
            out |= project._constructed_classes(mod, arg)
            if not out:
                # Dynamic dispatch (harness.make_world(...)): name-based
                # fallback over every project method with that name.
                func = arg.func
                if isinstance(func, ast.Attribute):
                    for mq in project._methods_by_name.get(func.attr, ()):
                        out |= project._return_classes(mq)
        elif isinstance(arg, ast.Attribute):
            if (isinstance(arg.value, ast.Name) and arg.value.id == "self"
                    and fn.class_qual):
                cinfo = project.class_of(fn.class_qual)
                if cinfo:
                    out |= cinfo.attr_types.get(arg.attr, set())
        return out

    # -- closure & exclusions ------------------------------------------
    def _field_closure(self, project, roots: Set[str]) -> Set[str]:
        seen: Set[str] = set()
        queue = sorted(roots)
        while queue:
            qual = queue.pop()
            if qual in seen:
                continue
            seen.add(qual)
            cinfo = project.class_of(qual)
            if cinfo is None:
                continue
            for types in cinfo.attr_types.values():
                for t in types:
                    if t not in seen:
                        queue.append(t)
        return seen

    def _deepcopy_exclusions(self, project, closure: Set[str]):
        """``(dropped, excluded)``: fields a ``__deepcopy__`` never
        carries over, and the types stored in those fields."""
        from repro.lint.project import _walk_no_nested

        dropped: Set[tuple] = set()       # (class qual, attr)
        excluded: Dict[str, str] = {}     # type qual -> dropping "C.attr"
        for qual in sorted(closure):
            cinfo = project.class_of(qual)
            if cinfo is None or "__deepcopy__" not in cinfo.methods:
                continue
            body = cinfo.methods["__deepcopy__"].node
            mentioned: Set[str] = set()
            for node in _walk_no_nested(body):
                if isinstance(node, ast.Attribute):
                    mentioned.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(
                        node.value, str):
                    mentioned.add(node.value)
            for attr in sorted(set(cinfo.instance_attrs)
                               | set(cinfo.attr_types)):
                if attr not in mentioned:
                    dropped.add((qual, attr))
                    for t in cinfo.attr_types.get(attr, ()):
                        excluded.setdefault(t, f"{cinfo.name}.{attr}")
        return dropped, excluded

    # -- field stores --------------------------------------------------
    def _check_stores(self, project, mod, method, cinfo,
                      dropped, excluded) -> Iterator[Finding]:
        from repro.lint.project import _walk_no_nested

        for node in _walk_no_nested(method.node):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                yield from self._judge_store(
                    project, mod, method, cinfo.qual, cinfo.name,
                    target.attr, node, dropped, excluded)

    def _check_exterior_stores(self, project, closure,
                               dropped, excluded) -> Iterator[Finding]:
        from repro.lint.project import _walk_no_nested

        for qual in sorted(project.functions):
            fn = project.functions[qual]
            mod = project.modules[fn.module]
            env = project._local_env(fn)
            for node in _walk_no_nested(fn.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    owners = self._owner_classes(project, fn, env,
                                                 target.value)
                    for owner in sorted(owners & closure):
                        cinfo = project.class_of(owner)
                        if cinfo is None or fn.class_qual == owner:
                            continue
                        yield from self._judge_store(
                            project, mod, fn, owner, cinfo.name,
                            target.attr, node, dropped, excluded)

    def _owner_classes(self, project, fn, env, base: ast.AST) -> Set[str]:
        if isinstance(base, ast.Name):
            return set(env.get(base.id, set()))
        if (isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)):
            for owner in env.get(base.value.id, set()):
                cinfo = project.class_of(owner)
                if cinfo is not None:
                    return set(cinfo.attr_types.get(base.attr, set()))
        return set()

    def _judge_store(self, project, mod, fn, cls_qual, cls_name, attr,
                     node: ast.Assign, dropped,
                     excluded) -> Iterator[Finding]:
        if (cls_qual, attr) in dropped:
            # Stores into the dropping field itself are the designed
            # opt-out: __deepcopy__ intentionally does not carry it.
            return
        desc = self._unsafe_value(project, mod, fn, node.value, excluded)
        if desc:
            yield self.project_finding(
                mod, node,
                f"field {cls_name}.{attr} is reachable from a Checkpoint "
                f"deepcopy root but holds {desc}; checkpoint/restore "
                "will fail or silently diverge")

    def _unsafe_value(self, project, mod, fn, value: ast.AST,
                      excluded: Dict[str, str]) -> Optional[str]:
        if isinstance(value, ast.GeneratorExp):
            return "a generator expression (deepcopy cannot snapshot it)"
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        if isinstance(func, ast.Name) and func.id == "iter":
            return "a live iterator (iter(...))"
        qual = qualified_name(func, mod.imports)
        if qual is None and isinstance(func, ast.Name):
            qual = func.id if func.id == "open" else None
        if qual in self._RESOURCE_CALLS:
            return self._RESOURCE_CALLS[qual]
        # Calls to project generator functions.
        env = project._local_env(fn)
        for callee in project._resolve_call(fn, env, value) or ():
            target = project.function_of(callee)
            if target is not None and target.has_yield:
                return (f"a generator (call to yield-function "
                        f"{target.name}())")
        # Deepcopy-excluded types.
        chain = None
        from repro.lint.project import attribute_chain
        chain = attribute_chain(func)
        if chain:
            resolved = project.resolve_local(mod, chain)
            if resolved in excluded:
                dropper = excluded[resolved]
                return (f"an instance of {resolved.rsplit('.', 1)[-1]}, "
                        f"which {dropper}'s __deepcopy__ drops — it "
                        "vanishes on restore")
        return None


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_RULE_CLASSES: List[Type[Rule]] = [
    Sim001GlobalRandom,
    Sim002WallClock,
    Sim003UnstableRngTag,
    Sim004UnorderedIteration,
    Sim005FloatTimeEquality,
    Sim006MutableDefault,
    Sim007RngProvenance,
    Sim008TagCollision,
    Sim009ForkSharedState,
    Sim010CheckpointSafety,
]

RULES: Dict[str, Rule] = {cls.code: cls() for cls in _RULE_CLASSES}

#: Codes of the whole-program rules (driven once per project, not per
#: file).
PROJECT_RULE_CODES = frozenset(
    cls.code for cls in _RULE_CLASSES if issubclass(cls, ProjectRule))


def all_rules() -> List[Rule]:
    return [RULES[code] for code in sorted(RULES)]
