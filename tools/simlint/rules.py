"""The simlint rule catalog.

Each rule is an :class:`ast`-level check with a stable code (``SIMxxx``), a
one-line summary, and an optional *scope*: a set of path fragments the rule
is restricted to (matched against ``/``-normalised file paths).  Rules are
deliberately simulator-specific — they encode the failure classes that
break determinism and conservation in flow-level simulation:

========  ==================================================================
SIM001    wall-clock time (``time.time``, ``datetime.now``, …) inside the
          simulator or a scheduling policy — simulated time must come from
          the event clock, never the host
SIM002    module-level or unseeded ``random`` / ``numpy.random`` usage —
          randomness must flow through an injected ``random.Random(seed)``
SIM003    iteration over a ``set``/``frozenset``/``dict.keys()`` result
          without ``sorted()`` in allocation/scheduling hot paths —
          iteration order is not part of the language contract, and rate
          assignment must not depend on it
SIM004    float ``==``/``!=`` on simulation timestamps outside the blessed
          tolerance helpers (:mod:`repro.simulator.timecmp`)
SIM005    mutable default arguments (shared state across calls)
========  ==================================================================

Adding a rule: subclass :class:`Rule`, give it a fresh ``code``, implement
:meth:`Rule.check`, and append an instance to :data:`ALL_RULES`.  Document
it in ``docs/static-analysis.md`` and give it a good/bad fixture pair in
``tests/unit/test_simlint.py``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from tools.simlint.findings import Finding

#: Scope shorthand: the two packages the paper's determinism story lives in.
SIMULATOR_SCOPES: Tuple[str, ...] = (
    "repro/simulator",
    "repro/schedulers",
    "repro/core",
)


@dataclass(frozen=True)
class LintContext:
    """Everything a rule needs about one file."""

    path: str  #: ``/``-normalised path, as reported in findings
    tree: ast.Module


class Rule:
    """Base class for simlint rules."""

    code: str = "SIM000"
    name: str = "base"
    description: str = ""
    #: Path fragments the rule is restricted to; empty = every file.
    scopes: Tuple[str, ...] = ()
    #: Path fragments exempt from the rule even when in scope.
    blessed: Tuple[str, ...] = ()

    def applies(self, path: str) -> bool:
        if any(fragment in path for fragment in self.blessed):
            return False
        if not self.scopes:
            return True
        return any(fragment in path for fragment in self.scopes)

    def check(self, ctx: LintContext) -> List[Finding]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def module_aliases(tree: ast.Module) -> Dict[str, Set[str]]:
    """Map module name -> local aliases (``import numpy as np`` → np)."""
    aliases: Dict[str, Set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname if item.asname else item.name.split(".")[0]
                aliases.setdefault(item.name, set()).add(local)
    return aliases


def from_imports(tree: ast.Module) -> Dict[str, Tuple[str, str]]:
    """Map local name -> (source module, original name) for from-imports."""
    out: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            for item in node.names:
                local = item.asname if item.asname else item.name
                out[local] = (node.module, item.name)
    return out


def dotted_parts(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name-rooted chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def terminal_identifier(node: ast.AST) -> Optional[str]:
    """The last identifier of a name/attribute/call expression."""
    if isinstance(node, ast.Call):
        return terminal_identifier(node.func)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


# ----------------------------------------------------------------------
# SIM001 — wall-clock time
# ----------------------------------------------------------------------
class WallClockRule(Rule):
    code = "SIM001"
    name = "wall-clock-time"
    description = (
        "wall-clock time inside the simulator or a scheduling policy; "
        "simulated time must come from the event clock"
    )
    scopes = SIMULATOR_SCOPES

    #: functions of the ``time`` module that read the host clock
    WALL_TIME_FUNCS = frozenset(
        {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "clock_gettime",
            "clock_gettime_ns",
            "localtime",
            "gmtime",
            "ctime",
            "sleep",
        }
    )
    #: wall-clock constructors on ``datetime.datetime`` / ``datetime.date``
    DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

    def check(self, ctx: LintContext) -> List[Finding]:
        findings: List[Finding] = []
        time_aliases = module_aliases(ctx.tree).get("time", set())
        datetime_aliases = module_aliases(ctx.tree).get("datetime", set())
        froms = from_imports(ctx.tree)

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for item in node.names:
                    if item.name in self.WALL_TIME_FUNCS:
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                f"import of wall-clock 'time.{item.name}'",
                            )
                        )
                continue
            parts = dotted_parts(node) if isinstance(node, ast.Attribute) else None
            if parts is None:
                continue
            root = parts[0]
            # time.<wall func>
            if root in time_aliases and len(parts) == 2 and parts[1] in self.WALL_TIME_FUNCS:
                findings.append(
                    self.finding(ctx, node, f"wall-clock call 'time.{parts[1]}'")
                )
            # datetime.datetime.now / datetime.date.today
            elif (
                root in datetime_aliases
                and len(parts) == 3
                and parts[1] in ("datetime", "date")
                and parts[2] in self.DATETIME_FUNCS
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"wall-clock call 'datetime.{parts[1]}.{parts[2]}'",
                    )
                )
            # from datetime import datetime; datetime.now()
            elif (
                len(parts) == 2
                and parts[1] in self.DATETIME_FUNCS
                and froms.get(root, ("", ""))[0] == "datetime"
            ):
                findings.append(
                    self.finding(ctx, node, f"wall-clock call '{root}.{parts[1]}'")
                )
        return findings


# ----------------------------------------------------------------------
# SIM002 — module-level / unseeded randomness
# ----------------------------------------------------------------------
class UnseededRandomRule(Rule):
    code = "SIM002"
    name = "unseeded-random"
    description = (
        "module-level or unseeded randomness; inject a 'random.Random(seed)' "
        "instance instead so every run is reproducible"
    )

    #: names importable from ``random`` that are fine to use
    ALLOWED_FROM_RANDOM = frozenset({"Random"})

    def check(self, ctx: LintContext) -> List[Finding]:
        findings: List[Finding] = []
        aliases = module_aliases(ctx.tree)
        random_aliases = aliases.get("random", set())
        numpy_aliases = aliases.get("numpy", set())

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for item in node.names:
                    if item.name not in self.ALLOWED_FROM_RANDOM:
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                f"import of module-level 'random.{item.name}' "
                                "(global, shared RNG state)",
                            )
                        )
                continue
            if isinstance(node, ast.Call):
                parts = dotted_parts(node.func)
                if parts is None:
                    continue
                root = parts[0]
                if root in random_aliases and len(parts) == 2:
                    if parts[1] == "Random":
                        if not node.args and not node.keywords:
                            findings.append(
                                self.finding(
                                    ctx,
                                    node,
                                    "'random.Random()' without a seed; pass an "
                                    "explicit seed",
                                )
                            )
                    elif parts[1] == "SystemRandom":
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                "'random.SystemRandom' is nondeterministic by "
                                "design",
                            )
                        )
                    else:
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                f"module-level 'random.{parts[1]}' uses the "
                                "global RNG; inject a seeded random.Random",
                            )
                        )
                elif (
                    root in numpy_aliases
                    and len(parts) >= 3
                    and parts[1] == "random"
                ):
                    if parts[2] == "default_rng" and (node.args or node.keywords):
                        continue  # numpy.random.default_rng(seed) is fine
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"'numpy.random.{parts[2]}' uses global or unseeded "
                            "RNG state; use numpy.random.default_rng(seed)",
                        )
                    )
        return findings


# ----------------------------------------------------------------------
# SIM003 — unsorted set / dict.keys() iteration in hot paths
# ----------------------------------------------------------------------
class UnsortedSetIterationRule(Rule):
    code = "SIM003"
    name = "unsorted-set-iteration"
    description = (
        "iteration over a set/frozenset/dict.keys() result without sorted() "
        "in an allocation or scheduling hot path; iteration order is not a "
        "language guarantee and must not influence rate assignment"
    )
    scopes = SIMULATOR_SCOPES

    _SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
    _SET_METHODS = frozenset(
        {"union", "intersection", "difference", "symmetric_difference", "copy"}
    )

    def check(self, ctx: LintContext) -> List[Finding]:
        findings: List[Finding] = []
        # Track, per straight-line scope walk, which simple names are
        # known to hold set-like values.  This is deliberately shallow —
        # it follows single assignments, not data flow — but catches the
        # realistic pattern `candidates = ... ; for x in candidates`.
        set_names: Set[str] = set()

        def is_sety(node: ast.AST) -> bool:
            if isinstance(node, (ast.Set, ast.SetComp)):
                return True
            if isinstance(node, ast.Name):
                return node.id in set_names
            if isinstance(node, ast.IfExp):
                return is_sety(node.body) or is_sety(node.orelse)
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
            ):
                return is_sety(node.left) or is_sety(node.right)
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    return func.id in self._SET_CONSTRUCTORS
                if isinstance(func, ast.Attribute):
                    if func.attr == "keys":
                        return True
                    if func.attr in self._SET_METHODS:
                        return is_sety(func.value)
            return False

        def describe(node: ast.AST) -> str:
            if isinstance(node, (ast.Set, ast.SetComp)):
                return "a set"
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "keys":
                    return "dict.keys()"
            if isinstance(node, ast.Name):
                return f"set-valued name '{node.id}'"
            return "a set expression"

        def flag(iter_node: ast.AST) -> None:
            if is_sety(iter_node):
                findings.append(
                    self.finding(
                        ctx,
                        iter_node,
                        f"iterating {describe(iter_node)} without sorted(); "
                        "wrap in sorted(...) for a deterministic order",
                    )
                )

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                    name = node.targets[0].id
                    if is_sety(node.value):
                        set_names.add(name)
                    else:
                        set_names.discard(name)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.value is not None:
                    if is_sety(node.value):
                        set_names.add(node.target.id)
                    else:
                        set_names.discard(node.target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                flag(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    flag(generator.iter)
        return findings


# ----------------------------------------------------------------------
# SIM004 — float equality on simulation timestamps
# ----------------------------------------------------------------------
class TimestampEqualityRule(Rule):
    code = "SIM004"
    name = "timestamp-float-equality"
    description = (
        "float ==/!= on simulation timestamps; use the tolerance helpers in "
        "repro.simulator.timecmp (times_close / time_before) instead"
    )
    scopes = SIMULATOR_SCOPES
    #: the blessed tolerance helpers themselves may compare exactly
    blessed = ("repro/simulator/timecmp.py",)

    _EXACT_TIMEY = frozenset({"time", "now", "eta", "timestamp", "watermark"})

    def _is_timey(self, node: ast.AST) -> bool:
        name = terminal_identifier(node)
        if name is None:
            return False
        name = name.lstrip("_")
        return name in self._EXACT_TIMEY or name.endswith("_time")

    def check(self, ctx: LintContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(
                isinstance(o, ast.Constant) and o.value is None for o in operands
            ):
                continue  # `x == None` is a different problem, not SIM004
            timey = next((o for o in operands if self._is_timey(o)), None)
            if timey is not None:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"float equality on timestamp "
                        f"'{terminal_identifier(timey)}'; compare with "
                        "repro.simulator.timecmp.times_close",
                    )
                )
        return findings


# ----------------------------------------------------------------------
# SIM005 — mutable default arguments
# ----------------------------------------------------------------------
class MutableDefaultRule(Rule):
    code = "SIM005"
    name = "mutable-default-argument"
    description = "mutable default argument; shared across calls"

    _MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            name = terminal_identifier(node.func)
            return name in self._MUTABLE_CALLS
        return False

    def check(self, ctx: LintContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    label = getattr(node, "name", "<lambda>")
                    findings.append(
                        self.finding(
                            ctx,
                            default,
                            f"mutable default argument in '{label}'; "
                            "use None and construct inside the function",
                        )
                    )
        return findings


#: The rule registry, in code order.
ALL_RULES: Tuple[Rule, ...] = (
    WallClockRule(),
    UnseededRandomRule(),
    UnsortedSetIterationRule(),
    TimestampEqualityRule(),
    MutableDefaultRule(),
)

RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}
