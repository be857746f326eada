"""Determinism lint rules (the ``DET`` family).

Every rule enforces one invariant behind the repo's bit-reproducibility
claim: all randomness flows through ``repro.sim.rng.stream``, no code
reads wall clocks or OS entropy, and nothing that feeds event scheduling,
message emission, or serialization iterates an unordered collection
without an explicit ``sorted(...)``.

Rule ids are stable API: they appear in inline suppressions
(``# repro: allow[DET103]``), in the checked-in baseline, and in CI
output.  See ``docs/determinism.md`` for the rationale of each rule.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from .findings import Finding

__all__ = [
    "ALLOW_SATISFIES",
    "DETERMINISM_RULES",
    "DeterminismVisitor",
    "OBSERVABILITY_RULES",
    "ObservabilityVisitor",
]

#: rule id -> one-line summary (docs, CLI `--rules`, allow[] validation).
DETERMINISM_RULES: Dict[str, str] = {
    "DET101": "wall-clock read (time.time/monotonic/perf_counter, datetime.now, ...)",
    "DET102": "OS entropy source (os.urandom, uuid.uuid1/4, secrets.*, SystemRandom)",
    "DET103": "global/unseeded RNG (random.*, numpy.random.*) outside repro/sim/rng.py",
    "DET201": "iteration over an unordered set without sorted(...)",
    "DET202": "filesystem enumeration (os.listdir, glob, iterdir) without sorted(...)",
    "DET203": "dict-view iteration feeding a scheduling/emission sink without sorted(...)",
    "DET301": "ordering by id()/hash() (memory-address-dependent order)",
    "DET401": "branch condition depends on an environment variable",
}

#: rule id -> one-line summary (the ``OBS`` family).
OBSERVABILITY_RULES: Dict[str, str] = {
    "OBS101": "direct print() in runtime/sim/faults code "
    "(emit through the trace recorder instead)",
    "OBS102": "span id from .begin() discarded or never referenced "
    "(the span can never be finished)",
    "OBS103": "bare wall-clock read in runtime/sim/faults code without a "
    "host-side-telemetry allow annotation",
    "OBS104": "mutating kernel/runtime call inside a read-only inspector "
    "accessor (repro.obs.interactive)",
}

#: Allow-annotation aliasing: an inline ``# repro: allow[X]`` naming any
#: rule in the value set satisfies the key rule too.  OBS103 exists to
#: force wall-clock reads in kernel code to *carry a justification*; the
#: established justification convention is the DET101 allow
#: (``# repro: allow[DET101] -- host-side ... telemetry``), so that
#: annotation is the fix, not a second stacked allow.
ALLOW_SATISFIES: Dict[str, frozenset] = {
    "OBS103": frozenset({"OBS103", "DET101"}),
}

#: Directory fragments whose files must not print directly: these modules
#: run inside the simulation and own the structured-trace contract.
_OBS_GATED = ("repro/runtime/", "repro/sim/", "repro/faults/")

#: Files whose ``*Inspector*`` classes carry the read-only contract
#: (OBS104): every accessor must leave the run byte-identical, so none
#: may call a mutating kernel/runtime API.
_OBS104_GATED = ("repro/obs/interactive",)

#: Method names that mutate simulation, runtime, or recorder state when
#: called on *any* receiver — scheduling events, moving fluid-share
#: clocks, steering the controller, attaching or detaching kernel
#: observers or the clock alarm, closing accounting windows, or writing
#: metrics.  Passive counterparts (``peek``, ``served_now``,
#: ``summary``, ``estimates``, ``stats``, ``totals``) are the inspector
#: vocabulary.  ``schedule*`` is matched by prefix.
_OBS104_MUTATING = frozenset({
    "set_speed", "set_weight", "set_cap", "set_limits", "set_config",
    "send", "succeed", "fail", "interrupt", "submit", "cancel", "put",
    "timeout", "process", "step", "run",
    "sync", "snapshot", "utilization_since",
    "select", "select_initial", "retarget", "force_config",
    "resume_normal", "attach", "detach", "bind", "unbind",
    "install", "inject", "crash", "restore", "finalize", "finish",
    "inc", "observe", "unobserve", "set_alarm", "post", "begin", "end",
    "instant",
})

#: Canonical call targets that read wall clocks.
_WALLCLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock_gettime",
    "time.process_time", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Canonical call targets that draw OS entropy.
_ENTROPY = {
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbits", "secrets.randbelow", "secrets.choice",
    "random.SystemRandom",
}

#: Module prefixes whose *call* use constitutes global/unseeded RNG.
_RNG_PREFIXES = ("random.", "numpy.random.")

#: Files allowed to construct numpy generators directly: the one blessed
#: seed-derivation module.
_RNG_HOME = "repro/sim/rng.py"

#: Calls that enumerate the filesystem in OS-dependent order.
_FS_ENUM = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
_FS_ENUM_ATTRS = {"iterdir", "glob", "rglob"}

#: Attribute/function names that schedule events, emit messages, or
#: serialize state — the sinks whose input order must be canonical.
_ORDER_SINKS = {
    "timeout", "process", "schedule_callback", "put", "send", "succeed",
    "fail", "interrupt", "emit", "publish", "enqueue", "dump", "dumps",
}

_DICT_VIEWS = {"items", "keys", "values"}


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _Aliases:
    """Import-alias table so ``from time import time as t; t()`` resolves."""

    def __init__(self) -> None:
        self._map: Dict[str, str] = {}

    def collect(self, tree: ast.AST) -> "_Aliases":
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self._map[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self._map[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        return self

    def resolve(self, dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        base = self._map.get(head, head)
        return f"{base}.{rest}" if rest else base


class DeterminismVisitor(ast.NodeVisitor):
    """Single-pass AST visitor emitting every DET-family finding."""

    def __init__(self, path: str, is_rng_home: bool = False):
        self.path = path
        self.is_rng_home = is_rng_home
        self.findings: List[Finding] = []
        self.aliases = _Aliases()
        #: Names assigned a syntactic set in the enclosing function scope.
        self._set_names: List[Set[str]] = [set()]
        #: Nodes sanctioned by an enclosing ``sorted(...)`` call.
        self._sorted_args: Set[int] = set()
        #: Nonzero while inside an If/While/IfExp test subtree.
        self._in_test = 0

    # -- entry point ----------------------------------------------------
    def run(self, tree: ast.AST) -> List[Finding]:
        self.aliases.collect(tree)
        self.visit(tree)
        return self.findings

    def _flag(self, rule: str, node: ast.AST, message: str, hint: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                hint=hint,
            )
        )

    # -- scope tracking -------------------------------------------------
    def _visit_function(self, node: ast.AST) -> None:
        self._set_names.append(set())
        self.generic_visit(node)
        self._set_names.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_names[-1].add(target.id)
        self.generic_visit(node)

    # -- helpers --------------------------------------------------------
    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name in ("set", "frozenset"):
                return True
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._set_names)
        return False

    def _is_dict_view(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _DICT_VIEWS
            and not node.args
        )

    def _is_fs_enum(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name = _dotted(node.func)
        if name is not None and self.aliases.resolve(name) in _FS_ENUM:
            return True
        # Pathlib idiom: .iterdir()/.glob()/.rglob() on any receiver.
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _FS_ENUM_ATTRS
        )

    @staticmethod
    def _contains_sink(nodes: List[ast.stmt]) -> bool:
        for stmt in nodes:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    func = sub.func
                    name = (
                        func.attr
                        if isinstance(func, ast.Attribute)
                        else func.id if isinstance(func, ast.Name) else None
                    )
                    if name in _ORDER_SINKS:
                        return True
        return False

    # -- calls: DET101/102/103, DET202, DET301 --------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        resolved = self.aliases.resolve(name) if name else None

        if resolved is not None:
            if resolved in _WALLCLOCK:
                self._flag(
                    "DET101", node,
                    f"wall-clock read: {resolved}()",
                    "use the simulator's virtual clock (sim.now) instead",
                )
            elif resolved in _ENTROPY:
                self._flag(
                    "DET102", node,
                    f"OS entropy source: {resolved}()",
                    "derive randomness from repro.sim.rng.stream(seed, name)",
                )
            elif (
                resolved.startswith(_RNG_PREFIXES) or resolved == "random"
            ) and not self.is_rng_home:
                self._flag(
                    "DET103", node,
                    f"global/unseeded RNG call: {resolved}()",
                    "draw from a named stream: repro.sim.rng.stream(seed, name)",
                )

        if name == "sorted":
            for arg in node.args:
                self._sorted_args.add(id(arg))

        if self._is_fs_enum(node) and id(node) not in self._sorted_args:
            self._flag(
                "DET202", node,
                "filesystem enumeration order is OS-dependent",
                "wrap the call in sorted(...)",
            )

        # DET301: sorted/min/max/.sort keyed on id() or hash().
        sort_name = (
            node.func.attr if isinstance(node.func, ast.Attribute) else name
        )
        if sort_name in ("sorted", "min", "max", "sort"):
            for kw in node.keywords:
                if kw.arg == "key" and self._keys_on_identity(kw.value):
                    self._flag(
                        "DET301", node,
                        f"{sort_name}() keyed on id()/hash(): order depends on "
                        "memory layout / hash randomization",
                        "sort on a stable attribute (name, sequence number)",
                    )
        self.generic_visit(node)

    @staticmethod
    def _keys_on_identity(key: ast.AST) -> bool:
        if isinstance(key, ast.Name) and key.id in ("id", "hash"):
            return True
        if isinstance(key, ast.Lambda):
            for sub in ast.walk(key.body):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id in ("id", "hash")
                ):
                    return True
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        # DET301: ordering comparison between id()/hash() results.
        if any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops):
            operands = [node.left, *node.comparators]
            if sum(1 for o in operands if self._is_identity_call(o)) >= 2:
                self._flag(
                    "DET301", node,
                    "ordering comparison between id()/hash() values",
                    "compare stable keys instead",
                )
        self.generic_visit(node)

    @staticmethod
    def _is_identity_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("id", "hash")
        )

    # -- iteration: DET201, DET203 --------------------------------------
    def _check_iter(self, iter_node: ast.AST, body: List[ast.stmt]) -> None:
        if id(iter_node) in self._sorted_args:
            return
        if isinstance(iter_node, ast.Call) and _dotted(iter_node.func) == "sorted":
            return
        if self._is_set_expr(iter_node):
            self._flag(
                "DET201", iter_node,
                "iteration over an unordered set",
                "iterate sorted(<set>) so traversal order is deterministic",
            )
        elif self._is_dict_view(iter_node) and self._contains_sink(body):
            self._flag(
                "DET203", iter_node,
                "dict-view iteration feeds an event/message/serialization sink",
                "iterate sorted(d.items()) so the sink sees a canonical order",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, node.body)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST) -> None:
        elements = [
            e
            for e in (
                getattr(node, "elt", None),
                getattr(node, "key", None),
                getattr(node, "value", None),
            )
            if e is not None
        ]
        wrappers = [ast.Expr(value=e) for e in elements]
        for gen in node.generators:
            self._check_iter(gen.iter, wrappers)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    # -- env-dependent branches: DET401 ---------------------------------
    def _check_test(self, test: ast.AST) -> None:
        for sub in ast.walk(test):
            resolved = None
            if isinstance(sub, ast.Call):
                name = _dotted(sub.func)
                resolved = self.aliases.resolve(name) if name else None
            dotted = _dotted(sub) if isinstance(sub, ast.Attribute) else None
            if resolved == "os.getenv" or (
                dotted is not None and self.aliases.resolve(dotted) == "os.environ"
            ):
                self._flag(
                    "DET401", sub,
                    "branch condition depends on an environment variable",
                    "thread the setting through an explicit parameter / spec",
                )

    def visit_If(self, node: ast.If) -> None:
        self._check_test(node.test)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._check_test(node.test)
        self.generic_visit(node)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        self._check_test(node.test)
        self.generic_visit(node)

    def visit_Assert(self, node: ast.Assert) -> None:
        self._check_test(node.test)
        self.generic_visit(node)


#: Scope boundaries for the OBS102 leaked-span analysis.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_begin_call(node: ast.AST) -> bool:
    """A ``<recorder>.begin(...)`` call expression."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "begin"
    )


class ObservabilityVisitor(ast.NodeVisitor):
    """The ``OBS`` family: structured-trace hygiene.

    **OBS101** (gated to ``repro/runtime``, ``repro/sim``,
    ``repro/faults``): code there runs *inside* simulated executions.
    Ad-hoc ``print(...)`` bypasses the span/metric trace (so the output
    is invisible to ``repro trace``) and interleaves nondeterministically
    with any real exporter output.  Files elsewhere — CLIs, experiments,
    figure renderers — print freely.

    **OBS102** (everywhere): a span id returned by ``recorder.begin(...)``
    that is immediately discarded, or bound to a local name that is never
    referenced again in the enclosing scope, can never be passed to
    ``end()`` — the span leaks open on every path.  Ids stored on
    attributes/subscripts (``message.span = obs.begin(...)``) escape the
    local scope and are not flagged.

    **OBS103** (gated like OBS101): a wall-clock read in kernel code
    either leaks host time into simulation state (a DET101 bug) or is
    deliberate host-side telemetry — and the two must be visually
    distinguishable at the call site.  The fix for legitimate telemetry
    is the standard annotation, ``# repro: allow[DET101] -- host-side
    ... telemetry``, which satisfies OBS103 too (see
    :data:`ALLOW_SATISFIES`); an *unannotated* read is flagged even
    where plain DET101 linting is not running.

    **OBS104** (gated to ``repro/obs/interactive``): methods of
    ``*Inspector*`` classes are the read-only surface of the interactive
    context — stepped runs with inspection must stay byte-identical to
    uninterrupted ones, so no accessor may call a mutating kernel or
    runtime API (``set_speed``, ``send``, ``succeed``, ``schedule*``,
    ``sync``, ``select``, ...).
    """

    def __init__(self, path: str):
        self.path = path
        self.findings: List[Finding] = []
        self.aliases = _Aliases()
        norm = path.replace("\\", "/")
        self._gated = any(fragment in norm for fragment in _OBS_GATED)
        self._inspector_gated = any(
            fragment in norm for fragment in _OBS104_GATED
        )

    def run(self, tree: ast.AST) -> List[Finding]:
        if self._gated:
            self.aliases.collect(tree)
            self.visit(tree)
        self._check_leaked_spans(tree)
        if self._inspector_gated:
            self._check_inspectors(tree)
        return self.findings

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            self.findings.append(
                Finding(
                    rule="OBS101",
                    path=self.path,
                    line=getattr(node, "lineno", 0),
                    col=getattr(node, "col_offset", 0) + 1,
                    message="direct print() inside simulation code",
                    hint="record a span/instant on sim.obs (repro.obs) "
                    "or return the data to the caller",
                )
            )
        name = _dotted(node.func)
        resolved = self.aliases.resolve(name) if name else None
        if resolved in _WALLCLOCK:
            self.findings.append(
                Finding(
                    rule="OBS103",
                    path=self.path,
                    line=getattr(node, "lineno", 0),
                    col=getattr(node, "col_offset", 0) + 1,
                    message=f"bare wall-clock read in kernel code: {resolved}()",
                    hint="sim state must use the virtual clock (sim.now); "
                    "if this is host-side telemetry, annotate the line: "
                    "# repro: allow[DET101] -- host-side <what> telemetry",
                )
            )
        self.generic_visit(node)

    # -- OBS102: leaked spans -------------------------------------------
    def _check_leaked_spans(self, tree: ast.AST) -> None:
        scopes = [tree] + [
            n for n in ast.walk(tree) if isinstance(n, _SCOPE_NODES)
        ]
        for scope in scopes:
            self._check_scope(scope)

    def _check_scope(self, scope: ast.AST) -> None:
        body = getattr(scope, "body", None)
        if body is None or isinstance(body, ast.expr):  # Lambda: expr body
            return
        # Load-context name uses anywhere under this scope — including
        # nested closures, which legitimately capture a span id.
        loads: Set[str] = {
            n.id
            for n in ast.walk(scope)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for stmt in self._own_statements(body):
            if isinstance(stmt, ast.Expr) and _is_begin_call(stmt.value):
                self._flag_leak(
                    stmt.value,
                    "span id from .begin() is discarded",
                )
            elif isinstance(stmt, ast.Assign) and _is_begin_call(stmt.value):
                targets = stmt.targets
                if len(targets) == 1 and isinstance(targets[0], ast.Name):
                    name = targets[0].id
                    if name not in loads:
                        self._flag_leak(
                            stmt.value,
                            f"span id {name!r} from .begin() is never "
                            "referenced again",
                        )

    @staticmethod
    def _own_statements(body: List[ast.stmt]):
        """Statements of one scope, not descending into nested scopes."""
        stack = list(body)
        while stack:
            stmt = stack.pop()
            yield stmt
            if isinstance(stmt, _SCOPE_NODES):
                continue
            for child in ast.iter_child_nodes(stmt):
                # excepthandler/match_case are statement *containers* that
                # are not themselves ast.stmt; descend through them too.
                if isinstance(child, (ast.stmt, ast.excepthandler)) or (
                    child.__class__.__name__ == "match_case"
                ):
                    stack.append(child)

    # -- OBS104: mutating calls in inspector accessors ------------------
    def _check_inspectors(self, tree: ast.AST) -> None:
        """Inspector classes in gated files must stay strictly passive.

        Any ``<receiver>.<mutator>(...)`` call inside a class whose name
        contains ``Inspector`` is flagged: the receiver could be the
        simulator, a fluid share, the controller, or the recorder, and
        one mutating call breaks the inspection byte-identity guarantee
        (see :mod:`repro.obs.interactive`).  ``schedule*`` names match by
        prefix so new kernel scheduling entry points are covered.
        """
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or "Inspector" not in cls.name:
                continue
            for node in ast.walk(cls):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                ):
                    continue
                attr = node.func.attr
                if attr in _OBS104_MUTATING or attr.startswith("schedule"):
                    self.findings.append(
                        Finding(
                            rule="OBS104",
                            path=self.path,
                            line=getattr(node, "lineno", 0),
                            col=getattr(node, "col_offset", 0) + 1,
                            message=f"mutating call .{attr}(...) inside "
                            f"read-only inspector class {cls.name!r}",
                            hint="inspectors must use passive reads only "
                            "(peek/served_now/summary/estimates/stats); "
                            "mutations belong on InteractiveContext "
                            "interventions",
                        )
                    )

    def _flag_leak(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule="OBS102",
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                hint="keep the id and call end(sid) on every path "
                "(or use the `with recorder.span(...)` context manager)",
            )
        )
