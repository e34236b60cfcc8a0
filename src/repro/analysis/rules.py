"""The project-invariant rules (R1–R3, R5–R10).

Each rule encodes one architectural invariant of the serving design.
They are deliberately *project-specific*: generic linters
cannot know that ``graph.derived`` writers must register an
invalidation prefix, or that ``trace()`` inside the engine's batch
loop costs the disabled path real allocations.  See each rule's
``rationale`` (``python -m repro.analysis --explain R1``) for the
incident or roadmap item that motivated it.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.core import Finding, Project, Rule, SourceModule, dotted_name

#: Retired engine toggles: each selected a second implementation arm
#: that has since been deleted.  Declaring one again as a loose kwarg
#: would regrow the arm-selection surface outside ``ExecutionConfig``.
LEGACY_TOGGLES = ("use_csr", "scc_incremental", "rset_bitset")
#: ``optimized`` is the paper's TopK/TopKnopt visiting order; it only
#: counts as legacy surface when it appears alongside a ``config=``
#: parameter (the wrapper signature), where ``ExecutionConfig.adapt``
#: must settle which of the two wins.
OPTIMIZED = "optimized"

#: Structural DeltaOp kinds — ``set_attrs`` is exempt by design: it
#: changes no structure, and the label-based structural caches stay
#: valid (``Graph.set_attrs`` docstring).
STRUCTURAL_KINDS = frozenset({"ADD_NODE", "ADD_EDGE", "REMOVE_EDGE", "REMOVE_NODE"})

#: Ambient-collector accessors of :mod:`repro.obs` — return ``None``
#: when the corresponding instrumentation is disabled.
AMBIENT_ACCESSORS = frozenset({"current_tracer", "current_metrics"})
#: The convenience hooks that consult the ambient contextvar per call.
AMBIENT_HOOKS = frozenset({"trace", "span_event"})
#: Packages whose inner loops are the serving hot path (R3 scope).
HOT_PATH_PACKAGES = (
    "repro/topk/",
    "repro/simulation/",
    "repro/session/",
)

#: The gradually-typed core (R6 scope): fully annotated, mypy-strict.
TYPED_CORE = (
    "repro/session/",
    "repro/obs/",
    "repro/index/",
    "repro/graph/delta.py",
    "repro/api.py",
    "repro/analysis/",
    "repro/incremental/affected.py",
)

#: Packages whose registries/pools are mutated from threaded paths
#: (R8 scope): the metrics registry and the session's worker-pool
#: lifecycle both run under concurrent callers.
CONCURRENCY_PACKAGES = (
    "repro/obs/",
    "repro/session/",
)

#: Container methods that mutate their receiver in place (R8).
MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "extend",
        "insert",
        "remove",
        "discard",
        "clear",
        "update",
        "setdefault",
        "pop",
        "popitem",
    }
)

#: Modules whose cache keys must fold in snapshot tokens (R9 scope).
TOKEN_KEY_MODULES = ("session/cache.py", "graph/csr.py")
#: Registered token sources: a key tuple that incorporates a snapshot
#: must also call one of these on it (or read a token/generation).
TOKEN_SOURCE_CALLS = frozenset({"bucket_token", "live_token"})
TOKEN_SOURCE_ATTRS = frozenset({"token", "generation"})

#: Non-bool ExecutionConfig fields that still select an optimized arm
#: (R10): fan-out counts where 0/1 means "serial path".
TOGGLE_ARM_EXTRAS = ("workers",)
#: Config fields that are *observability* switches rather than
#: optimized-arm selectors never need an equivalence oracle — but the
#: live ones all have one anyway, so nothing is exempt today.
TOGGLE_EXEMPT: frozenset[str] = frozenset()


def _in_packages(module: SourceModule, packages: Iterable[str]) -> bool:
    rel = module.rel_path
    return any(
        rel.endswith(entry) if entry.endswith(".py") else entry in rel
        for entry in packages
    )


def _function_defs(
    module: SourceModule,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _all_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.arg]:
    args = node.args
    return [*args.posonlyargs, *args.args, *args.kwonlyargs]


def _params_with_defaults(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[tuple[ast.arg, ast.expr]]:
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    out: list[tuple[ast.arg, ast.expr]] = []
    for arg, default in zip(positional[len(positional) - len(args.defaults) :], args.defaults):
        out.append((arg, default))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            out.append((arg, default))
    return out


class InvalidationSoundness(Rule):
    """R1 — structural mutations invalidate; derived writers register."""

    id = "R1"
    title = "invalidation soundness"
    rationale = (
        "Every structural-mutation method of Graph must call "
        "_invalidate_caches() before its first structural change event, "
        "and every module writing graph.derived[...] must use a key "
        "whose prefix is registered in "
        "repro.index.invalidation.STRUCTURAL_KEY_PREFIXES — otherwise a "
        "mutation leaves the entry live and a later read serves state "
        "from a previous graph generation."
    )
    reference = (
        "CHANGES.md PR 2: remove_node cached a CSR snapshot with the "
        "node still live (the stale-snapshot bug this rule machine-"
        "checks); ROADMAP 'Delta-aware snapshot patching' multiplies "
        "the derived-key surface."
    )

    #: Methods that emit structural events without owning the mutation:
    #: none today — delegating bulk helpers (``add_nodes``,
    #: ``apply_delta``) contain no *direct* ``_emit`` and fall out
    #: naturally.

    def check(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        if module.rel_path.endswith("graph/digraph.py"):
            yield from self._check_mutators(module)
        elif not module.rel_path.endswith("index/invalidation.py"):
            yield from self._check_derived_writers(module, project)

    # -- part A: digraph mutators ------------------------------------
    def _check_mutators(self, module: SourceModule) -> Iterator[Finding]:
        for func in _function_defs(module):
            emit_line = self._first_structural_emit(func)
            if emit_line is None:
                continue
            guard_line = self._invalidate_call_line(func)
            if guard_line is None:
                yield self.finding(
                    module,
                    func,
                    f"structural mutator {func.name}() emits a structural "
                    "DeltaOp but never calls self._invalidate_caches()",
                    f"mutator-missing-invalidate:{func.name}",
                )
            elif guard_line > emit_line:
                yield self.finding(
                    module,
                    func,
                    f"structural mutator {func.name}() emits its structural "
                    "DeltaOp (line %d) before self._invalidate_caches() "
                    "(line %d) — listeners observe the change while stale "
                    "caches are still live" % (emit_line, guard_line),
                    f"mutator-late-invalidate:{func.name}",
                )

    def _first_structural_emit(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> int | None:
        """Line of the first direct ``self._emit(DeltaOp(<structural>))``."""
        first: int | None = None
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee != "self._emit" or not node.args:
                continue
            op = node.args[0]
            if not (
                isinstance(op, ast.Call)
                and isinstance(op.func, ast.Name)
                and op.func.id == "DeltaOp"
                and op.args
            ):
                continue
            kind = op.args[0]
            if isinstance(kind, ast.Name) and kind.id in STRUCTURAL_KINDS:
                if first is None or node.lineno < first:
                    first = node.lineno
        return first

    def _invalidate_call_line(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> int | None:
        """Line of the first *unconditional* ``self._invalidate_caches()``.

        Only statements directly in the function body count — a call
        nested under an ``if`` may be skipped on some exit path.
        """
        for stmt in func.body:
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and dotted_name(stmt.value.func) == "self._invalidate_caches"
            ):
                return stmt.lineno
        return None

    # -- part B: graph.derived writers -------------------------------
    def _check_derived_writers(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        prefixes = self._registered_prefixes(project)
        for node, key_expr in self._derived_writes(module):
            key = project.fold_key(module, key_expr)
            if key is None:
                yield self.finding(
                    module,
                    node,
                    "write to graph.derived with a key the analyzer cannot "
                    "resolve to a registered invalidation prefix — use a "
                    "module-level string constant built from a prefix in "
                    "repro.index.invalidation.STRUCTURAL_KEY_PREFIXES",
                    "derived-key-unresolvable",
                )
            elif prefixes and not key.startswith(prefixes):
                yield self.finding(
                    module,
                    node,
                    f"graph.derived key {key!r} is not covered by any "
                    "registered invalidation prefix "
                    f"{sorted(prefixes)} — a structural mutation will "
                    "leave this entry stale",
                    f"derived-key-unregistered:{key}",
                )

    def _registered_prefixes(self, project: Project) -> tuple[str, ...]:
        inv = project.find_module("index/invalidation.py")
        if inv is None:
            return ()
        for node in inv.tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "STRUCTURAL_KEY_PREFIXES"
                and isinstance(node.value, (ast.Tuple, ast.List))
            ):
                prefixes = []
                for element in node.value.elts:
                    folded = project.fold_key(inv, element)
                    if folded is not None:
                        prefixes.append(folded)
                return tuple(prefixes)
        return ()

    def _derived_writes(
        self, module: SourceModule
    ) -> Iterator[tuple[ast.AST, ast.expr]]:
        for node in ast.walk(module.tree):
            # graph.derived[key] = ... / graph.derived[key] |= ...
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Attribute)
                        and target.value.attr == "derived"
                    ):
                        yield node, target.slice
            # graph.derived.setdefault(key, ...)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "setdefault"
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "derived"
                    and node.args
                ):
                    yield node, node.args[0]


class ConfigDiscipline(Rule):
    """R2 — toggles flow through ``ExecutionConfig``, not loose kwargs."""

    id = "R2"
    title = "config discipline"
    rationale = (
        "Execution settings live in ExecutionConfig.  A wrapper that "
        "accepts the paper's optimized= kwarg next to config= must "
        "funnel both through ExecutionConfig.adapt(), the one place "
        "that rejects an explicit kwarg mixed with config= instead of "
        "silently discarding one of them.  The retired arm toggles "
        "(use_csr, scc_incremental, rset_bitset) may not come back as "
        "loose kwargs with local defaulting logic."
    )
    reference = (
        "CHANGES.md PR 5: 'the three copies of toggle defaulting deleted "
        "from the wrappers'; a new toggle (the roadmap's anytime "
        "deadline) must join ExecutionConfig, not the kwargs surface."
    )

    def check(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        if module.rel_path.endswith("session/config.py"):
            return
        # Module-local funnels: functions whose body reaches adapt()
        # directly.  One level of indirection is enough for the facade
        # pattern (api._adapt_options); deeper chains should not exist.
        funnels = {
            func.name
            for func in _function_defs(module)
            if self._calls_adapt(func)
        }
        for func in _function_defs(module):
            declared = {arg.arg for arg, _ in _params_with_defaults(func)}
            legacy = declared & set(LEGACY_TOGGLES)
            if OPTIMIZED in declared and "config" in {
                a.arg for a in _all_params(func)
            }:
                legacy.add(OPTIMIZED)
            if not legacy:
                continue
            if not self._calls_adapt(func, funnels):
                yield self.finding(
                    module,
                    func,
                    f"{func.name}() declares legacy toggle kwargs "
                    f"({', '.join(sorted(legacy))}) without funnelling "
                    "them through ExecutionConfig.adapt() — the "
                    "deprecation adapter in repro/session/config.py is "
                    "the only place the legacy surface may be interpreted",
                    f"legacy-kwargs:{func.name}:{','.join(sorted(legacy))}",
                )

    @staticmethod
    def _calls_adapt(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        funnels: frozenset[str] | set[str] = frozenset(),
    ) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = dotted_name(node.func)
                if callee is not None and callee.endswith("ExecutionConfig.adapt"):
                    return True
                if isinstance(node.func, ast.Attribute) and node.func.attr == "adapt":
                    base = dotted_name(node.func.value)
                    if base in {"cls", "ExecutionConfig"}:
                        return True
                if isinstance(node.func, ast.Name) and node.func.id in funnels:
                    return True
        return False


class ObsNoOpGuarantee(Rule):
    """R3 — disabled observability costs nothing on the hot path."""

    id = "R3"
    title = "obs no-op guarantee"
    rationale = (
        "The serving path ships with instrumentation hooks compiled in; "
        "the contract (benchmarks/bench_obs_overhead.py fails CI beyond "
        "5%) is that with tracing/metrics disabled they are strict "
        "no-ops.  Three things break that: calling methods directly on "
        "current_tracer()/current_metrics() (None when disabled — "
        "crashes or forces allocation), using an ambient collector "
        "without an `is not None` guard, and calling trace()/"
        "span_event() inside a loop (each call pays a contextvar read "
        "plus a kwargs dict even when disabled — hot loops must resolve "
        "the tracer once outside and guard on it)."
    )
    reference = (
        "CHANGES.md PR 6: 'all strictly no-op when disabled' + the "
        "bench_obs_overhead CI guard; the top-k engine opens its "
        "spans around phases, never per visited match "
        "(tests/obs/test_disabled_trace_cost.py)."
    )

    def check(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        if not _in_packages(module, HOT_PATH_PACKAGES):
            return
        ambient_names = {
            name
            for name, origin in module.imports.items()
            if origin.rpartition(".")[2] in AMBIENT_ACCESSORS
        } | AMBIENT_ACCESSORS
        hook_names = {
            name
            for name, origin in module.imports.items()
            if origin.startswith("repro.obs") and origin.rpartition(".")[2] in AMBIENT_HOOKS
        }
        yield from self._check_chained_calls(module, ambient_names)
        yield from self._check_unguarded_collectors(module, ambient_names)
        yield from self._check_unguarded_spans(module, hook_names)
        yield from self._check_hooks_in_loops(module, hook_names)

    # -- current_tracer().x(...) --------------------------------------
    def _check_chained_calls(
        self, module: SourceModule, ambient_names: set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in ambient_names
            ):
                yield self.finding(
                    module,
                    node,
                    f"{node.value.func.id}() is None when disabled — bind "
                    "it to a variable and guard with `is not None` instead "
                    "of chaining a method call",
                    f"chained-ambient:{node.value.func.id}",
                )

    # -- registry = current_metrics(); registry.counter(...) ----------
    def _check_unguarded_collectors(
        self, module: SourceModule, ambient_names: set[str]
    ) -> Iterator[Finding]:
        for func in _function_defs(module):
            collectors = self._collector_bindings(func, ambient_names)
            if not collectors:
                continue
            for node in ast.walk(func):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                target = dotted_name(node.func.value)
                if target not in collectors:
                    continue
                if not self._guarded_by(module, node, target):
                    yield self.finding(
                        module,
                        node,
                        f"call on ambient collector `{target}` without an "
                        f"enclosing `if {target} is not None` guard — the "
                        "disabled path would crash or allocate",
                        f"unguarded-collector:{target}.{node.func.attr}",
                    )

    def _collector_bindings(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        ambient_names: set[str],
    ) -> set[str]:
        """Dotted names bound (anywhere in scope) from an ambient accessor."""
        bound: set[str] = set()
        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            callee = node.value.func
            if isinstance(callee, ast.Name) and callee.id in ambient_names:
                for target in node.targets:
                    name = dotted_name(target)
                    if name is not None:
                        bound.add(name)
        return bound

    def _guarded_by(self, module: SourceModule, node: ast.AST, target: str) -> bool:
        for test in module.guarding_tests(node):
            for sub in ast.walk(test):
                if dotted_name(sub) == target:
                    return True
        return False

    # -- with trace(...) as span: span.set_attr(...) ------------------
    def _check_unguarded_spans(
        self, module: SourceModule, hook_names: set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.With):
                continue
            span_vars: set[str] = set()
            for item in node.items:
                call = item.context_expr
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id in hook_names
                    and call.func.id == "trace"
                    and item.optional_vars is not None
                ):
                    name = dotted_name(item.optional_vars)
                    if name is not None:
                        span_vars.add(name)
            if not span_vars:
                continue
            for sub in ast.walk(node):
                if not (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)):
                    continue
                target = dotted_name(sub.func.value)
                if target in span_vars and not self._guarded_by(module, sub, target):
                    yield self.finding(
                        module,
                        sub,
                        f"`{target}` is None when tracing is disabled — "
                        f"guard `{target}.{sub.func.attr}(...)` with "
                        f"`if {target} is not None`",
                        f"unguarded-span:{target}.{sub.func.attr}",
                    )

    # -- trace()/span_event() inside for/while ------------------------
    def _check_hooks_in_loops(
        self, module: SourceModule, hook_names: set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in hook_names
            ):
                continue
            if module.enclosing_loop(node) is None:
                continue
            yield self.finding(
                module,
                node,
                f"{node.func.id}() inside a loop pays a contextvar read "
                "and a kwargs dict per iteration even when disabled — "
                "resolve the tracer once outside the loop "
                "(`tracer = current_tracer()`) and guard the span on "
                "`tracer is not None`",
                f"hook-in-loop:{node.func.id}",
            )


class FrozenAndDefaults(Rule):
    """R5 — no mutable default args, no frozen-dataclass mutation."""

    id = "R5"
    title = "mutable defaults / frozen mutation"
    rationale = (
        "A mutable default argument is shared across every call — "
        "cross-query state leaking through a signature is exactly the "
        "bug class the session/config split exists to prevent.  Frozen "
        "dataclasses (ExecutionConfig, DeltaOp, QuerySpec) are hashed "
        "into cache keys (SessionCache, the session result store); "
        "mutating one in place (attribute assignment or "
        "object.__setattr__ outside the defining class) silently "
        "corrupts every cache entry keyed on it."
    )
    reference = (
        "CHANGES.md PR 5: ExecutionConfig is a cache-key component of "
        "the session result store; repro/session/cache.py keys "
        "artifacts structurally."
    )

    MUTABLE_FACTORY = frozenset({"list", "dict", "set", "bytearray"})

    def check(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        yield from self._check_defaults(module)
        yield from self._check_frozen_mutation(module, project)

    def _check_defaults(self, module: SourceModule) -> Iterator[Finding]:
        for func in _function_defs(module):
            for arg, default in _params_with_defaults(func):
                if self._is_mutable(default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default for parameter `{arg.arg}` of "
                        f"{func.name}() — shared across calls; default to "
                        "None and construct inside the body",
                        f"mutable-default:{func.name}:{arg.arg}",
                    )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self.MUTABLE_FACTORY
        )

    def _check_frozen_mutation(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        frozen_classes = _frozen_dataclasses(project)
        if not frozen_classes:
            return
        for func in _function_defs(module):
            owner = module.parents.get(func)
            owner_class = owner.name if isinstance(owner, ast.ClassDef) else None
            instances = self._frozen_bindings(func, frozen_classes)
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in instances
                        ):
                            cls = instances[target.value.id]
                            yield self.finding(
                                module,
                                node,
                                f"assignment to `{target.value.id}.{target.attr}` "
                                f"mutates frozen dataclass {cls} — use "
                                "dataclasses.replace()",
                                f"frozen-mutation:{cls}.{target.attr}",
                            )
                elif (
                    isinstance(node, ast.Call)
                    and dotted_name(node.func) == "object.__setattr__"
                    and owner_class not in frozen_classes
                ):
                    yield self.finding(
                        module,
                        node,
                        "object.__setattr__ outside a frozen dataclass's own "
                        "methods bypasses immutability — use "
                        "dataclasses.replace()",
                        "frozen-setattr-escape",
                    )

    def _frozen_bindings(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        frozen_classes: set[str],
    ) -> dict[str, str]:
        """Local names provably bound to frozen-dataclass instances."""
        bindings: dict[str, str] = {}
        for arg in _all_params(func):
            annotation = arg.annotation
            if annotation is not None:
                name = _annotation_class(annotation)
                if name in frozen_classes:
                    bindings[arg.arg] = name
        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            callee = dotted_name(node.value.func)
            if callee is None:
                continue
            cls = callee.split(".")[0]
            if callee in frozen_classes or (
                cls in frozen_classes and callee.endswith((".adapt", ".resolved"))
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bindings[target.id] = cls if cls in frozen_classes else callee
        return bindings


def _annotation_class(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotations like "ExecutionConfig | None".
        head = node.value.split("|")[0].strip()
        return head.split(".")[-1] or None
    return None


def _frozen_dataclasses(project: Project) -> set[str]:
    # Memoized on the project: this is a full-tree walk over every
    # module, and R5 consults it once per module checked.
    cached = getattr(project, "_r5_frozen_classes", None)
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    found: set[str] = set()
    for module in project.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                if not (
                    isinstance(decorator, ast.Call)
                    and dotted_name(decorator.func) in {"dataclass", "dataclasses.dataclass"}
                ):
                    continue
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "frozen"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        found.add(node.name)
    project._r5_frozen_classes = found  # type: ignore[attr-defined]
    return found


class TypedCore(Rule):
    """R6 — the typed core stays fully annotated."""

    id = "R6"
    title = "typed-core annotation coverage"
    rationale = (
        "repro/session/, repro/obs/, repro/index/, repro/graph/delta.py "
        "and repro/api.py are the mypy-strict set (mypy.ini): the "
        "public serving surface plus the cache/invalidation machinery "
        "where a type confusion becomes a wrong answer, not a crash.  "
        "Every function there must annotate all parameters and its "
        "return so mypy --strict has no Any holes and downstream users "
        "of the py.typed package get real checking."
    )
    reference = (
        "ISSUE 7 gradual-typing pass; mypy.ini [mypy-repro.session.*] "
        "etc. — CI runs mypy on exactly this set."
    )

    def check(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        if not _in_packages(module, TYPED_CORE):
            return
        for func in _function_defs(module):
            missing: list[str] = []
            params = _all_params(func)
            for index, arg in enumerate(params):
                if index == 0 and arg.arg in {"self", "cls"}:
                    continue
                if arg.annotation is None:
                    missing.append(arg.arg)
            for star in (func.args.vararg, func.args.kwarg):
                if star is not None and star.annotation is None:
                    missing.append(("*" if star is func.args.vararg else "**") + star.arg)
            if func.returns is None:
                missing.append("return")
            if missing:
                yield self.finding(
                    module,
                    func,
                    f"{func.name}() in the typed core is missing "
                    f"annotations for: {', '.join(missing)}",
                    f"missing-annotations:{func.name}:{','.join(missing)}",
                )


# ----------------------------------------------------------------------
# R7 — pickle/spawn safety
# ----------------------------------------------------------------------

#: Attribute/slot names that must never cross a process boundary: they
#: hold process-local machinery (locks, weakrefs, listener lists,
#: derived caches, executors) that either fails to pickle or silently
#: detaches from its process of origin.
PICKLE_RISKY_EXACT = frozenset({"__weakref__", "derived", "extensions"})
PICKLE_RISKY_SUFFIXES = (
    "_cache",
    "_listeners",
    "_invalidators",
    "_finalizers",
    "_executor",
    "_pool",
    "_pools",
)
#: ``threading`` constructors whose instances are unpicklable.
UNPICKLABLE_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore"}
)


def _pickle_risky(name: str) -> bool:
    lowered = name.lower()
    return (
        name in PICKLE_RISKY_EXACT
        or "lock" in lowered
        or lowered.endswith(PICKLE_RISKY_SUFFIXES)
    )


class _ClassInfo:
    """One class's pickle-relevant shape (R7's cross-module unit)."""

    def __init__(self, module: SourceModule, node: ast.ClassDef) -> None:
        self.module = module
        self.node = node
        self.base_names = [
            name
            for name in (dotted_name(base) for base in node.bases)
            if name is not None
        ]
        self.slots: tuple[str, ...] | None = None
        self.transient_expr: ast.expr | None = None
        self.has_own_getstate = False
        self.getstate_def: ast.FunctionDef | ast.AsyncFunctionDef | None = None
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "__slots__":
                    self.slots = _str_tuple_literal(stmt.value)
                elif target.id == "_TRANSIENT_SLOTS":
                    self.transient_expr = stmt.value
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name == "__getstate__":
                    self.has_own_getstate = True
                    self.getstate_def = stmt


def _str_tuple_literal(node: ast.expr) -> tuple[str, ...] | None:
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    names: list[str] = []
    for element in node.elts:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            names.append(element.value)
        else:
            return None
    return tuple(names)


class PickleSpawnSafety(Rule):
    """R7 — state shipped across the process boundary pickles cleanly."""

    id = "R7"
    title = "pickle/spawn safety"
    rationale = (
        "The spawn-based serving tier ships graphs to worker processes "
        "by value (WorkerPool init payloads), and CSR snapshots keep a "
        "pickle form for the same boundary.  A __getstate__-bearing "
        "class must list every process-local slot — locks, weakrefs, "
        "listener/invalidator lists, derived caches, executors — in its "
        "_TRANSIENT_SLOTS (or pop the attribute in __getstate__): a "
        "pickled lock raises at dispatch time, and a pickled cache or "
        "listener list silently detaches from its process of origin.  "
        "Pool submit sites must pass module-level callables: a lambda "
        "or nested function fails to pickle under spawn, and so does a "
        "non-module ProcessPoolExecutor initializer."
    )
    reference = (
        "CHANGES.md PR 8: the spawn-safe worker tier (module-level "
        "initializers, _TRANSIENT_SLOTS on CSRSnapshot/Graph); PR 9 "
        "ships PatchedCSRSnapshot through the same boundary and "
        "inherits the transient list."
    )

    def check(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        table = _project_class_table(project)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                info = table.get(node.name)
                if info is not None and info.node is node:
                    yield from self._check_class(module, info, table)
        yield from self._check_pool_payloads(module)

    # -- transient-slot coverage --------------------------------------
    def _check_class(
        self,
        module: SourceModule,
        info: _ClassInfo,
        table: dict[str, _ClassInfo],
    ) -> Iterator[Finding]:
        if not _has_getstate(info, table):
            return
        transient = _resolve_transient(info, table)
        if info.slots is not None:
            for slot in info.slots:
                if _pickle_risky(slot) and (
                    transient is None or slot not in transient
                ):
                    yield self.finding(
                        module,
                        info.node,
                        f"slot `{slot}` of pickled class {info.node.name} "
                        "holds process-local state but is not listed in "
                        "_TRANSIENT_SLOTS — it would be shipped across "
                        "the process boundary",
                        f"pickled-risky-slot:{info.node.name}.{slot}",
                    )
        elif info.has_own_getstate:
            # Dict-based classes: unpicklable attributes assigned in
            # __init__ must be dropped by __getstate__ (via the
            # transient list or an explicit pop/del of the name).
            for attr, assign in self._unpicklable_attrs(info.node):
                handled = (
                    transient is not None and attr in transient
                ) or self._getstate_mentions(info, attr)
                if not handled:
                    yield self.finding(
                        module,
                        assign,
                        f"attribute `{attr}` of pickled class "
                        f"{info.node.name} holds process-local state but "
                        "__getstate__ never drops it",
                        f"pickled-risky-attr:{info.node.name}.{attr}",
                    )

    def _unpicklable_attrs(
        self, node: ast.ClassDef
    ) -> Iterator[tuple[str, ast.AST]]:
        for stmt in node.body:
            if not (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name == "__init__"
            ):
                continue
            for sub in ast.walk(stmt):
                if not (isinstance(sub, ast.Assign) and len(sub.targets) == 1):
                    continue
                target = sub.targets[0]
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                if _pickle_risky(target.attr):
                    yield target.attr, sub
                elif isinstance(sub.value, ast.Call):
                    callee = dotted_name(sub.value.func)
                    if (
                        callee is not None
                        and callee.rpartition(".")[2] in UNPICKLABLE_FACTORIES
                    ):
                        yield target.attr, sub

    def _getstate_mentions(self, info: _ClassInfo, attr: str) -> bool:
        getstate = info.getstate_def
        if getstate is None:
            return False
        for sub in ast.walk(getstate):
            if isinstance(sub, ast.Constant) and sub.value == attr:
                return True
            if isinstance(sub, ast.Attribute) and sub.attr == attr:
                return True
        return False

    # -- lambda/local payloads at pool submit sites -------------------
    def _check_pool_payloads(self, module: SourceModule) -> Iterator[Finding]:
        for func in _function_defs(module):
            local_defs = {
                stmt.name
                for stmt in ast.walk(func)
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt is not func
            }
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                yield from self._check_submit(module, node, local_defs)
                yield from self._check_initializer(module, node, local_defs)

    def _check_submit(
        self, module: SourceModule, node: ast.Call, local_defs: set[str]
    ) -> Iterator[Finding]:
        if not (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in {"submit", "map"}
        ):
            return
        base = dotted_name(node.func.value) or ""
        tail = base.rpartition(".")[2].lower()
        if "pool" not in tail and "executor" not in tail:
            return
        payload = node.args[0] if node.args else None
        if isinstance(payload, ast.Lambda):
            yield self.finding(
                module,
                payload,
                f"lambda payload at pool {node.func.attr}() site — "
                "unpicklable under the spawn start method; use a "
                "module-level function",
                f"lambda-to-pool:{node.func.attr}",
            )
        elif isinstance(payload, ast.Name) and payload.id in local_defs:
            yield self.finding(
                module,
                payload,
                f"locally defined function `{payload.id}` submitted to a "
                "pool — unpicklable under the spawn start method; hoist "
                "it to module level",
                f"local-def-to-pool:{payload.id}",
            )

    def _check_initializer(
        self, module: SourceModule, node: ast.Call, local_defs: set[str]
    ) -> Iterator[Finding]:
        callee = dotted_name(node.func)
        if callee is None or not callee.endswith("ProcessPoolExecutor"):
            return
        for keyword in node.keywords:
            if keyword.arg != "initializer":
                continue
            value = keyword.value
            if isinstance(value, ast.Lambda) or (
                isinstance(value, ast.Name) and value.id in local_defs
            ):
                yield self.finding(
                    module,
                    value,
                    "ProcessPoolExecutor initializer must be a module-"
                    "level function — spawn workers import it by "
                    "qualified name",
                    "nonmodule-initializer",
                )


def _project_class_table(project: Project) -> dict[str, _ClassInfo]:
    table = getattr(project, "_r7_class_table", None)
    if table is None:
        table = {}
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    table[node.name] = _ClassInfo(module, node)
        project._r7_class_table = table  # type: ignore[attr-defined]
    return table  # type: ignore[no-any-return]


def _has_getstate(
    info: _ClassInfo,
    table: dict[str, _ClassInfo],
    _seen: frozenset[str] = frozenset(),
) -> bool:
    if info.has_own_getstate:
        return True
    for base in info.base_names:
        name = base.rpartition(".")[2]
        parent = table.get(name)
        if parent is not None and name not in _seen:
            if _has_getstate(parent, table, _seen | {name}):
                return True
    return False


def _resolve_transient(
    info: _ClassInfo,
    table: dict[str, _ClassInfo],
    _seen: frozenset[str] = frozenset(),
) -> frozenset[str] | None:
    """The class's effective ``_TRANSIENT_SLOTS``, chased through bases.

    Handles literal tuples, ``Base._TRANSIENT_SLOTS`` references and
    ``Base._TRANSIENT_SLOTS + (...)`` concatenations; returns ``None``
    when the expression is beyond the analyzer (the class is then given
    the benefit of the doubt).
    """
    if info.transient_expr is not None:
        return _fold_transient_expr(info.transient_expr, table, _seen)
    for base in info.base_names:
        name = base.rpartition(".")[2]
        parent = table.get(name)
        if parent is not None and name not in _seen:
            resolved = _resolve_transient(parent, table, _seen | {name})
            if resolved is not None:
                return resolved
    return frozenset()


def _fold_transient_expr(
    expr: ast.expr,
    table: dict[str, _ClassInfo],
    _seen: frozenset[str],
) -> frozenset[str] | None:
    literal = _str_tuple_literal(expr)
    if literal is not None:
        return frozenset(literal)
    if isinstance(expr, ast.Attribute) and expr.attr == "_TRANSIENT_SLOTS":
        base = dotted_name(expr.value)
        if base is not None:
            name = base.rpartition(".")[2]
            parent = table.get(name)
            if parent is not None and name not in _seen:
                return _resolve_transient(parent, table, _seen | {name})
        return None
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        left = _fold_transient_expr(expr.left, table, _seen)
        right = _fold_transient_expr(expr.right, table, _seen)
        if left is not None and right is not None:
            return left | right
    return None


# ----------------------------------------------------------------------
# R8 — lock discipline
# ----------------------------------------------------------------------


class LockDiscipline(Rule):
    """R8 — shared attributes guarded somewhere are guarded everywhere."""

    id = "R8"
    title = "lock discipline"
    rationale = (
        "Registries and pools in the concurrency packages (repro/obs/, "
        "repro/session/) are mutated from threaded paths: metric "
        "series under scrapes, the session's worker-pool triple under "
        "refresh-vs-dispatch.  The discipline is lockset-lite: if "
        "any mutation of an attribute (or module-level registry) in a "
        "module holds the lock, *every* mutation outside __init__ must "
        "— an unguarded check-then-set next to a guarded one is exactly "
        "the shape of the PR 8 registry races.  Methods named *_locked "
        "are callee-guarded by convention (the caller holds the lock)."
    )
    reference = (
        "CHANGES.md PR 8: 'MetricsRegistry mutators became thread-safe "
        "for the merge path' — the worker-pool lookup shipped with the "
        "same unlocked get-or-create shape and was fixed under this "
        "rule."
    )

    def check(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        if not _in_packages(module, CONCURRENCY_PACKAGES):
            return
        registries = self._module_registries(module)
        sites: dict[str, list[tuple[ast.AST, bool, str]]] = {}
        for func in _function_defs(module):
            self._collect_sites(module, func, registries, sites)
        for name, entries in sorted(sites.items()):
            if not any(guarded for _, guarded, _ in entries):
                continue
            for node, guarded, kind in entries:
                if guarded:
                    continue
                yield self.finding(
                    module,
                    node,
                    f"unguarded mutation of `{name}`: other sites in "
                    "this module mutate it under a lock — hold the same "
                    "lock here (or move the mutation into a *_locked "
                    "helper called under it)",
                    f"unguarded-mutation:{kind}:{name}",
                )

    # ------------------------------------------------------------------
    def _module_registries(self, module: SourceModule) -> set[str]:
        """Module-level names bound to mutable containers."""
        registries: set[str] = set()
        for node in module.tree.body:
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            if not (isinstance(target, ast.Name) and value is not None):
                continue
            if isinstance(value, (ast.Dict, ast.List, ast.Set)):
                registries.add(target.id)
            elif isinstance(value, ast.Call):
                callee = dotted_name(value.func)
                if callee is not None and callee.rpartition(".")[2] in {
                    "dict",
                    "list",
                    "set",
                    "OrderedDict",
                    "defaultdict",
                    "Counter",
                    "WeakValueDictionary",
                    "WeakKeyDictionary",
                }:
                    registries.add(target.id)
        return registries

    def _collect_sites(
        self,
        module: SourceModule,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        registries: set[str],
        sites: dict[str, list[tuple[ast.AST, bool, str]]],
    ) -> None:
        in_init = func.name == "__init__"
        callee_guarded = func.name.endswith("_locked")
        aliases: dict[str, tuple[str, str]] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    key = self._base_key(node.value, registries, aliases)
                    if key is not None:
                        aliases[target.id] = key
        for node in ast.walk(func):
            for key, site in self._mutations(node, registries, aliases):
                kind, name = key
                if in_init and kind == "attr":
                    continue
                guarded = callee_guarded or self._under_lock(module, site, func)
                sites.setdefault(name, []).append((site, guarded, kind))

    def _base_key(
        self,
        node: ast.expr,
        registries: set[str],
        aliases: dict[str, tuple[str, str]],
    ) -> tuple[str, str] | None:
        if isinstance(node, ast.Attribute):
            return ("attr", node.attr)
        if isinstance(node, ast.Name):
            if node.id in aliases:
                return aliases[node.id]
            if node.id in registries:
                return ("global", node.id)
        return None

    def _mutations(
        self,
        node: ast.AST,
        registries: set[str],
        aliases: dict[str, tuple[str, str]],
    ) -> Iterator[tuple[tuple[str, str], ast.AST]]:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    key = self._base_key(target.value, registries, aliases)
                    if key is not None:
                        yield key, node
                elif isinstance(target, ast.Attribute):
                    yield ("attr", target.attr), node
                elif (
                    isinstance(target, ast.Name)
                    and isinstance(node, ast.AugAssign)
                    and target.id in registries
                ):
                    yield ("global", target.id), node
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    key = self._base_key(target.value, registries, aliases)
                    if key is not None:
                        yield key, node
                elif isinstance(target, ast.Attribute):
                    yield ("attr", target.attr), node
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATING_METHODS:
                key = self._base_key(node.func.value, registries, aliases)
                if key is not None:
                    yield key, node

    def _under_lock(
        self,
        module: SourceModule,
        node: ast.AST,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> bool:
        current = module.parents.get(node)
        while current is not None and current is not func:
            if isinstance(current, ast.With):
                for item in current.items:
                    name = dotted_name(item.context_expr)
                    if name is None and isinstance(item.context_expr, ast.Call):
                        name = dotted_name(item.context_expr.func)
                    if name is not None and "lock" in name.rpartition(".")[2].lower():
                        return True
            current = module.parents.get(current)
        return False


# ----------------------------------------------------------------------
# R9 — token-key soundness
# ----------------------------------------------------------------------


class TokenKeySoundness(Rule):
    """R9 — snapshot-bearing cache keys fold in a registered token."""

    id = "R9"
    title = "token-key soundness"
    rationale = (
        "Bucket and artifact caches outlive any single CSR snapshot: "
        "a patched snapshot replaces the object while inheriting most "
        "of its buckets.  A cache key that incorporates the snapshot "
        "itself — its identity, truthiness or a raw reference — is "
        "therefore unsound in both directions: identity changes on "
        "every patch (false misses) and never distinguishes inherited-"
        "but-retouched buckets (false hits, the PR 9 stale-bucket bug). "
        "Key builders in session/cache.py and graph/csr.py that "
        "mention a snapshot must fold in a registered token source "
        "instead: snapshot.bucket_token(label), snapshot.live_token(), "
        "or a token/generation counter."
    )
    reference = (
        "CHANGES.md PR 9: 'per-label bucket tokens so inherited buckets "
        "survive a patched snapshot' — the stale-bucket bug was exactly "
        "a bucket key missing its token component."
    )

    #: Builtins whose application to a snapshot still keys on identity/
    #: truthiness rather than a token.
    IDENTITYISH = frozenset({"bool", "id", "hash", "str", "repr"})

    def check(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        if not any(module.rel_path.endswith(m) for m in TOKEN_KEY_MODULES):
            return
        for func in _function_defs(module):
            snaps = self._snapshot_bindings(module, func)
            if not snaps:
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Tuple):
                    continue
                if not self._in_key_context(module, func, node):
                    continue
                raw = self._raw_snapshot_elements(node, snaps)
                if raw and not self._has_token_source(node):
                    names = ", ".join(sorted(raw))
                    yield self.finding(
                        module,
                        node,
                        f"cache key incorporates snapshot `{names}` "
                        "without a token source — key on "
                        "snapshot.bucket_token(label)/live_token() (or a "
                        "generation counter) so patched snapshots "
                        "invalidate correctly",
                        f"tokenless-snapshot-key:{names}",
                    )

    # ------------------------------------------------------------------
    def _snapshot_bindings(
        self, module: SourceModule, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> set[str]:
        snaps: set[str] = set()
        owner = module.parents.get(func)
        if isinstance(owner, ast.ClassDef) and "Snapshot" in owner.name:
            snaps.add("self")
        for arg in _all_params(func):
            name = arg.arg
            if name in {"snapshot", "snap"} or name.endswith("_snapshot"):
                snaps.add(name)
                continue
            annotation = arg.annotation
            if annotation is not None:
                rendered = ast.dump(annotation)
                if "Snapshot" in rendered:
                    snaps.add(name)
        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "snapshot"
            ):
                snaps.add(target.id)
        return snaps

    def _in_key_context(
        self,
        module: SourceModule,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        node: ast.Tuple,
    ) -> bool:
        parent = module.parents.get(node)
        if isinstance(parent, ast.Subscript) and parent.slice is node:
            return True
        if (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Attribute)
            and parent.func.attr in {"get", "setdefault", "pop"}
            and parent.args
            and parent.args[0] is node
        ):
            return True
        if isinstance(parent, ast.Compare):
            return True
        if isinstance(parent, ast.Assign):
            for target in parent.targets:
                name = dotted_name(target)
                if name is not None and "key" in name.rpartition(".")[2].lower():
                    return True
        if isinstance(parent, ast.Return):
            lowered = func.name.lower()
            return "key" in lowered or "source" in lowered
        return False

    def _raw_snapshot_elements(
        self, node: ast.Tuple, snaps: set[str]
    ) -> set[str]:
        raw: set[str] = set()
        for element in node.elts:
            if isinstance(element, ast.Name) and element.id in snaps:
                raw.add(element.id)
            elif (
                isinstance(element, ast.Call)
                and isinstance(element.func, ast.Name)
                and element.func.id in self.IDENTITYISH
                and len(element.args) == 1
                and isinstance(element.args[0], ast.Name)
                and element.args[0].id in snaps
            ):
                raw.add(element.args[0].id)
        return raw

    def _has_token_source(self, node: ast.Tuple) -> bool:
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in TOKEN_SOURCE_CALLS
            ):
                return True
            if isinstance(sub, ast.Attribute) and sub.attr in TOKEN_SOURCE_ATTRS:
                return True
        return False


# ----------------------------------------------------------------------
# R10 — toggle-oracle parity
# ----------------------------------------------------------------------


class ToggleOracleParity(Rule):
    """R10 — every optimized-arm toggle has a serial arm and a test."""

    id = "R10"
    title = "toggle-oracle parity"
    rationale = (
        "The architecture keeps every serial/reference path alive as "
        "the oracle its optimized arm is equivalence-tested against "
        "(pooled vs serial batches, patched vs rebuilt snapshots, "
        "TopK vs TopKnopt visiting order).  An ExecutionConfig "
        "field that selects an optimized arm must therefore (a) be "
        "branched on somewhere in src — the off position must reach a "
        "reference path — and (b) appear by name in at least one test "
        "file, where its hypothesis twin suite lives.  A new toggle "
        "missing either is an optimized arm without an oracle: exactly "
        "the regression the roadmap's next toggles (anytime deadlines, "
        "durable temporal top-k) would otherwise ship."
    )
    reference = (
        "ROADMAP 'hypothesis equivalence suites pinning every "
        "optimized arm against its reference oracle'; workers and "
        "snapshot_patching each landed with an equivalence suite."
    )

    def check(self, module: SourceModule, project: Project) -> Iterable[Finding]:
        from repro.analysis.incremental import _named_in_tests

        if not module.rel_path.endswith("session/config.py"):
            return
        fields = self._toggle_fields(module)
        if not fields:
            return
        guard_ids, aliases = self._guard_facts(project, module, fields)
        for name, node in fields:
            if not self._branched_on(name, guard_ids, aliases):
                yield self.finding(
                    module,
                    node,
                    f"ExecutionConfig.{name} selects an optimized arm "
                    "but nothing in src branches on it — the off "
                    "position must reach a serial/reference path",
                    f"toggle-without-branch:{name}",
                )
            if not _named_in_tests(name, project):
                yield self.finding(
                    module,
                    node,
                    f"ExecutionConfig.{name} has no test referencing it "
                    "by name — every optimized arm needs an equivalence "
                    "suite against its reference oracle",
                    f"toggle-without-test:{name}",
                )

    # ------------------------------------------------------------------
    def _toggle_fields(
        self, module: SourceModule
    ) -> list[tuple[str, ast.AnnAssign]]:
        fields: list[tuple[str, ast.AnnAssign]] = []
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.ClassDef) and node.name == "ExecutionConfig"
            ):
                continue
            for stmt in node.body:
                if not (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ):
                    continue
                name = stmt.target.id
                if name in TOGGLE_EXEMPT:
                    continue
                if name in TOGGLE_ARM_EXTRAS or self._is_bool_annotation(
                    stmt.annotation
                ):
                    fields.append((name, stmt))
        return fields

    @staticmethod
    def _is_bool_annotation(annotation: ast.expr) -> bool:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Name) and sub.id == "bool":
                return True
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if "bool" in sub.value:
                    return True
        return False

    def _guard_facts(
        self,
        project: Project,
        config_module: SourceModule,
        fields: list[tuple[str, ast.AnnAssign]],
    ) -> tuple[set[str], dict[str, set[str]]]:
        """Identifiers branched on in src (outside config.py), plus the
        one-hop renames of each toggle (``pool_size=cfg.workers`` makes
        ``pool_size`` an alias of ``workers``)."""
        from repro.analysis.incremental import (
            _boolean_context_exprs,
            _identifiers_in,
        )

        toggle_names = {name for name, _ in fields}
        guard_ids: set[str] = set()
        aliases: dict[str, set[str]] = {name: set() for name in toggle_names}
        for module in project.modules:
            if module is config_module:
                continue
            for expr in _boolean_context_exprs(module.tree):
                guard_ids.update(_identifiers_in(expr))
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call):
                    for keyword in node.keywords:
                        if keyword.arg is None:
                            continue
                        for ident in _identifiers_in(keyword.value):
                            if ident in toggle_names:
                                aliases[ident].add(keyword.arg)
                elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        for ident in _identifiers_in(node.value):
                            if ident in toggle_names:
                                aliases[ident].add(target.id)
        return guard_ids, aliases

    @staticmethod
    def _branched_on(
        name: str, guard_ids: set[str], aliases: dict[str, set[str]]
    ) -> bool:
        if name in guard_ids:
            return True
        return any(alias in guard_ids for alias in aliases.get(name, ()))


ALL_RULES: tuple[Rule, ...] = (
    InvalidationSoundness(),
    ConfigDiscipline(),
    ObsNoOpGuarantee(),
    FrozenAndDefaults(),
    TypedCore(),
    PickleSpawnSafety(),
    LockDiscipline(),
    TokenKeySoundness(),
    ToggleOracleParity(),
)


def get_rule(rule_id: str) -> Rule | None:
    for rule in ALL_RULES:
        if rule.id.upper() == rule_id.upper():
            return rule
    return None
