"""AST-level contract linter for the ``src/repro`` source tree.

The stack's strongest guarantees — bit-identical 1-vs-N sharding, the
one-draw-per-measurement randomness contract, single-module histogram
keying, pickle-safe worker tasks — are *conventions*: nothing in the
language stops a new engine from building its own rng, joining its own bit
keys or iterating a set into an ordered histogram.  This module turns those
conventions into machine-checked rules, each with an ID, a rationale and an
escape hatch::

    some_call()  # contract: ignore[REPRO004] ordering is irrelevant here

An ignore comment on a ``def``/``class`` line suppresses the rule for the
whole body.  The rules:

========== ==================================================================
REPRO001   rng provenance: no legacy ``np.random.*`` API and no internally
           constructed generators — an rng must be injectable by the caller
           (an ``rng`` parameter) or derivable from a ``SeedSequence``.
REPRO002   one-draw contract: no ``integers(2)``-style coin flips in engine
           code; binary outcomes must be ``random() < p`` so every
           measurement consumes exactly one uniform draw.
REPRO003   keying: histogram/bit keys are built only by ``repro.qx.keying``;
           no local ``"".join(str(...) ...)`` key builders in engine or
           runtime code.
REPRO004   sharding determinism: no direct set iteration in runtime modules;
           wrap in ``sorted(...)`` to make the order explicit.
REPRO005   pickle safety: worker task dataclasses must be module-level and
           must not carry lambda defaults or ``Callable`` fields.
REPRO006   worker purity: worker-executed modules must not mutate
           module-level state (per-process memo caches need an explicit
           ignore with a rationale).
REPRO007   rng isolation: engine ``copy()``/``clone()``/``spawn()`` paths
           must not share ``self.rng`` with the clone — spawn a child
           generator instead.
REPRO008   event-loop purity: service coroutines never call blocking runtime
           entry points (``run_shard``, ``run_window``, ``run_batch``,
           ``compile_and_map``, runner ``run``/``plan``/``plan_point``)
           directly — dispatch them through an executor.
========== ==================================================================

``scripts/lint_contracts.py`` is the CLI; the CI ``contracts`` job runs it
over ``src/repro`` on every push.  See ``docs/analysis.md``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

#: ``np.random`` attributes that are part of the Generator-era API; every
#: other attribute (``np.random.random``, ``np.random.seed``, ``RandomState``,
#: ...) is the legacy global-state API the determinism contract bans.
_MODERN_NP_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Method names whose call on a module-level name counts as a mutation.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "move_to_end",
        "extend",
        "insert",
        "clear",
        "remove",
        "discard",
    }
)

#: Method names that identify a copy/clone path for REPRO007.
_COPY_METHODS = frozenset({"copy", "clone", "fork", "spawn", "__copy__", "__deepcopy__"})

_IGNORE_PATTERN = re.compile(r"#\s*contract:\s*ignore\[([A-Za-z0-9_,\s]+)\]")


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    column: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.rule} {self.message}"


@dataclass
class ModuleContext:
    """Shared per-file facts every rule reads.

    * ``enclosing`` maps each node to its innermost enclosing function (or
      ``None`` at module level);
    * ``parents`` maps each node to its direct AST parent;
    * ``module_mutables`` are names bound by assignment at module scope
      (imports excluded — mutating an imported module is out of scope);
    * ``ignores`` maps line number -> set of suppressed rule IDs, and
      ``ignore_spans`` carries ``(start, end, rules)`` ranges from ignore
      comments placed on ``def``/``class`` lines.
    """

    path: str
    tree: ast.Module
    enclosing: dict[int, ast.FunctionDef | ast.AsyncFunctionDef | None] = field(
        default_factory=dict
    )
    parents: dict[int, ast.AST] = field(default_factory=dict)
    module_mutables: set[str] = field(default_factory=set)
    ignores: dict[int, set[str]] = field(default_factory=dict)
    ignore_spans: list[tuple[int, int, set[str]]] = field(default_factory=list)

    @classmethod
    def build(cls, path: str, source: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        context = cls(path=path, tree=tree)
        context._index(tree, None)
        for statement in tree.body:
            targets: list[ast.expr] = []
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
                targets = [statement.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        context.module_mutables.add(node.id)
        context._collect_ignores(source)
        return context

    def _index(self, node: ast.AST, function) -> None:
        for child in ast.iter_child_nodes(node):
            self.parents[id(child)] = node
            child_function = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_function = child
            self.enclosing[id(child)] = function
            self._index(child, child_function)

    def _collect_ignores(self, source: str) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            comments = [
                (token.start[0], token.string)
                for token in tokens
                if token.type == tokenize.COMMENT
            ]
        except tokenize.TokenError:  # pragma: no cover - ast.parse already succeeded
            comments = []
        for line, text in comments:
            match = _IGNORE_PATTERN.search(text)
            if match is None:
                continue
            rules = {rule.strip() for rule in match.group(1).split(",") if rule.strip()}
            self.ignores.setdefault(line, set()).update(rules)
        # An ignore on a def/class line covers the whole body.
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for line in range(node.lineno, node.body[0].lineno):
                    rules = self.ignores.get(line)
                    if rules:
                        self.ignore_spans.append((node.lineno, node.end_lineno or node.lineno, rules))

    def suppressed(self, rule: str, line: int) -> bool:
        if rule in self.ignores.get(line, set()):
            return True
        return any(start <= line <= end and rule in rules for start, end, rules in self.ignore_spans)

    # ------------------------------------------------------------------ #
    def function_of(self, node: ast.AST):
        return self.enclosing.get(id(node))

    def parent_of(self, node: ast.AST):
        return self.parents.get(id(node))

    def parameters_of(self, function) -> list[ast.arg]:
        if function is None:
            return []
        args = function.args
        return [*args.posonlyargs, *args.args, *args.kwonlyargs]


class Rule:
    """Base class: one checkable contract with an ID and documentation."""

    rule_id = "REPRO000"
    title = ""
    rationale = ""
    scope = "src/repro"

    def applies_to(self, path: Path) -> bool:
        return True

    def check(self, context: ModuleContext) -> list[Violation]:
        raise NotImplementedError

    def violation(self, context: ModuleContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule=self.rule_id,
            path=context.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            message=message,
        )


def _parts(path: Path) -> tuple[str, ...]:
    return tuple(part for part in path.parts if part not in (".", ".."))


def _is_np_random(node: ast.expr) -> bool:
    """True for ``np.random`` / ``numpy.random`` attribute chains."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


class RngProvenanceRule(Rule):
    """REPRO001 — rng must flow from the caller or a ``SeedSequence``."""

    rule_id = "REPRO001"
    title = "rng provenance"
    rationale = (
        "Sharded execution is bit-identical for 1 vs N workers only when every random "
        "stream is a pure function of (root seed, point, shard).  Legacy np.random.* "
        "global state, entropy-seeded default_rng() and generators built internally "
        "from raw seeds all break that provenance chain."
    )
    scope = "all of src/repro"

    def check(self, context: ModuleContext) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Attribute) and _is_np_random(node.value):
                if node.attr not in _MODERN_NP_RANDOM:
                    violations.append(
                        self.violation(
                            context,
                            node,
                            f"legacy numpy.random.{node.attr} API; use an injected "
                            "numpy.random.Generator",
                        )
                    )
                elif node.attr == "default_rng":
                    call = context.parent_of(node)
                    if isinstance(call, ast.Call) and call.func is node:
                        violations.extend(self._check_default_rng(context, call))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "default_rng":
                    violations.extend(self._check_default_rng(context, node))
        return violations

    def _check_default_rng(self, context: ModuleContext, call: ast.Call) -> list[Violation]:
        function = context.function_of(call)
        parameters = context.parameters_of(function)
        has_rng_parameter = any(parameter.arg == "rng" for parameter in parameters)
        arguments = list(call.args) + [kw.value for kw in call.keywords]
        if not arguments or (
            len(arguments) == 1
            and isinstance(arguments[0], ast.Constant)
            and arguments[0].value is None
        ):
            if has_rng_parameter:
                # The bare construction is the documented None-fallback of an
                # injected generator: callers who care pass rng=.
                return []
            return [
                self.violation(
                    context,
                    call,
                    "entropy-seeded default_rng() without an injectable rng parameter; "
                    "accept rng= from the caller",
                )
            ]
        if has_rng_parameter or len(arguments) != 1:
            return []
        argument = arguments[0]
        if isinstance(argument, ast.Constant) and isinstance(argument.value, int):
            return [
                self.violation(
                    context,
                    call,
                    f"default_rng({argument.value}) hides a fixed seed inside library code; "
                    "accept rng= or a SeedSequence from the caller",
                )
            ]
        if isinstance(argument, ast.Name):
            for parameter in parameters:
                if parameter.arg != argument.id:
                    continue
                annotation = ast.unparse(parameter.annotation) if parameter.annotation else ""
                if "SeedSequence" in annotation:
                    return []
                return [
                    self.violation(
                        context,
                        call,
                        f"generator built internally from raw seed {argument.id!r}; accept an "
                        "injected rng= parameter or widen the parameter to accept a "
                        "SeedSequence",
                    )
                ]
        # Derived expressions (e.g. default_rng(shard_seed(...))) carry their
        # provenance in the expression itself; give them the benefit of the
        # doubt.
        return []


class CoinFlipRule(Rule):
    """REPRO002 — engines draw outcomes as ``random() < p``, never ``integers(2)``."""

    rule_id = "REPRO002"
    title = "one-draw measurement contract"
    rationale = (
        "Seeded trajectories are bit-identical across engines only because every "
        "measurement consumes exactly one uniform draw compared against a probability. "
        "integers(2)-style draws consume a differently shaped stream and break "
        "cross-engine equivalence."
    )
    scope = "src/repro/qx, src/repro/qec"

    def applies_to(self, path: Path) -> bool:
        parts = _parts(path)
        return "qx" in parts or "qec" in parts

    def check(self, context: ModuleContext) -> list[Violation]:
        violations = []
        for node in ast.walk(context.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr != "integers":
                continue
            if self._is_binary_draw(node):
                violations.append(
                    self.violation(
                        context,
                        node,
                        "integers(2)-style coin flip in engine code; draw once with "
                        "rng.random() < p (the one-draw measurement contract)",
                    )
                )
        return violations

    @staticmethod
    def _is_binary_draw(call: ast.Call) -> bool:
        def is_const(node: ast.expr | None, value: int) -> bool:
            return isinstance(node, ast.Constant) and node.value == value

        positional = call.args
        keywords = {kw.arg: kw.value for kw in call.keywords}
        high = keywords.get("high")
        if len(positional) >= 1 and is_const(positional[0], 2) and len(positional) == 1:
            return "high" not in keywords
        if len(positional) >= 2 and is_const(positional[0], 0) and is_const(positional[1], 2):
            return True
        low = keywords.get("low", positional[0] if positional else None)
        if is_const(high, 2):
            return low is None or is_const(low, 0)
        return False


class KeyingRule(Rule):
    """REPRO003 — histogram keys come from ``repro.qx.keying`` only."""

    rule_id = "REPRO003"
    title = "single keying module"
    rationale = (
        "All engines must key histograms identically (classical bit order, lowest bit "
        "rightmost, last write wins).  A local ''.join(str(...)) key builder is how the "
        "pre-PR5 engines drifted apart."
    )
    scope = "src/repro/qx, src/repro/runtime, src/repro/qec (keying.py itself exempt)"

    def applies_to(self, path: Path) -> bool:
        parts = _parts(path)
        if path.name == "keying.py":
            return False
        return bool({"qx", "runtime", "qec"} & set(parts))

    def check(self, context: ModuleContext) -> list[Violation]:
        violations = []
        for node in ast.walk(context.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr != "join":
                continue
            if not (
                isinstance(node.func.value, ast.Constant) and node.func.value.value == ""
            ):
                continue
            if len(node.args) != 1:
                continue
            argument = node.args[0]
            if isinstance(argument, (ast.GeneratorExp, ast.ListComp)):
                element = argument.elt
                is_str_call = (
                    isinstance(element, ast.Call)
                    and isinstance(element.func, ast.Name)
                    and element.func.id == "str"
                )
                if is_str_call or isinstance(element, ast.JoinedStr):
                    violations.append(
                        self.violation(
                            context,
                            node,
                            "local ''.join(str(...)) bit-key builder; use repro.qx.keying "
                            "(bits_histogram) so every engine keys identically",
                        )
                    )
        return violations


class SetIterationRule(Rule):
    """REPRO004 — runtime hot paths never iterate sets directly."""

    rule_id = "REPRO004"
    title = "deterministic iteration order"
    rationale = (
        "Shard lists, task orders and merged outputs must not depend on set iteration "
        "order (hash-randomised across processes for str keys).  Wrap in sorted(...) to "
        "make the order explicit."
    )
    scope = "src/repro/runtime"

    def applies_to(self, path: Path) -> bool:
        return "runtime" in _parts(path)

    def check(self, context: ModuleContext) -> list[Violation]:
        violations: list[Violation] = []
        set_names = self._set_bound_names(context)
        iterators: list[ast.expr] = []
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterators.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iterators.extend(generator.iter for generator in node.generators)
        for iterator in iterators:
            if self._is_set_expression(iterator, set_names):
                violations.append(
                    self.violation(
                        context,
                        iterator,
                        "direct set iteration in a runtime module; iteration order is not "
                        "deterministic across processes — wrap in sorted(...)",
                    )
                )
        return violations

    @staticmethod
    def _set_bound_names(context: ModuleContext) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Assign) and SetIterationRule._is_set_literal(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if SetIterationRule._is_set_literal(node.value) and isinstance(
                    node.target, ast.Name
                ):
                    names.add(node.target.id)
        return names

    @staticmethod
    def _is_set_literal(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    @staticmethod
    def _is_set_expression(node: ast.expr, set_names: set[str]) -> bool:
        if SetIterationRule._is_set_literal(node):
            return True
        return isinstance(node, ast.Name) and node.id in set_names


class TaskPickleRule(Rule):
    """REPRO005 — worker task dataclasses stay picklable."""

    rule_id = "REPRO005"
    title = "pickle-safe worker tasks"
    rationale = (
        "Task/Chunk/Entry dataclasses cross the process-pool boundary.  Lambdas, "
        "Callable fields and locally defined classes raise PicklingError only at run "
        "time, in a worker, under load."
    )
    scope = "src/repro/runtime (dataclasses named *Task / *Chunk / *Entry)"

    def applies_to(self, path: Path) -> bool:
        return "runtime" in _parts(path)

    def check(self, context: ModuleContext) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith(("Task", "Chunk", "Entry")):
                continue
            if not self._is_dataclass(node):
                continue
            if context.function_of(node) is not None:
                violations.append(
                    self.violation(
                        context,
                        node,
                        f"task dataclass {node.name!r} defined inside a function; local "
                        "classes cannot be pickled across the pool boundary",
                    )
                )
            for statement in node.body:
                if not isinstance(statement, ast.AnnAssign):
                    continue
                annotation = ast.unparse(statement.annotation)
                if "Callable" in annotation or "lambda" in annotation:
                    violations.append(
                        self.violation(
                            context,
                            statement,
                            f"task dataclass {node.name!r} declares a callable field "
                            f"({annotation}); function references are not reliably "
                            "picklable",
                        )
                    )
                if isinstance(statement.value, ast.Lambda):
                    violations.append(
                        self.violation(
                            context,
                            statement,
                            f"task dataclass {node.name!r} stores a lambda default; the "
                            "instance cannot be pickled",
                        )
                    )
        return violations

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name == "dataclass":
                return True
        return False


class WorkerStateRule(Rule):
    """REPRO006 — worker-executed modules do not mutate module state."""

    rule_id = "REPRO006"
    title = "worker purity"
    rationale = (
        "Functions executed inside pool workers must be pure functions of their task: "
        "module-level mutations diverge between the inline and pooled paths and between "
        "worker counts.  Deliberate per-process memo caches need an explicit ignore "
        "with a rationale."
    )
    scope = "src/repro/runtime/worker.py, src/repro/runtime/batch.py"

    def applies_to(self, path: Path) -> bool:
        return "runtime" in _parts(path) and path.name in ("worker.py", "batch.py")

    def check(self, context: ModuleContext) -> list[Violation]:
        violations: list[Violation] = []
        module_names = context.module_mutables
        for node in ast.walk(context.tree):
            if context.function_of(node) is None:
                continue  # module-level initialisation is fine
            if isinstance(node, ast.Global):
                for name in node.names:
                    violations.append(
                        self.violation(
                            context,
                            node,
                            f"global statement rebinding module-level {name!r} inside a "
                            "worker-executed module",
                        )
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    root = self._subscript_root(target)
                    if root is not None and root in module_names:
                        violations.append(
                            self.violation(
                                context,
                                node,
                                f"mutation of module-level {root!r} inside a worker-executed "
                                "function",
                            )
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATOR_METHODS and isinstance(node.func.value, ast.Name):
                    name = node.func.value.id
                    if name in module_names:
                        violations.append(
                            self.violation(
                                context,
                                node,
                                f"{name}.{node.func.attr}(...) mutates module-level state "
                                "inside a worker-executed function",
                            )
                        )
        return violations

    @staticmethod
    def _subscript_root(node: ast.expr) -> str | None:
        """Name at the base of a subscript/attribute store target, if any."""
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id
        return None


class RngSharingRule(Rule):
    """REPRO007 — engine copy paths never share ``self.rng``."""

    rule_id = "REPRO007"
    title = "rng isolation on copy"
    rationale = (
        "A clone sharing its parent's Generator lets probe measurements on the copy "
        "perturb the parent's stream (the PR 3 StabilizerState.copy bug).  Clones must "
        "derive an independent child via self.rng.spawn(...)."
    )
    scope = "src/repro/qx, src/repro/qec (methods named copy/clone/fork/spawn)"

    def applies_to(self, path: Path) -> bool:
        parts = _parts(path)
        return "qx" in parts or "qec" in parts

    def check(self, context: ModuleContext) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in _COPY_METHODS:
                continue
            for sub in ast.walk(node):
                if not (
                    isinstance(sub, ast.Attribute)
                    and sub.attr == "rng"
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                    and isinstance(sub.ctx, ast.Load)
                ):
                    continue
                parent = context.parent_of(sub)
                if isinstance(parent, ast.Attribute) and parent.value is sub:
                    continue  # self.rng.spawn(...) / self.rng.random() etc.
                violations.append(
                    self.violation(
                        context,
                        sub,
                        f"{node.name}() shares self.rng with the clone; spawn an "
                        "independent child generator (self.rng.spawn(1)[0])",
                    )
                )
        return violations


#: Module-level functions that execute shards/batches synchronously.
_BLOCKING_RUNTIME_FUNCTIONS = frozenset({"run_shard", "run_window", "run_batch", "compile_and_map"})

#: Blocking methods when called on a runner/planner object.
_BLOCKING_RUNNER_METHODS = frozenset({"run", "plan", "plan_point"})

#: Receiver-name fragments identifying a runner/planner instance.
_RUNNER_NAME_HINTS = ("runner", "planner")


class EventLoopBlockingRule(Rule):
    """REPRO008 — service coroutines dispatch runtime work via executors."""

    rule_id = "REPRO008"
    title = "event-loop purity"
    rationale = (
        "The service daemon multiplexes every tenant on one event loop.  A coroutine "
        "that calls a blocking runtime entry point (shard execution, whole-spec runs, "
        "compile planning) inline stalls all connected clients for the duration — the "
        "bug is invisible under light load and catastrophic under real load.  Blocking "
        "work must go through loop.run_in_executor (the function is passed as a "
        "reference, never called on the loop)."
    )
    scope = "src/repro/service"

    def applies_to(self, path: Path) -> bool:
        return "service" in _parts(path)

    def check(self, context: ModuleContext) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(context.function_of(node), ast.AsyncFunctionDef):
                continue
            blocked = self._blocking_name(node.func)
            if blocked is not None:
                violations.append(
                    self.violation(
                        context,
                        node,
                        f"coroutine calls blocking runtime entry point {blocked}() on the "
                        "event loop; dispatch it through loop.run_in_executor instead",
                    )
                )
        return violations

    @staticmethod
    def _blocking_name(func: ast.expr) -> str | None:
        if isinstance(func, ast.Name) and func.id in _BLOCKING_RUNTIME_FUNCTIONS:
            return func.id
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _BLOCKING_RUNNER_METHODS
            and isinstance(func.value, ast.Name)
            and any(hint in func.value.id.lower() for hint in _RUNNER_NAME_HINTS)
        ):
            return f"{func.value.id}.{func.attr}"
        return None


#: The rule registry, in catalogue order.
RULES: list[Rule] = [
    RngProvenanceRule(),
    CoinFlipRule(),
    KeyingRule(),
    SetIterationRule(),
    TaskPickleRule(),
    WorkerStateRule(),
    RngSharingRule(),
    EventLoopBlockingRule(),
]


def rule_catalogue() -> list[dict]:
    """Machine-readable rule list (ID, title, rationale, scope) for docs/CLI."""
    return [
        {
            "id": rule.rule_id,
            "title": rule.title,
            "rationale": rule.rationale,
            "scope": rule.scope,
        }
        for rule in RULES
    ]


def lint_source(
    source: str, path: str | Path = "<memory>", rules: list[Rule] | None = None
) -> list[Violation]:
    """Lint one source string as if it lived at ``path`` (scoping applies)."""
    path = Path(path)
    context = ModuleContext.build(str(path), source)
    violations: list[Violation] = []
    for rule in rules if rules is not None else RULES:
        if not rule.applies_to(path):
            continue
        for violation in rule.check(context):
            if not context.suppressed(violation.rule, violation.line):
                violations.append(violation)
    return sorted(violations, key=lambda v: (v.path, v.line, v.column, v.rule))


def lint_file(path: str | Path, rules: list[Rule] | None = None) -> list[Violation]:
    path = Path(path)
    return lint_source(path.read_text(), path, rules=rules)


def lint_paths(
    paths: list[str | Path], rules: list[Rule] | None = None
) -> tuple[list[Violation], int]:
    """Lint files and directory trees; returns ``(violations, files checked)``."""
    files: list[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        else:
            files.append(entry)
    violations: list[Violation] = []
    for file in files:
        violations.extend(lint_file(file, rules=rules))
    return violations, len(files)
