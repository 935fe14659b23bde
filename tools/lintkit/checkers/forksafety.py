"""``fork-unsafe-capture``: OS resources crossing a process boundary.

``executor-picklability`` catches the *syntactic* failures — lambdas
and nested functions that cannot pickle at all.  This analyzer catches
the *semantic* ones: objects that pickle fine (or survive a fork) but
are meaningless or dangerous in the child process.  A ``threading.Lock``
captured into a ``ProcessPoolExecutor`` task is a fresh, unrelated lock
after fork (mutual exclusion silently lost) and a pickle error under
spawn; open file handles share kernel offsets with the parent; mmap
views and sockets cannot cross at all.  The shard-parallel index builds
(`index/inverted.py`, `index/segbuild.py`) must keep their workers
resource-free — module-level pure functions fed by value.

Detection is a reachability walk, not a pattern match: for every
``.submit(fn, ...)`` / ``.map(fn, ...)`` on a process pool the analyzer
resolves ``fn`` in the module, then walks its body *and every
same-module function it calls* (transitively, cycle-safe) looking for
reads of names bound to resource constructors (``threading.Lock`` /
``RLock`` / ``Condition`` / ``Semaphore`` / ``Event`` / ``Thread``,
``open``, ``mmap.mmap``, ``socket.socket``) in any enclosing scope —
closures over function locals and module globals alike.  Default
argument values and the extra positional arguments of the submission
itself are checked against the same binding set.  Bound methods
(``pool.submit(self.worker)``) are flagged when the class owns a lock
or thread attribute, since the whole instance is pickled.

Raw ``os.fork()`` (the prefork serving supervisor) is held to the same
discipline: forking while a thread handle is bound in the forking
function's scope chain is flagged — only the calling thread survives
the fork, so the child inherits dead threads and whatever locks they
held, frozen forever.  A thread bound in the *same* scope on a line
*after* the fork call is clean (that is the fork-then-thread-in-the-
child pattern the worker runtime uses); bindings in enclosing scopes
are flagged regardless of line order, since they exist by the time the
forking function runs.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from tools.lintkit.checkers.picklability import _collect_pool_names
from tools.lintkit.framework import Checker, FileContext, Violation, register

#: Constructor call names -> human description of the resource.
_RESOURCE_KINDS = {
    "Lock": "threading lock",
    "RLock": "threading lock",
    "Condition": "condition variable",
    "Semaphore": "semaphore",
    "BoundedSemaphore": "semaphore",
    "Event": "threading event",
    "Barrier": "thread barrier",
    "Thread": "thread handle",
    "open": "open file handle",
    "mmap": "mmap view",
    "socket": "socket",
    "create_connection": "socket",
}


def _resource_kind(value: ast.expr) -> str | None:
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return _RESOURCE_KINDS.get(name)


@dataclass
class _Scope:
    """One function (or module) scope: resource bindings made here,
    non-resource names bound here (which shadow outer resources), and
    the functions defined here."""

    node: ast.AST
    parent: "_Scope | None"
    resources: dict[str, str]
    bound: set[str]
    functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef]

    def lookup(self, name: str) -> str | None:
        """Resource kind visible under ``name`` from this scope."""
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.resources:
                return scope.resources[name]
            if name in scope.bound:
                return None
            scope = scope.parent
        return None

    def resolve_function(
        self, name: str
    ) -> "tuple[_Scope, ast.FunctionDef | ast.AsyncFunctionDef] | None":
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.functions:
                return scope, scope.functions[name]
            if name in scope.bound or name in scope.resources:
                return None
            scope = scope.parent
        return None


def _scopes(tree: ast.Module) -> tuple[_Scope, dict[int, _Scope], dict[int, _Scope]]:
    """(module scope, function-id -> enclosing scope,
    function-id -> own scope)."""
    module = _Scope(tree, None, {}, set(), {})
    enclosing: dict[int, _Scope] = {}
    own: dict[int, _Scope] = {}

    def bind_target(scope: _Scope, target: ast.expr, kind: str | None) -> None:
        if not isinstance(target, ast.Name):
            return
        if kind is not None:
            scope.resources[target.id] = kind
        else:
            scope.bound.add(target.id)

    def walk(node: ast.AST, scope: _Scope) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.functions[child.name] = child
                enclosing[id(child)] = scope
                inner = _Scope(child, scope, {}, set(), {})
                args = child.args
                inner.bound.update(
                    a.arg
                    for a in [
                        *args.posonlyargs,
                        *args.args,
                        *args.kwonlyargs,
                        *([args.vararg] if args.vararg else []),
                        *([args.kwarg] if args.kwarg else []),
                    ]
                )
                own[id(child)] = inner
                # Pass the def itself as the parent so its body
                # *statements* are classified (not just their children).
                walk(child, inner)
                continue
            if isinstance(child, ast.ClassDef):
                # Class bodies have no closure scope of their own;
                # methods close over the enclosing function/module.
                walk(child, scope)
                continue
            if isinstance(child, ast.Assign):
                kind = _resource_kind(child.value)
                for target in child.targets:
                    bind_target(scope, target, kind)
            elif isinstance(child, ast.AnnAssign) and child.value is not None:
                bind_target(scope, child.target, _resource_kind(child.value))
            elif isinstance(child, (ast.With, ast.AsyncWith)):
                for item in child.items:
                    if item.optional_vars is not None:
                        bind_target(
                            scope, item.optional_vars, _resource_kind(item.context_expr)
                        )
            walk(child, scope)

    walk(tree, module)
    return module, enclosing, own


def _captured_resources(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    own: dict[int, _Scope],
    visited: set[int],
) -> list[tuple[str, str, str]]:
    """``(name, kind, via)`` resources reachable from ``func``'s body —
    direct closure/global reads plus reads in transitively called
    same-module functions."""
    if id(func) in visited:
        return []
    visited.add(id(func))
    scope = own.get(id(func))
    if scope is None:
        return []
    found: list[tuple[str, str, str]] = []
    # Walk the body only: default-argument expressions live in the
    # signature and are reported separately by _default_resources.
    for node in (n for stmt in func.body for n in ast.walk(stmt)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            kind = scope.lookup(node.id)
            if kind is not None:
                found.append((node.id, kind, func.name))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            resolved = scope.resolve_function(node.func.id)
            if resolved is not None:
                _outer, target = resolved
                found.extend(_captured_resources(target, own, visited))
    return found


def _default_resources(
    func: ast.FunctionDef | ast.AsyncFunctionDef, scope: _Scope
) -> list[tuple[str, str]]:
    """``(display, kind)`` for resource-valued default arguments."""
    found: list[tuple[str, str]] = []
    for default in [*func.args.defaults, *func.args.kw_defaults]:
        if default is None:
            continue
        kind = _resource_kind(default)
        if kind is not None:
            found.append((ast.unparse(default), kind))
        elif isinstance(default, ast.Name):
            looked = scope.lookup(default.id)
            if looked is not None:
                found.append((default.id, looked))
    return found


def _is_thread_binding(value: ast.expr) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return _RESOURCE_KINDS.get(name) == "thread handle"


def _is_fork_call(func: ast.expr) -> bool:
    if isinstance(func, ast.Attribute):
        return func.attr in ("fork", "forkpty") and (
            isinstance(func.value, ast.Name) and func.value.id == "os"
        )
    return isinstance(func, ast.Name) and func.id in ("fork", "forkpty")


def _thread_bindings(body: list[ast.stmt]) -> list[tuple[str, int]]:
    """``(name, lineno)`` thread-handle bindings made directly in a
    scope body — nested function/lambda bodies are separate scopes and
    excluded (a method's local thread is invisible to the forker)."""
    found: list[tuple[str, int]] = []
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Assign) and _is_thread_binding(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    found.append((target.id, node.lineno))
        elif (
            isinstance(node, ast.AnnAssign)
            and node.value is not None
            and _is_thread_binding(node.value)
            and isinstance(node.target, ast.Name)
        ):
            found.append((node.target.id, node.lineno))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _parent_functions(tree: ast.Module) -> dict[int, ast.AST | None]:
    """Node id -> innermost function def lexically containing it
    (``None`` for module level)."""
    parents: dict[int, ast.AST | None] = {}

    def annotate(node: ast.AST, current: ast.AST | None) -> None:
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = current
            annotate(
                child,
                child
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                else current,
            )

    annotate(tree, None)
    return parents


def _class_resource_attrs(tree: ast.Module, class_name: str) -> list[tuple[str, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            found = []
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign):
                    kind = _resource_kind(sub.value)
                    if kind is None:
                        continue
                    for target in sub.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            found.append((target.attr, kind))
            return found
    return []


@register
class ForkSafetyChecker(Checker):
    name = "fork-unsafe-capture"
    rule_id = "LK201"
    description = "lock/thread/file/mmap/socket captured into a process-pool task"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        yield from self._check_forks(ctx)
        process_pools, thread_pools = _collect_pool_names(ctx.tree)
        module_scope, enclosing, own = _scopes(ctx.tree)
        # Method name -> owning class, for bound-method submissions.
        method_owner: dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method_owner[stmt.name] = node.name

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in ("submit", "map"):
                continue
            receiver = func.value
            receiver_name = receiver.id if isinstance(receiver, ast.Name) else None
            if receiver_name in thread_pools:
                continue
            is_pool = receiver_name in process_pools or (
                receiver_name is not None
                and any(hint in receiver_name.lower() for hint in ("pool", "executor"))
            )
            if not is_pool or not node.args:
                continue
            task = node.args[0]
            yield from self._check_task(ctx, node, task, module_scope, own, method_owner)
            # Resource objects handed over as submission arguments.
            for arg in node.args[1:]:
                if isinstance(arg, ast.Name):
                    kind = module_scope.lookup(arg.id)
                    if kind is not None:
                        yield ctx.violation(
                            arg,
                            self.name,
                            f"{arg.id!r} is a {kind} passed as an argument into a "
                            "process-pool task; it cannot cross the process "
                            "boundary meaningfully",
                            rule=self.rule_id,
                            fix="pass plain data and recreate the resource in the worker",
                        )

    def _check_forks(self, ctx: FileContext) -> Iterator[Violation]:
        """Flag ``os.fork()`` reachable from a scope chain that binds a
        thread handle before the fork (see module docstring)."""
        parents = _parent_functions(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not _is_fork_call(node.func):
                continue
            # Scope chain bodies, innermost first; the innermost scope
            # applies the line-order rule (thread created *after* the
            # fork is the child's own thread and perfectly safe).
            scope: ast.AST | None = parents.get(id(node))
            innermost = True
            while True:
                body = ctx.tree.body if scope is None else scope.body  # type: ignore[attr-defined]
                for name, lineno in _thread_bindings(body):
                    if innermost and lineno >= node.lineno:
                        continue
                    yield ctx.violation(
                        node,
                        self.name,
                        f"os.fork() with thread handle {name!r} bound in scope "
                        f"(line {lineno}); only the calling thread survives a "
                        "fork — the child inherits dead threads and any locks "
                        "they held",
                        rule=self.rule_id,
                        fix="fork before creating threads (keep the forking "
                        "process single-threaded), or create the thread only "
                        "in the child",
                    )
                if scope is None:
                    break
                scope = parents.get(id(scope))
                innermost = False

    def _check_task(
        self,
        ctx: FileContext,
        call: ast.Call,
        task: ast.expr,
        module_scope: _Scope,
        own: dict[int, _Scope],
        method_owner: dict[str, str],
    ) -> Iterator[Violation]:
        # pool.submit(self.worker) pickles the whole instance.
        if (
            isinstance(task, ast.Attribute)
            and isinstance(task.value, ast.Name)
            and task.value.id == "self"
        ):
            owner = method_owner.get(task.attr)
            if owner is not None:
                for attr, kind in _class_resource_attrs(ctx.tree, owner):
                    yield ctx.violation(
                        task,
                        self.name,
                        f"bound method {owner}.{task.attr} submitted to a process "
                        f"pool pickles the whole instance, including {kind} "
                        f"attribute self.{attr}",
                        rule=self.rule_id,
                        fix="submit a module-level function taking plain data instead",
                    )
            return
        if not isinstance(task, ast.Name):
            return
        resolved = module_scope.resolve_function(task.id)
        target: ast.FunctionDef | ast.AsyncFunctionDef | None = None
        if resolved is not None:
            target = resolved[1]
        else:
            # The task may be a nested function: resolve from the scope
            # of the function containing the submit call, if any.
            for func_id, scope in own.items():
                if any(n is call for n in ast.walk(scope.node)):
                    hit = scope.resolve_function(task.id)
                    if hit is not None:
                        target = hit[1]
                    break
        if target is None:
            return
        seen: set[tuple[str, str, str]] = set()
        for name, kind, via in _captured_resources(target, own, set()):
            key = (name, kind, via)
            if key in seen:
                continue
            seen.add(key)
            where = f" (via {via}())" if via != target.name else ""
            yield ctx.violation(
                task,
                self.name,
                f"{target.name!r} submitted to a process pool reads {name!r}, "
                f"a {kind}, from an enclosing scope{where}; after fork/spawn "
                "the child sees a disconnected copy",
                rule=self.rule_id,
                fix=f"pass the data {name!r} protects as an argument and drop "
                "the shared-resource capture",
            )
        own_scope = own.get(id(target))
        if own_scope is not None:
            for display, kind in _default_resources(target, own_scope):
                yield ctx.violation(
                    task,
                    self.name,
                    f"{target.name!r} submitted to a process pool has a {kind} "
                    f"default argument ({display}); defaults are evaluated in "
                    "the parent and pickled into every task",
                    rule=self.rule_id,
                    fix="default to None and create the resource inside the worker",
                )
