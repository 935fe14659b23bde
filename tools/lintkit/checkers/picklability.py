"""``executor-picklability``: closures/lambdas crossing a process pool.

``ProcessPoolExecutor`` pickles the callable it dispatches.  Lambdas
and functions defined inside another function are not picklable, so
``pool.map(lambda ...)`` or ``pool.submit(local_fn)`` dies at runtime —
but only on the spawn start method, so the bug hides on Linux (fork)
and surfaces on macOS/Windows or inside test harnesses that force
spawn.  Task callables crossing a process pool must be module-level
(the index build's ``_build_shard`` is the pattern to follow).

Detection: track names bound to ``ProcessPoolExecutor(...)`` (plus any
receiver whose name contains "pool" or "executor"), and flag
``.submit`` / ``.map`` calls on them whose callable argument is a
lambda or a name defined as a nested function / lambda assignment.
``ThreadPoolExecutor`` targets are exempt — threads do not pickle.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.lintkit.framework import Checker, FileContext, Violation, register


def _collect_unpicklable_names(tree: ast.Module) -> set[str]:
    """Names of nested functions and lambda-valued assignments."""
    names: set[str] = set()

    def walk(node: ast.AST, depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            child_depth = depth
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if depth > 0:
                    names.add(child.name)
                child_depth = depth + 1
            elif isinstance(child, ast.Assign) and isinstance(child.value, ast.Lambda):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            walk(child, child_depth)

    walk(tree, 0)
    return names


def _collect_pool_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(process-pool names, thread-pool names) bound via assignment or
    ``with ... as`` aliases."""
    process: set[str] = set()
    thread: set[str] = set()

    def classify(value: ast.expr) -> set[str] | None:
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name == "ProcessPoolExecutor":
            return process
        if name == "ThreadPoolExecutor":
            return thread
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            bucket = classify(node.value)
            if bucket is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bucket.add(target.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                bucket = classify(item.context_expr)
                if bucket is not None and isinstance(item.optional_vars, ast.Name):
                    bucket.add(item.optional_vars.id)
    return process, thread


@register
class ExecutorPicklabilityChecker(Checker):
    name = "executor-picklability"
    rule_id = "LK004"
    description = "lambda/nested function dispatched through a process pool"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        unpicklable = _collect_unpicklable_names(ctx.tree)
        process_pools, thread_pools = _collect_pool_names(ctx.tree)

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
            if isinstance(task, ast.Lambda):
                yield ctx.violation(
                    task,
                    self.name,
                    f"lambda passed to {receiver_name}.{func.attr}(); process "
                    "pools pickle their tasks — use a module-level function",
                )
            elif isinstance(task, ast.Name) and task.id in unpicklable:
                yield ctx.violation(
                    task,
                    self.name,
                    f"{task.id!r} is a nested function/lambda passed to "
                    f"{receiver_name}.{func.attr}(); it will not pickle under "
                    "the spawn start method — move it to module level",
                )
