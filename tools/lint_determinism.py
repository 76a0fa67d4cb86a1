#!/usr/bin/env python
"""AST lint: no iteration over unordered sets in deterministic merge paths.

The greedy ded sweep's nogoods and the flight-recorder merge both
promise bit-identical output regardless of pruning or of the order pool
workers finish in.  That promise dies the moment a merge path iterates a ``set`` directly —
Python set order depends on insertion history and hash seeding.  This
tool walks the AST of the deterministic-merge modules and flags every
``for`` loop, comprehension or ``list``/``tuple`` call whose iterable
is statically set-typed, unless the iteration is wrapped in
``sorted(...)`` or consumed by an order-insensitive reducer (``len``,
``min``, ``max``, ``sum``, ``any``, ``all``, ``set``, ``frozenset``).

Set-typedness is tracked conservatively inside each function: set
literals and comprehensions, ``set(...)``/``frozenset(...)`` calls,
set-algebra binary operators over a tracked operand, and plain local
assignments of those.  A false positive can be waived with a trailing
``# det: ok`` comment on the offending line.

Usage::

    python tools/lint_determinism.py [FILE ...]

With no arguments the default merge-path modules are checked.  Exit
status is the number of findings (0 = clean).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

DEFAULT_FILES = (
    "src/repro/chase/ded.py",
    "src/repro/obs/recorder.py",
)

SET_CONSTRUCTORS = {"set", "frozenset"}
ORDER_INSENSITIVE = {
    "sorted", "len", "min", "max", "sum", "any", "all", "set", "frozenset",
}
SET_METHODS = {
    "union", "intersection", "difference", "symmetric_difference", "copy",
}
WAIVER = "# det: ok"


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    """Conservative: True only when the expression is surely a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in SET_CONSTRUCTORS:
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in SET_METHODS
            and _is_set_expr(func.value, set_names)
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    if isinstance(node, ast.IfExp):
        return _is_set_expr(node.body, set_names) and _is_set_expr(
            node.orelse, set_names
        )
    return False


class _FunctionLinter(ast.NodeVisitor):
    """Lint one function body with simple local set tracking."""

    def __init__(self, path: Path, lines: List[str]) -> None:
        self.path = path
        self.lines = lines
        self.set_names: Set[str] = set()
        self.findings: List[Tuple[int, str]] = []

    def _waived(self, lineno: int) -> bool:
        line = self.lines[lineno - 1] if lineno - 1 < len(self.lines) else ""
        return WAIVER in line

    def _flag(self, node: ast.AST, what: str) -> None:
        if not self._waived(node.lineno):
            self.findings.append((node.lineno, what))

    # -- set tracking -----------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = _is_set_expr(node.value, self.set_names)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self.set_names.add(target.id)
                else:
                    self.set_names.discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            annotation = ast.unparse(node.annotation)
            if annotation.split("[")[0].rsplit(".", 1)[-1] in (
                "Set", "FrozenSet", "set", "frozenset",
            ):
                self.set_names.add(node.target.id)
            elif node.value is not None and _is_set_expr(
                node.value, self.set_names
            ):
                self.set_names.add(node.target.id)
            else:
                self.set_names.discard(node.target.id)
        self.generic_visit(node)

    # -- iteration sites --------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter, self.set_names):
            self._flag(node, f"for-loop iterates a set: {ast.unparse(node.iter)}")
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.AST) -> None:
        for generator in getattr(node, "generators", []):
            if _is_set_expr(generator.iter, self.set_names):
                self._flag(
                    node,
                    f"comprehension iterates a set: "
                    f"{ast.unparse(generator.iter)}",
                )
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in ("list", "tuple")
            and node.args
            and _is_set_expr(node.args[0], self.set_names)
        ):
            self._flag(
                node,
                f"{func.id}() materializes a set in raw order: "
                f"{ast.unparse(node.args[0])}",
            )
        self.generic_visit(node)

    # Nested functions get their own tracking scope.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._lint_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._lint_nested(node)

    def _lint_nested(self, node: ast.AST) -> None:
        nested = _FunctionLinter(self.path, self.lines)
        for child in ast.iter_child_nodes(node):
            nested.visit(child)
        self.findings.extend(nested.findings)


def lint_file(path: Path) -> List[Tuple[int, str]]:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    findings: List[Tuple[int, str]] = []
    # Module scope and each top-level function/class get a fresh linter;
    # _FunctionLinter recurses into nested defs itself.
    linter = _FunctionLinter(path, lines)
    for node in tree.body:
        linter.visit(node)
    findings.extend(linter.findings)
    return sorted(set(findings))


def main(argv: List[str]) -> int:
    targets = [Path(arg) for arg in argv] or [
        REPO_ROOT / name for name in DEFAULT_FILES
    ]
    total = 0
    per_file: Dict[Path, List[Tuple[int, str]]] = {}
    for path in targets:
        if not path.exists():
            print(f"lint_determinism: missing file {path}", file=sys.stderr)
            return 2
        per_file[path] = lint_file(path)
        total += len(per_file[path])
    for path, findings in per_file.items():
        for lineno, message in findings:
            print(f"{path}:{lineno}: {message} (wrap in sorted() or waive "
                  f"with '{WAIVER}')")
    if total:
        print(f"lint_determinism: {total} finding(s)", file=sys.stderr)
    else:
        checked = ", ".join(str(p.relative_to(REPO_ROOT)) if p.is_relative_to(REPO_ROOT) else str(p) for p in per_file)
        print(f"lint_determinism: clean ({checked})")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
