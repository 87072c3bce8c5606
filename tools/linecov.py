"""Statement coverage of one source file or directory under a pytest run.

The CI floors use ``pytest-cov``, which an offline machine may lack.  This
is the stdlib fallback: a ``sys.settrace`` line recorder over ``SOURCE`` (one
``.py`` file, or every one under a directory) and an ``ast`` count of their
statements.

    python tools/linecov.py src/repro/core/queues -q tests/core
    python tools/linecov.py src/repro/runtime --fail-under 85 -q
    python tools/linecov.py src/repro/runtime/ingress.py -q tests/runtime/test_ingress.py

Everything after ``SOURCE`` (and ``--fail-under N``) goes to pytest.  A
statement is an ``ast.stmt`` that is not a docstring and does not sit under a
line marked ``pragma: no cover``; it is covered when its first line ran.  The
count is close to coverage.py's, not identical (no branch or ``else`` arcs).
A ``SOURCE`` with no statements at all (a typo, an empty directory) is an
error, not a pass.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path


def statement_lines(path: Path) -> set[int]:
    """First lines of the executable statements in ``path``."""
    source = path.read_text()
    text = source.splitlines()
    lines: set[int] = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                if "pragma: no cover" in text[child.lineno - 1]:
                    continue  # the statement and everything under it
                docstring = isinstance(child, ast.Expr) and isinstance(
                    getattr(child.value, "value", None), str
                )
                if not docstring:
                    lines.add(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    source = Path(argv[0]).resolve()
    rest = argv[1:]
    floor = 0.0
    if rest[:1] == ["--fail-under"]:
        floor, rest = float(rest[1]), rest[2:]
    prefix = str(source)
    ran: defaultdict[str, set[int]] = defaultdict(set)

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(rest)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    if source.is_file():
        root, paths = source.parent, [source]
    else:
        root, paths = source, sorted(source.rglob("*.py"))
    total = covered = 0
    for path in paths:
        statements = statement_lines(path)
        hit = statements & ran[str(path)]
        missed = sorted(statements - hit)
        total += len(statements)
        covered += len(hit)
        print(f"{path.relative_to(root)!s:28} {len(hit):5} / {len(statements):5}  missed: {missed}")
    if not total:
        print(f"no statements under {source}", file=sys.stderr)
        return 2
    percent = 100.0 * covered / total
    print(f"TOTAL {covered} / {total} statements = {percent:.1f}% (floor {floor:g}%)")
    return int(status) or int(percent < floor)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
