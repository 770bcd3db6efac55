"""Which statements of chosen functions a run executes, by ``sys.settrace``.

A statement is keyed by its function's qualified name and its first source
line, stripped (``("Pool.add", "self._tally = None")``), so a key survives
an edit that moves lines.  A compound statement (``if``, ``for``, ``while``,
``with``) counts as run when its header runs; a ``try`` is not a statement
of its own, and a function's docstring is none.  Only the frames of the
chosen functions are traced line by line, so a traced run costs one Python
call per function call outside them.

    with LineCounter([netsim.Pool.add, engine.on_step_deadline]) as lines:
        scenario.run_simulate(cfg)
    lines.unrun()  # [(qualname, text), ...] never run, in source order
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap


def _statements(fn) -> list[tuple[range, str, str]]:
    """(header lines, qualname, text) of every statement in ``fn``'s body,
    nested ones included, in source order."""
    lines, first = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    body = tree.body[0].body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    found = []

    def visit(stmts):
        for stmt in stmts:
            inner = [getattr(stmt, name, []) for name in ("body", "orelse", "finalbody")]
            inner += [h.body for h in getattr(stmt, "handlers", [])]
            if not isinstance(stmt, ast.Try):
                if isinstance(stmt, (ast.If, ast.For, ast.While, ast.With)):
                    end = max(stmt.lineno, stmt.body[0].lineno - 1)
                else:
                    end = stmt.end_lineno
                text = lines[stmt.lineno - 1].strip()
                found.append((range(stmt.lineno + first - 1, end + first), fn.__qualname__, text))
            for block in inner:
                visit(block)

    visit(body)
    return found


class LineCounter:
    """Records the lines run in the frames of ``functions`` while active."""

    def __init__(self, functions):
        self._statements = [(fn.__code__, s) for fn in functions for s in _statements(fn)]
        self._hits = {fn.__code__: set() for fn in functions}
        # One line tracer per traced function, so that a call event does no
        # more than one dict lookup.
        tracers = {code: _line_tracer(hits) for code, hits in self._hits.items()}
        self._call = lambda frame, event, arg, get=tracers.get: get(frame.f_code)

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)

    def unrun(self) -> list[tuple[str, str]]:
        """(qualname, text) of every statement no traced frame ran."""
        return [(name, text) for code, (span, name, text) in self._statements
                if not any(line in self._hits[code] for line in span)]


def _line_tracer(hits: set):
    def line(frame, event, arg, add=hits.add):
        if event == "line":
            add(frame.f_lineno)
        return line

    return line
