"""Which executable lines of ``src/flatrank`` run under ``cli.main``, and which only outside it.

A pytest plugin, run by hand and never collected as a test::

    PYTHONPATH=src:tests python -m pytest -p cli_reach -q

It traces every test with ``sys.settrace`` and books each line of the
package that runs to one of two sets: lines run while ``cli.main`` is on the
stack, and lines run with no ``cli.main`` frame.  At the end it prints, per
module, how many executable lines each set holds, how many run only outside
``cli.main`` (reached by unit tests, never by the command) and how many never
run, and the line ranges of the first two kinds it lists; with
``CLI_REACH_JSON=FILE`` it also writes every module's three line lists.

Executable lines are those of the package's functions (``co_lines`` of
their code objects), so a docstring or comment is never one, and neither is
a module or class body, which runs once, on import, before any test.
Commands run in a subprocess are not traced.  Hypothesis' ``explain`` phase
sets a trace function of its own, so the plugin turns that phase off, and it
re-arms the tracer before each test.  Tracing makes the suite several times
slower.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import threading
from pathlib import Path

import flatrank
import flatrank.cli

PACKAGE = str(Path(flatrank.__file__).resolve().parent) + os.sep
MAIN = flatrank.cli.main.__code__

under: set[tuple[str, int]] = set()
outside: set[tuple[str, int]] = set()


def _recorder(lines: set):
    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    return local


_UNDER, _OUTSIDE = _recorder(under), _recorder(outside)


def _tracer(frame, event, arg):
    """The global trace function: a package frame's lines go to ``under`` or ``outside``."""
    if not frame.f_code.co_filename.startswith(PACKAGE):
        return None
    caller = frame
    while caller is not None and caller.f_code is not MAIN:
        caller = caller.f_back
    lines = under if caller is not None else outside
    lines.add((frame.f_code.co_filename, frame.f_code.co_firstlineno if event == "call" else frame.f_lineno))
    return _UNDER if lines is under else _OUTSIDE


def _executable(path: Path) -> set[int]:
    """Line numbers of ``path`` that its functions' code objects can run."""
    found, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            found.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [c for c in code.co_consts if inspect.iscode(c)]
    return found


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for n in lines:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def pytest_configure(config):
    from hypothesis import Phase, settings

    settings.register_profile("cli_reach", phases=[p for p in Phase if p is not Phase.explain])
    settings.load_profile("cli_reach")


def pytest_runtest_setup(item):
    sys.settrace(_tracer)
    threading.settrace(_tracer)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    write = terminalreporter.write_line
    report, totals = {}, [0, 0, 0, 0]
    write("")
    write(f"{'module':<14}{'lines':>7}{'cli':>7}{'tests':>7}{'never':>7}   (executable lines of src/flatrank)")
    for path in sorted(Path(PACKAGE).glob("*.py")):
        lines = _executable(path)
        cli = sorted(n for n in lines if (str(path), n) in under)
        tests = sorted(n for n in lines if (str(path), n) in outside and (str(path), n) not in under)
        never = sorted(lines - set(cli) - set(tests))
        report[path.name] = {"cli": cli, "tests_only": tests, "never": never}
        counts = [len(lines), len(cli), len(tests), len(never)]
        totals = [t + c for t, c in zip(totals, counts)]
        write(f"{path.name:<14}" + "".join(f"{c:>7}" for c in counts))
    write(f"{'total':<14}" + "".join(f"{c:>7}" for c in totals))
    for name, kinds in report.items():
        for kind in ("tests_only", "never"):
            if kinds[kind]:
                write(f"{name} {kind.replace('_', ' ')}: {_ranges(kinds[kind])}")
    if os.environ.get("CLI_REACH_JSON"):
        Path(os.environ["CLI_REACH_JSON"]).write_text(json.dumps(report, indent=1) + "\n")
