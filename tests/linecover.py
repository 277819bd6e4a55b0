"""A pytest plugin that fails the run when a line of src/sgforge never runs.

Off by default; load it by name, with tests/ on the path:

    PYTHONPATH=src:tests python -m pytest -p linecover

It traces with `sys.settrace` from before the first conftest or test
module is imported, and records every line of src/sgforge that
runs in this process. At the end it lists each line that holds code but
never ran, and makes the exit status 1 when there is one. A line listed in
EXCLUDED is not required, but an excluded line that does run is reported
too, so that the list does not outlive its reasons. Code run in a child
process (the CLI tests' subprocesses) is not seen.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "sgforge"

# file -> (first line, last line, reason): the lines from the first through
# the last, each given as its exact text without indentation
EXCLUDED = {
    "cli.py": [
        ("spec = importlib.util.find_spec(name)", "return module",
         "`_lazy`'s loading branch runs once per process, at the first import of "
         "cli, and test modules imported before it have already loaded model and "
         "train; the CLI tests' subprocesses run it"),
        ("sys.exit(main())", "sys.exit(main())",
         "runs only as `python -m sgforge.cli`, which no test does in process: "
         "runpy would run cli a second time beside the imported one"),
    ],
}


def _own_lines(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line}  # a module starts at line 0


def _code_lines(code) -> set[int]:
    """The lines that hold code, in `code` and every code object nested in it."""
    lines = _own_lines(code)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _excluded(name: str, text: list[str]) -> dict[int, str]:
    """{line number: reason} for the file's EXCLUDED ranges; each end must
    name exactly one line of the file."""
    stripped = [line.strip() for line in text]
    out = {}
    for first, last, reason in EXCLUDED.get(name, []):
        ends = []
        for end in (first, last):
            at = [i for i, line in enumerate(stripped, start=1) if line == end]
            if len(at) != 1:
                raise pytest.UsageError(f"linecover: {name} has {len(at)} lines {end!r}")
            ends.append(at[0])
        out.update(dict.fromkeys(range(ends[0], ends[1] + 1), reason))
    return out


class LineCover:
    """Records the src/sgforge lines that run; reports at the session's end."""

    def __init__(self):
        self.code_lines = {}  # real path -> lines that hold code
        self.seen = {}  # real path -> lines that ran
        for path in sorted(SOURCE.glob("*.py")):
            real = os.path.realpath(path)
            self.code_lines[real] = _code_lines(compile(path.read_text(), real, "exec"))
            self.seen[real] = set()
        self._paths = {}  # co_filename -> real path, or None outside src/sgforge
        self._left = {}  # code object -> its lines not yet seen

    def trace(self, frame, event, arg):
        code = frame.f_code
        path = self._paths.get(code.co_filename, False)
        if path is False:
            real = os.path.realpath(code.co_filename)
            path = self._paths[code.co_filename] = real if real in self.seen else None
        if path is None:
            return None
        left = self._left.get(code)
        if left is None:
            left = self._left[code] = _own_lines(code) - self.seen[path]
        if not left:  # every line of this code has run: stop tracing it
            return None
        seen = self.seen[path]

        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            left.discard(frame.f_lineno)
            return local

        return local(frame, event, arg)

    def problems(self) -> list[str]:
        found = []
        for real, lines in self.code_lines.items():
            name = os.path.basename(real)
            with open(real, encoding="utf-8") as f:
                excluded = _excluded(name, f.read().splitlines())
            missed = sorted(lines - self.seen[real] - excluded.keys())
            found += [f"src/sgforge/{name}:{n}: never ran" for n in missed]
            stale = sorted(excluded.keys() & self.seen[real])
            found += [f"src/sgforge/{name}:{n}: excluded but ran ({excluded[n]})"
                      for n in stale]
        return found

    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        found = self.problems()
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.write_sep("=", f"linecover: {len(found)} problems in src/sgforge")
            for line in found:
                reporter.write_line(line)
        if found and session.exitstatus == 0:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config):
    """Start tracing before any conftest or test module imports sgforge."""
    cover = LineCover()
    early_config.pluginmanager.register(cover, "linecover-session")
    sys.settrace(cover.trace)
