"""Cost counted instead of timed: what one call runs, in lines of Python.

Line events differ between interpreter versions: compare two counts taken
on the same interpreter, never assert one as a number.
"""

import inspect
import os
import sys
from types import SimpleNamespace

import repro


def counted(call, where=repro, calls=None) -> SimpleNamespace:
    """Run ``call()`` once under ``sys.settrace``.

    Returns ``value`` (what it returned), ``lines`` (the ``line`` events in
    the files of ``where``, a module or a package -- every Python-level
    loop iteration is at least one) and ``calls``: for each ``name:
    function`` of ``calls``, how often that Python function was entered.
    The tracer set before (a coverage run's) is put back afterwards.
    """
    path = os.path.abspath(where.__file__)
    if os.path.basename(path) == "__init__.py":
        path = os.path.dirname(path) + os.sep  # a package: every file under it
    calls = calls or {}
    codes = {inspect.unwrap(f).__code__: name for name, f in calls.items()}
    entered = dict.fromkeys(calls, 0)
    lines = [0]

    def count_line(frame, event, arg):
        lines[0] += event == "line"
        return count_line

    def trace(frame, event, arg):
        name = codes.get(frame.f_code)
        if name is not None:
            entered[name] += 1
        if frame.f_code.co_filename.startswith(path):
            return count_line
        return None

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        value = call()
    finally:
        sys.settrace(outer)
    return SimpleNamespace(value=value, lines=lines[0], calls=entered)
