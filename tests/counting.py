"""Cost counted instead of timed: what one call runs, in lines of Python
and in calls made.

Line and call events differ between interpreter and numpy versions:
compare two counts taken on the same interpreter, or bound one loosely
(docs/testing.md gives each gate's margin), never assert one exactly.
"""

import inspect
import os
import sys
from types import SimpleNamespace

import repro


def counted(call, where=repro, calls=None) -> SimpleNamespace:
    """Run ``call()`` once under ``sys.settrace`` and ``sys.setprofile``.

    Returns ``value`` (what it returned), ``lines`` (the ``line`` events in
    the files of ``where``, a module or a package -- every Python-level
    loop iteration is at least one), ``made``: every Python-level call
    (``call`` events) and every C-level one (``c_call`` events: a numpy
    function or method, a builtin) the call made, anywhere, and ``calls``:
    for each ``name: function`` of ``calls``, how often that Python
    function was entered.  The tracer and profiler set before (a coverage
    run's) are put back afterwards.
    """
    path = os.path.abspath(where.__file__)
    if os.path.basename(path) == "__init__.py":
        path = os.path.dirname(path) + os.sep  # a package: every file under it
    calls = calls or {}
    codes = {inspect.unwrap(f).__code__: name for name, f in calls.items()}
    entered = dict.fromkeys(calls, 0)
    lines = [0]
    made = [0]

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

    def profile(frame, event, arg):
        made[0] += event == "call" or event == "c_call"

    outer, outer_profile = sys.gettrace(), sys.getprofile()
    sys.settrace(trace)
    sys.setprofile(profile)
    try:
        value = call()
    finally:
        sys.setprofile(outer_profile)
        sys.settrace(outer)
    # the two hook swaps of the ``finally`` are C calls the call never made
    return SimpleNamespace(
        value=value, lines=lines[0], made=made[0] - 1, calls=entered)
