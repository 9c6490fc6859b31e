"""Reachability census hook: record every ``src/repro`` function that runs.

Put this directory first on ``PYTHONPATH`` and name an output directory
in ``REACH_OUT``; every Python process started that way then installs a
``sys.setprofile`` / ``threading.setprofile`` hook that records each
function it enters under a ``src/repro`` directory as
``file<TAB>first line<TAB>name`` (``co_firstlineno``, so a decorated
function is keyed by its first decorator).  Without ``REACH_OUT`` the
hook is not installed.

Each process appends to its own file, ``reach-<pid>.txt``, and writes a
record the first time it sees a function, flushed at once.  So a forked
shard worker — which inherits the hook and ends by ``SIGTERM`` or
``os._exit``, never through ``atexit`` — keeps what it ran.

    PYTHONPATH=tools/reach:src REACH_OUT=reach/query python -m bench.run --smoke
    python tools/reach/report.py --reached reach/query
"""

import os
import sys
import threading

_OUT = os.environ.get("REACH_OUT")
#: what marks an engine source file, in whichever checkout it was imported from
_MARK = os.sep + os.path.join("src", "repro") + os.sep


def _install(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    seen = set()  # code objects already recorded (by this process or its parent)
    sink = {"pid": None, "file": None}

    def record(code) -> None:
        pid = os.getpid()
        if sink["pid"] != pid:  # first record of this process (or of a fork)
            sink["pid"] = pid
            sink["file"] = open(os.path.join(out_dir, f"reach-{pid}.txt"), "a")
        f = sink["file"]
        f.write(f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_name}\n")
        f.flush()

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in seen:
            return
        seen.add(code)
        if _MARK in code.co_filename:
            record(code)

    sys.setprofile(hook)
    threading.setprofile(hook)


if _OUT:
    _install(os.path.abspath(_OUT))
