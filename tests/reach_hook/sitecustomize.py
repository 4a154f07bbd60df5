"""Record which ``repro`` functions this interpreter calls.

``site`` imports this module at start-up when its directory is on
``PYTHONPATH``; it does nothing unless ``REPRO_REACH_DIR`` names a
directory.  Then every thread's calls are profiled and, at exit, the
``[file, first line]`` of each function called from a ``repro`` package
is written to a new JSON file in that directory -- one per process, so
daemons and spawned workers contribute too.  A process killed by a
signal writes nothing.  ``tests/reachability.py`` sets both up.
"""

import atexit
import json
import os
import sys
import tempfile
import threading

_DIR = os.environ.get("REPRO_REACH_DIR")

if _DIR:
    _called = set()

    def _profile(frame, event, arg):
        if event == "call":
            _called.add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        threading.setprofile(None)
        marker = os.sep + "repro" + os.sep
        reached = sorted(
            {
                (os.path.realpath(code.co_filename), code.co_firstlineno)
                for code in _called
                if marker in code.co_filename
            }
        )
        fd, _ = tempfile.mkstemp(suffix=".json", dir=_DIR)
        with os.fdopen(fd, "w") as out:
            json.dump(reached, out)

    atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
