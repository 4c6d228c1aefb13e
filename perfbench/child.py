"""Runs one ``axrel`` command in this fresh interpreter, as a user would.

Usage: ``python3 perfbench/child.py SRC_DIR TRACE_FILE|- ARG...``

Times the import of ``axrel.cli`` and the call ``axrel.cli.main(ARGS)``
apart, then times the host-speed calibration (``calib.py``, the
``memory`` kind, which tracks fresh interpreters), captures the command's stdout, stderr and exit code (an uncaught
exception exits 1 with its traceback, as the ``axrel`` script would), and
prints one JSON record.  With a TRACE_FILE the program is traced after
import; the per-layer totals go into the record and the spans into the
file.
"""

import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout


def main():
    src, trace_file, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import axrel.cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(axrel.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit("axrel was imported from %s, not %s" % (axrel.cli.__file__, src))

    tracer = None
    if trace_file != "-":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer().install()

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t1 = time.perf_counter()
        try:
            code = axrel.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            if isinstance(exc.code, str):
                err.write(exc.code + "\n")
        except Exception:
            err.write(traceback.format_exc())
            code = 1
        command_s = time.perf_counter() - t1
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # Calibrated last, so its imports and allocations touch neither the
    # timed import nor the peak memory.
    t_cal = time.perf_counter()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import calib
    cal = calib.sample("memory", repeats=5)
    cal_cost = time.perf_counter() - t_cal

    record = {
        "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
        "import_s": import_s, "command_s": command_s, "rss_kb": rss_kb,
        "scale": calib.scale("memory", cal), "calib_cost_s": cal_cost,
    }
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.snapshot()
        tracer.write_spans(trace_file)
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
