"""Run one ``quasiloop`` CLI call and time its parts.

Usage: ``cli_driver.py TIMINGS_JSON TRACE(0|1) ARGV...``.  Writes
``import_s`` (``import quasiloop.cli``), ``main_s`` (``main(argv)``) and,
with TRACE=1, the per-layer aggregates of the call to TIMINGS_JSON, then
exits with ``main``'s code.  Stdout is the CLI's own.
"""

import json
import sys
import time

start = time.perf_counter()
import quasiloop.cli  # noqa: E402

imported = time.perf_counter()
tracer = None
if sys.argv[2] == "1":
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
begin = time.perf_counter()
code = quasiloop.cli.main(sys.argv[3:])
end = time.perf_counter()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"import_s": imported - start, "main_s": end - begin,
               "aggregates": tracer.aggregates() if tracer else None}, fh)
sys.exit(code)
