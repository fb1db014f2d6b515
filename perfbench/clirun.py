"""Runs `python -m capstation ARGS...` under the speed sampler.

    PERFBENCH_SAMPLES=FILE python3 perfbench/clirun.py monitor --trace - ...

The CLI runs unchanged in this process; at exit the sampler's pass count
and total pass time, and the process's peak RSS, are written to FILE as JSON.
"""

import atexit
import json
import os
import runpy
import sys

import speed

# Set-up runs (monitor on the nominal trace) sample more often; see speed.py.
_every = speed.SETUP_SAMPLE_EVERY_S if os.environ.get("PERFBENCH_SETUP") else speed.SAMPLE_EVERY_S
_sampler = speed.Sampler(_every).start()


@atexit.register
def _dump() -> None:
    _sampler.stop()
    with open(os.environ["PERFBENCH_SAMPLES"], "w", encoding="utf-8") as fp:
        json.dump({"passes_s": _sampler.total_s, "count": _sampler.count, "rss_mb": speed.peak_rss_mb()}, fp)


sys.argv = ["capstation", *sys.argv[1:]]
runpy.run_module("capstation", run_name="__main__", alter_sys=True)
