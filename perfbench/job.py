"""Run one qsphere CLI job, or one set-up, in this fresh interpreter.

Usage: python3 job.py ROOT RESULT MODE SPANS -- ARGS...

Imports ``qsphere`` from ROOT/src and times the import and every outermost
call of ``presentations.build``; then, by MODE:

* ``run``: runs ``qsphere.cli.main(ARGS)``; its output goes to this
  process's stdout.
* ``trace``: the same with the layer tracer installed first; its summary
  goes into the record and its spans are written to SPANS.
* ``setup``: only builds the presentation ARGS = ALGEBRA N, as the CLI
  does before its first check.

A JSON record of times, exit code and error goes to RESULT, with the
durations of the speed probe: a thread that times a fixed unit of work
every PROBE_EVERY_S seconds from the start of this script to the end of
the job.  The cores of a shared host slow down and speed up, for seconds
or minutes at a time; the probe, run on the job's own core in the job's
own process, tells ``run.py`` how fast that core was while the job ran.
"""

import threading
import time
from fractions import Fraction

STARTED = time.monotonic()
PROBE_EVERY_S = 0.02
_PROBE_FACTOR = {(1,): Fraction(1, 3), (2,): Fraction(-2, 5), (): Fraction(1)}


def _probe_unit():
    """A fourth power of a sparse polynomial with Fraction coefficients and
    sorted-tuple monomials: the kind of work the rewriter does, so that the
    probe slows down with the host as the job does.  It uses no qsphere
    code, so a change to the program does not move it."""
    p = {(): Fraction(1)}
    for _ in range(4):
        r = {}
        for k1, c1 in p.items():
            for k2, c2 in _PROBE_FACTOR.items():
                k = tuple(sorted(k1 + k2))
                r[k] = r.get(k, 0) + c1 * c2
        p = r


def _probe(durations, stop):
    while not stop.wait(PROBE_EVERY_S):
        start = time.perf_counter()
        _probe_unit()
        durations.append(time.perf_counter() - start)


PROBES = []
STOP_PROBE = threading.Event()
PROBE = threading.Thread(target=_probe, args=(PROBES, STOP_PROBE), daemon=True)
PROBE.start()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _time_builds(modules, build, record):
    """Replace every binding of ``build`` with one that adds the time of
    outermost calls to record["build_s"] (suq and uq build mq inside)."""
    depth = [0]

    def timed(*args, **kwargs):
        depth[0] += 1
        start = time.perf_counter()
        try:
            return build(*args, **kwargs)
        finally:
            depth[0] -= 1
            if not depth[0]:
                record["build_s"] += time.perf_counter() - start

    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is build:
                setattr(mod, key, timed)


def main(argv):
    root, result_path, mode, spans_path, sep, *args = argv
    if sep != "--" or mode not in ("run", "trace", "setup"):
        raise SystemExit("usage: job.py ROOT RESULT run|trace|setup SPANS -- ARGS...")
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    record = {"started": STARTED, "build_s": 0.0, "rc": None, "error": None}
    import qsphere
    import qsphere.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(qsphere.__file__))) != src:
        raise SystemExit(f"imported qsphere from {qsphere.__file__}, not from {src}")
    record["imported"] = time.monotonic()
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "qsphere"]
    tracer = None
    if mode == "trace":
        from tracer import Tracer  # this script's directory leads sys.path

        tracer = Tracer().install()
    _time_builds(modules, qsphere.presentations.build, record)
    try:
        if mode == "setup":
            qsphere.presentations.build(args[0], int(args[1]))
            record["rc"] = 0
        else:
            record["rc"] = qsphere.cli.main(args)
    except Exception as exc:  # the CLI would end in a traceback here
        record["error"] = f"{type(exc).__name__}: {str(exc)[:200]}"
    sys.stdout.flush()
    STOP_PROBE.set()
    PROBE.join()
    record["probes"] = PROBES
    if tracer is not None:
        record["trace"] = tracer.summary()
        with open(spans_path, "w") as fh:
            json.dump({"job": os.path.basename(spans_path), "spans": tracer.spans}, fh)
    with open(result_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
