"""The qsphere benchmark: fixed lists of CLI jobs, one fresh interpreter each.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload rewrite|hopf-quotient|unitary-localize \
        --seed N --seconds S --trace 0|1

The load is a closed loop with one client: this process starts one job,
waits for it to exit, checks its verdict, then starts the next.  Each job
imports ``qsphere`` from the checkout's ``src/`` (nothing is installed), so
timed runs start cold, as a user's command does.  Bytecode is cached under
``.bench_build/`` by one untimed import before anything is measured.

``--trace 0`` repeats whole passes over the workload's jobs while the next
one is expected to end within ``--seconds`` (at least one pass), in an
order drawn from ``--seed``, and reports the end-to-end metrics: medians
over passes of the summed job wall time, summed job CPU time and the
largest job max-RSS; set-up time (interpreter start, ``import qsphere``
and ``presentations.build`` of the job's presentation, mq companion
included) summed over jobs, each the median of fresh set-ups made just
before the job in every pass; and the share of jobs that completed.
``--trace 1`` makes one untimed-by-tracer pass, then one pass with the
outside-in tracer of ``tracer.py``, and reports the per-layer metrics, the
``timing_ms`` of each ``verify`` check of the first pass and the tracing
overhead with its base.

Times are scaled to a fixed speed of the host.  The cores of the shared
host slow down by up to 1.6 times, each on its own, for seconds or minutes
at a time, so raw times of the same pass differ by up to a third from run to
run.  Every job and set-up process runs a speed probe (see ``job.py``), a
fixed kernel that slows down with the host as qsphere does, and its wall
and CPU times are multiplied by the mean over its probes of REF_PROBE_S
over the probe's duration: the times it would have taken on a host on
which the kernel takes REF_PROBE_S.  The raw times and the scale are
printed per job and kept in the details file.

A job that crashes, ends in a traceback or runs past its time limit is an
error; a job that ends with an answer other than the known one
(``verdicts.py``) is a wrong verdict and makes ``correct`` false.  The last
line of standard output is the JSON result; details of every job are
written to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import verdicts
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"

REF_PROBE_S = 200e-6  # the probe kernel on an idle 2.1 GHz Xeon core, Python 3.11
SETUPS_PER_JOB = 5  # per pass, spread over the run like the jobs
JOB_LIMIT_S = 150.0  # per job
RUN_LIMIT_S = 165.0  # per run; jobs that would start later count as timeouts

CHECK_NAMES = tuple(dict.fromkeys(c for cs in verdicts.ALL_CHECKS.values() for c in cs))

# tracer spans reported per layer; the metric drops the class from the name
_HOPF = ("delta_word", "antipode", "coproduct", "tensor_equal", "verify_hopf",
         "build_coaction", "solve_invariant_form")
SPAN_METRICS = [
    ("rewrite.RewriteSystem.normal_form", ("calls", "self_s")),
    ("rewrite.RewriteSystem.check_confluence", ("self_s",)),
    ("presentations.build", ("self_s",)),
    ("presentations.Presentation.is_zero_elem", ("calls", "self_s")),
    ("presentations.Presentation.quotient_reduce", ("calls", "self_s")),
    ("presentations.Presentation.clear_word", ("calls", "self_s")),
    *((f"hopf.{f}", ("calls", "self_s")) for f in _HOPF),
    ("rmatrix.check_cqt", ("calls", "self_s")),
    ("rmatrix.RFormEvaluator.eval_bar", ("calls", "self_s")),
    ("linalg.rref", ("calls", "self_s")),
    ("parser.parse_expr", ("self_s",)),
    ("parser.render", ("self_s",)),
]


def _child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONHASHSEED"] = "0"  # same set and dict orders on every run
    return env


def _spawn(tag, mode, args, limit_s, stdout_path=None):
    """Run job.py to completion; returns (record or None, wall_s, rusage, timed_out)."""
    result = WORK / f"{tag}.result.json"
    spans = WORK / "spans" / f"{tag}.json"
    if result.exists():
        result.unlink()
    cmd = [sys.executable, str(HERE / "job.py"), str(ROOT), str(result), mode,
           str(spans), "--", *args]
    out = open(stdout_path or os.devnull, "w")
    err = open(WORK / f"{tag}.err", "w")
    timed_out = threading.Event()
    try:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=_child_env(), cwd=str(WORK))

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(max(limit_s, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        out.close()
        err.close()
    record = None
    if result.exists():
        record = json.loads(result.read_text())
        record["setup_s"] = record["imported"] - start + record["build_s"]
    return record, wall, usage, timed_out.is_set()


def _read_reports(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _verdict(job, rc, stdout_path, reports):
    if job["kind"] == "verify":
        return verdicts.check_verify(job["algebra"], job["N"], job["checks"], rc, reports)
    text = stdout_path.read_text()
    if job["kind"] == "nf-deep":
        return verdicts.check_nf_deep(job["k"], rc, text)
    return verdicts.check_nf_q1(job["algebra"], job["N"], job["words"], rc, text)


def run_job(job, mode, deadline):
    """One job in a fresh interpreter; returns its outcome as a dict."""
    tag = f"{job['name']}.{mode}"
    stdout_path = WORK / f"{tag}.out"
    report_path = WORK / f"{tag}.report.json"
    if report_path.exists():
        report_path.unlink()
    argv = list(job["argv"])
    if job["kind"] == "verify":
        argv += ["--json", str(report_path)]
    outcome = {"job": job["name"], "mode": mode, "error": None, "wrong": None,
               "check_s": {}, "probes": []}
    limit = min(JOB_LIMIT_S, deadline - time.monotonic())
    if limit <= 0:
        outcome.update(error="timeout: run time limit reached before start",
                       wall_s=0.0, cpu_s=0.0, rss_mb=0.0)
        return outcome
    record, wall, usage, timed_out = _spawn(tag, mode, argv, limit, stdout_path)
    outcome.update(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                   rss_mb=usage.ru_maxrss / 1024.0)
    if timed_out:
        outcome["error"] = f"timeout after {limit:.0f} s"
    elif record is None:
        outcome["error"] = "crashed: " + (WORK / f"{tag}.err").read_text()[-300:]
    elif record["error"] is not None:
        outcome["error"] = record["error"]
    else:
        reports = _read_reports(report_path) if job["kind"] == "verify" else None
        outcome["wrong"] = _verdict(job, record["rc"], stdout_path, reports)
        if outcome["wrong"] is None and reports is not None:
            outcome["check_s"] = {
                r["check"]: r.get("timing_ms", 0) / 1000.0 for r in reports}
    if record is not None:
        outcome["trace"] = record.get("trace")
        outcome["probes"] = record["probes"]
    return outcome


def set_up(job):
    """One fresh set-up of the job's presentation: interpreter start,
    ``import qsphere`` and ``presentations.build``; returns its seconds
    and probes."""
    record, _, _, _ = _spawn(f"{job['name']}.setup", "setup",
                             [job["algebra"], str(job["N"])], JOB_LIMIT_S)
    if record is None or record["error"] is not None:
        raise RuntimeError(f"set-up of {job['name']} failed: {record}")
    return {"setup_s": record["setup_s"], "probes": record["probes"]}


def scale_to_reference(items):
    """Set item["scale"] for every job outcome or set-up of a run: the mean
    over its probes of REF_PROBE_S over the probe's duration.  An item
    without probes gets the mean over all probes of the run."""
    durations = [d for item in items for d in item["probes"]]
    if not durations:
        raise RuntimeError("no speed probes recorded in this run")
    overall = statistics.fmean(REF_PROBE_S / d for d in durations)
    for item in items:
        item["scale"] = (statistics.fmean(REF_PROBE_S / d for d in item["probes"])
                         if item["probes"] else overall)


def run_pass(jobs, mode, rng, deadline, setups=None):
    """Every job once, in an order drawn from rng.  With ``setups``, each job
    is preceded by SETUPS_PER_JOB set-ups whose times are added to it."""
    order = list(jobs)
    rng.shuffle(order)
    outcomes = []
    for job in order:
        if setups is not None:
            setups.setdefault(job["name"], []).extend(
                set_up(job) for _ in range(SETUPS_PER_JOB))
        outcomes.append(run_job(job, mode, deadline))
    return outcomes


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _scaled(o, key):
    return o[key] * o["scale"]


def end_to_end(passes, setups):
    def median_over_passes(per_pass):
        return statistics.median(per_pass(p) for p in passes)

    outcomes = [o for p in passes for o in p]
    return {
        "wall_s": _metric(median_over_passes(
            lambda p: sum(_scaled(o, "wall_s") for o in p)), "s"),
        "cpu_s": _metric(median_over_passes(
            lambda p: sum(_scaled(o, "cpu_s") for o in p)), "s"),
        "setup_s": _metric(sum(
            statistics.median(_scaled(s, "setup_s") for s in runs)
            for runs in setups.values()), "s"),
        "peak_rss_mb": _metric(median_over_passes(lambda p: max(o["rss_mb"] for o in p)), "MB"),
        "completed_share": _metric(
            sum(o["error"] is None for o in outcomes) / len(outcomes), "ratio"),
    }


def _share(part, whole):
    return part / whole if whole else 0.0


def per_layer(plain, traced):
    stats = {}
    totals = {}
    for o in traced:
        t = o.get("trace") or {}
        for name, (calls, total, self_s) in t.get("spans", {}).items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for key, val in t.items():
            if key != "spans":
                totals[key] = totals.get(key, 0) + val
    m = {}
    for span, fields in SPAN_METRICS:
        n, _, self_s = stats.get(span, (0, 0.0, 0.0))
        layer, *_, fn = span.split(".")
        for field in fields:
            m[f"{layer}.{fn}.{field}"] = (
                _metric(n, "count") if field == "calls" else _metric(self_s, "s"))
    def total(key):
        return totals.get(key, 0)

    def calls(span):
        return stats.get(span, (0,))[0]

    ops = total("scalar_ops")
    m["scalars.ops"] = _metric(ops, "count")
    m["scalars.laurent_share"] = _metric(_share(total("scalar_laurent_ops"), ops), "ratio")
    m["scalars.den_len_mean"] = _metric(_share(total("scalar_den_len"), 2 * ops), "coeffs")
    m["rewrite.nf_cache_words"] = _metric(total("nf_cache_words"), "count")
    m["rmatrix.eval_words.memo_entries"] = _metric(total("eval_words_memo"), "count")
    m["linalg.rref.entries"] = _metric(total("rref_entries"), "count")
    m["hopf.tensor_equal.free_equal_share"] = _metric(
        _share(total("tensor_equal_free_equal"), calls("hopf.tensor_equal")), "ratio")
    m["hopf.antipode.repeat_share"] = _metric(
        _share(total("antipode_repeats"), calls("hopf.antipode")), "ratio")
    m["rmatrix.eval_bar.repeat_share"] = _metric(
        _share(total("eval_bar_repeats"), calls("rmatrix.RFormEvaluator.eval_bar")), "ratio")
    for check in CHECK_NAMES:
        m[f"cli.check.{check}_s"] = _metric(
            sum(o["check_s"].get(check, 0.0) for o in plain), "s")
    plain_wall = sum(_scaled(o, "wall_s") for o in plain)
    traced_wall = sum(_scaled(o, "wall_s") for o in traced)
    m["trace.untraced_wall_s"] = _metric(plain_wall, "s")
    m["trace.traced_wall_s"] = _metric(traced_wall, "s")
    m["trace.overhead_ratio"] = _metric(_share(traced_wall, plain_wall), "ratio")
    both = plain + traced
    errors = sum(o["error"] is not None for o in both)
    m["jobs.error_share"] = _metric(_share(errors, len(both)), "ratio")
    m["jobs.wrong_verdicts"] = _metric(sum(o["wrong"] is not None for o in both), "count")
    return m


def _show(outcomes):
    for o in outcomes:
        status = o["error"] or (f"WRONG: {o['wrong']}" if o["wrong"] else "ok")
        print(f"  {o['mode']:5} {o['job']:28} wall {o['wall_s']:8.3f} s  "
              f"cpu {o['cpu_s']:8.3f} s  scale {o['scale']:5.3f}  "
              f"rss {o['rss_mb']:7.1f} MB  {status}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # a terminated run still stops the job it is waiting for (see _spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "qsphere" / "__init__.py").is_file():
        print(f"no qsphere sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    # one untimed import fills the bytecode cache and proves the sources load
    record, _, _, _ = _spawn("warmup", "setup", ["mq", "1"], JOB_LIMIT_S)
    if record is None or record["error"] is not None:
        print("qsphere does not import and build; see .bench_build/perfbench/warmup.err",
              file=sys.stderr)
        return 1

    jobs = WORKLOADS[args.workload](args.seed)
    rng = random.Random(args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {len(jobs)} jobs, trace {args.trace}")
    if args.trace:
        plain = run_pass(jobs, "run", rng, deadline)
        traced = run_pass(jobs, "trace", rng, deadline)
        outcomes = plain + traced
        scale_to_reference(outcomes)
        _show(outcomes)
        metrics = per_layer(plain, traced)
    else:
        setups = {}
        passes = []
        start = time.monotonic()
        while True:
            passes.append(run_pass(jobs, "run", rng, deadline, setups))
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        outcomes = [o for p in passes for o in p]
        scale_to_reference(outcomes + [s for runs in setups.values() for s in runs])
        for p in passes:
            _show(p)
        metrics = end_to_end(passes, setups)
        print(f"  {len(passes)} passes; median raw set-up per job: " + ", ".join(
            f"{k} {statistics.median(s['setup_s'] for s in v):.4f} s"
            for k, v in setups.items()))
    failed = sum(o["error"] is not None for o in outcomes)
    wrong = [o for o in outcomes if o["wrong"] is not None]
    result = {
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    details = {"args": vars(args), "outcomes": [
        {k: v for k, v in o.items() if k not in ("trace", "probes")} for o in outcomes],
        "result": result}
    (WORK / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(details, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
