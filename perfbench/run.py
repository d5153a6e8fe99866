#!/usr/bin/env python3
"""Service benchmark: build, run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload steady-write --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of the repository (or any checkout of it).  The first run
builds the repo's libraries, the unchanged udc_svc_node replica and the
benchmark's programs into .bench_build/ (perfbench/CMakeLists.txt); later
runs rebuild incrementally.

Every run starts with the benchmark's self-tests, then drives one workload
against fresh three-replica fleets (src/svcbench.cc) and gates it on the
unchanged checkers.  With --trace 0 the last line of standard output is the
end-to-end result; with --trace 1 the run records spans and replays the
run's traffic through each layer (src/svcreplay.cc), and the last line
carries the per-layer metrics.  The full result, with provenance, goes to
.bench_build/results/ and the spans to .bench_build/traces/.  See
perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "cmake")
TARGETS = ["udc_svc_node", "svcbench", "svcreplay", "svcbench_selftest"]
RUN_TIMEOUT_S = 150
BUILD_TYPE = "RelWithDebInfo"

WORKLOADS = ["steady-write", "lease-read", "leader-kill"]

# Also printed, by name with units, after BENCHMARK.json's end-to-end
# metrics in the human-readable table.
E2E_EXTRA = [
    ("failed_frac", "ratio"),
    ("unavail_ms", "ms"),
    ("lat_p999_ms", "ms"),
]

# Shown after BENCHMARK.json's per-layer metrics but not part of the result
# line: defined only on leader-kill, and a constant 0 elsewhere.
LAYER_EXTRA = [("svc.node.catchup_ms", "ms")]


def load_metrics():
    """(end_to_end, per_layer) as (name, unit) lists from BENCHMARK.json,
    which defines the metrics of the result line."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple([(m["name"], m["unit"]) for m in spec[key]]
                 for key in ("end_to_end", "per_layer"))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, log_path, timeout):
    with open(log_path, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode


def build():
    """Configures (once) and builds every target; exits 2 on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    build_log = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS)
    for cmd in steps:
        try:
            rc = run_quiet(cmd, build_log, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            rc = str(e)
        if rc != 0:
            log("perfbench: build failed (%s): %s" % (rc, " ".join(cmd)))
            try:
                with open(build_log) as f:
                    log("".join(f.readlines()[-30:]))
            except OSError:
                pass
            sys.exit(2)


def run_group(cmd, timeout):
    """Runs cmd in its own process group; kills and reaps the whole group
    (the fleet's replicas included) on return.  Returns the exit code, or
    None on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=sys.stderr, stderr=sys.stderr)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # Replicas orphaned by a crashed supervisor are reaped by init; wait
        # until none of the group is left.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    return rc


def selftest():
    return run_group([os.path.join(BUILD, "svcbench_selftest")], timeout=60) == 0


def fs_type(path):
    best, kind = "", "unknown"
    real = os.path.realpath(path)
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1]
                if (real == mnt or real.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) >= len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def provenance(fdatasync_us):
    def git(*args):
        try:
            r = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                               text=True, timeout=10)
            return r.stdout.strip() if r.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            return None
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "git_sha": sha or "unknown",
        "git_dirty": (bool(status) if status is not None else None),
        "nproc": nproc,
        "kernel": platform.release(),
        "filesystem": fs_type(BUILD_ROOT),
        "build_type": BUILD_TYPE,
        "fdatasync_us": fdatasync_us,
    }


def fmt(v):
    return "%.6g" % v if isinstance(v, (int, float)) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=6)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run only the self-tests")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")
    if a.seconds < 1 or a.seed < 0:
        ap.error("--seconds must be >= 1, --seed >= 0")
    try:
        end_to_end, per_layer = load_metrics()
    except (OSError, ValueError, KeyError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 2

    build()
    if not selftest():
        log("perfbench: self-tests failed")
        return 1
    if a.selftest:
        return 0

    tag = "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace)
    runs = os.path.join(BUILD_ROOT, "runs")
    run_dir = os.path.join(runs, "%s-%d" % (tag, os.getpid()))
    results = os.path.join(BUILD_ROOT, "results")
    traces = os.path.join(BUILD_ROOT, "traces")
    for d in (run_dir, results, traces):
        os.makedirs(d, exist_ok=True)
    out = os.path.join(run_dir, "result.json")
    spans = os.path.join(run_dir, "spans.jsonl")
    cmd = [os.path.join(BUILD, "svcbench"), "--workload=" + a.workload,
           "--seed=%d" % a.seed, "--seconds=%d" % a.seconds,
           "--node-binary=" + os.path.join(BUILD, "udc_svc_node"),
           "--run-dir=" + run_dir, "--out=" + out]
    if a.trace:
        cmd.append("--spans=" + spans)
    try:
        rc = run_group(cmd, timeout=RUN_TIMEOUT_S)
        if rc != 0 or not os.path.exists(out):
            log("perfbench: svcbench failed (exit %s)" % rc)
            return 1
        with open(out) as f:
            res = json.load(f)
        layer = dict(res["layer"])
        if a.trace:
            # The replay times the layers only on a conformant run; the
            # run's own spans are kept either way.
            replay_spans = os.path.join(run_dir, "replay-spans.jsonl")
            if res["conformant"]:
                replay_out = os.path.join(run_dir, "replay.json")
                rc = run_group([os.path.join(BUILD, "svcreplay"),
                                "--run-dir=" + res["run_dir"],
                                "--scratch=" + os.path.join(run_dir, "replay"),
                                "--out=" + replay_out,
                                "--spans=" + replay_spans,
                                "--origin-ns=%d" % res["origin_ns"]],
                               timeout=RUN_TIMEOUT_S)
                if rc != 0:
                    log("perfbench: svcreplay failed (exit %s)" % rc)
                    return 1
                with open(replay_out) as f:
                    layer.update(json.load(f))
                layer["trace.ops_s"] = res["end_to_end"]["ops_s"]
            trace_path = os.path.join(traces, "%s.jsonl" % a.workload)
            with open(trace_path, "w") as t:
                for p in (spans, replay_spans):
                    if os.path.exists(p):
                        with open(p) as s:
                            shutil.copyfileobj(s, t)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    e2e = res["end_to_end"]
    res["layer"] = layer
    res["provenance"] = provenance(res.get("fdatasync_us"))
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(res, f, indent=1, sort_keys=True)

    p = res["provenance"]
    print("perfbench %s seed=%d window=%ds trace=%d" %
          (a.workload, a.seed, a.seconds, a.trace))
    print("provenance: " + " ".join("%s=%s" % (k, p[k]) for k in sorted(p)))
    if res["conformant"]:
        print("verdict: conformant (check_nudc, check_sessions, "
              "check_log_agreement)")
    else:
        print("verdict: NOT CONFORMANT - every op counts as failed and no "
              "number from this run counts")
        for v in res["violations"][:20]:
            print("  violation: " + v)
        if len(res["violations"]) > 20:
            print("  ... %d more" % (len(res["violations"]) - 20))
    print("ops: attempted=%d failed=%d latency samples=%d (tail p%g needs >= 10 "
          "beyond it)" % (res["attempted"], res["failed"], res["lat_samples"],
                          100 * res["lat_top_p"]))
    for name, unit in end_to_end + E2E_EXTRA:
        if name in e2e:
            print("  %-28s %14s %s" % (name, fmt(e2e[name]), unit))
    print("  confirmations per second of the window: " +
          " ".join("%d" % c for c in res["confirm_per_s"]))
    if not res["conformant"]:
        # No number from a non-conformant run counts: the result line
        # carries none and the run fails.
        print(json.dumps({"correct": False,
                          "attempted": max(1, int(res["attempted"])),
                          "failed": int(res["failed"]),
                          "metrics": {}}))
        return 1
    if a.trace:
        for name, unit in per_layer + LAYER_EXTRA:
            print("  %-36s %14s %s" % (name, fmt(layer.get(name)), unit))
        untraced = os.path.join(results, "%s-seed%d-trace0.json" %
                                (a.workload, a.seed))
        base = None
        if os.path.exists(untraced):
            with open(untraced) as f:
                base = json.load(f)["end_to_end"].get("ops_s")
        if base:
            print("  tracing overhead: traced ops_s %s vs untraced %s (same seed)"
                  " = %+.2f%%" % (fmt(layer["trace.ops_s"]), fmt(base),
                                  100.0 * (base - layer["trace.ops_s"]) / base))
        print("  spans: " + os.path.join(traces, "%s.jsonl" % a.workload))

    chosen = per_layer if a.trace else end_to_end
    source = layer if a.trace else e2e
    metrics = {name: {"value": source[name], "unit": unit}
               for name, unit in chosen}
    print(json.dumps({"correct": True,
                      "attempted": max(1, int(res["attempted"])),
                      "failed": int(res["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
