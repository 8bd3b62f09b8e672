#!/usr/bin/env python3
"""The SpacePTA benchmark: the paper protocol and the spta_serve fleet.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tvca_fresh --seed 1 --seconds 25 --trace 0

It builds spta_cli and spta_serve with the repository's own CMake build
and the in-process helper (perfbench/probe.cpp) as a package of its own,
both under .bench_build/. With --trace 0 it times the shipped binaries
from outside and prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it runs the separate traced run and prints the per-layer
ledger. Every output is checked against the library; a wrong output counts
as failed and makes the exit code 1. The last stdout line is the result
object; the lines before it are for people. perfbench/README.md explains
the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
REPO_BUILD = os.path.join(BUILD, "repo")
PROBE_BUILD = os.path.join(BUILD, "probe")
RESULTS = os.path.join(BUILD, "results")
CLI = os.path.join(REPO_BUILD, "tools", "spta_cli")
SERVE = os.path.join(REPO_BUILD, "tools", "spta_serve")
PROBE = os.path.join(PROBE_BUILD, "perfbench_probe")

WORKLOADS = ("tvca_fresh", "tvca_suite", "serve_mixed")
# Runs per protocol. A fresh-input run costs ~17 ms, mostly frame
# construction; the suite run count makes simulation dominate its
# serial up-front suite build.
FRESH_RUNS = 50
FRESH_TRACE_RUNS = 1000
SUITE_RUNS = 1500
SUITE_SCENARIOS = 50
MIN_PROTOCOLS = 5
CAMPAIGN_SETUPS = 21
SERVE_SETUPS = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def jobs():
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def derive_seed(seed, tag, index):
    digest = hashlib.sha256(f"{seed}/{tag}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 2


def build():
    for required in ("CMakeLists.txt", "src/apps/tvca.hpp", "tools/spta_cli.cpp",
                     "tools/spta_serve.cpp", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail(f"run from a SpacePTA checkout: {required} is missing")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    for source, tree, targets in ((ROOT, REPO_BUILD, ["spta_cli", "spta_serve"]),
                                  (os.path.join(ROOT, "perfbench"), PROBE_BUILD,
                                   ["perfbench_probe"])):
        if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
            steps.append(["cmake", "-S", source, "-B", tree,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", tree, "-j", str(jobs()), "--target", *targets])
    with open(os.path.join(BUILD, "build.log"), "ab") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build failed: {' '.join(cmd)} (log in .bench_build/build.log)")


def fingerprint(workload, seed):
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    cache = {}
    with open(os.path.join(REPO_BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):\w+=(.*)", line)
            if m:
                cache[m.group(1)] = m.group(2).strip()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    git_rev = ""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        git_rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True).stdout.strip()
    if not git_rev:
        # A checkout without git history: name the tree by its sources.
        h = hashlib.sha256()
        for top in ("CMakeLists.txt", "src", "tools"):
            paths = [os.path.join(ROOT, top)]
            if os.path.isdir(paths[0]):
                paths = sorted(os.path.join(d, n) for d, _, names in os.walk(paths[0])
                               for n in names)
            for p in paths:
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
        git_rev = "tree-" + h.hexdigest()[:16]
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "compiler": version[0] if version else compiler, "git_rev": git_rev,
            "workload": workload, "seed": seed}


def run_timed(cmd, stdout_path=None, log=None):
    """Runs cmd to completion; returns (wall seconds, exit code, peak RSS in MB)."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=log or subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdout_path:
            out.close()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def probe(args, log):
    """Runs the helper; returns (exit code, its JSON object or {})."""
    proc = subprocess.run([PROBE, *map(str, args)], capture_output=True, text=True)
    log.write(proc.stderr.encode())
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


class Result:
    """Metrics, the human-readable report lines and the failure count."""

    def __init__(self):
        self.metrics = {}
        self.notes = []
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what, attempted=1):
        self.attempted += attempted
        if not ok:
            self.failed += attempted
            self.notes.append(f"CHECK FAILED: {what}")


# --- Campaign workloads --------------------------------------------------------

def campaign_setup_s(result, log):
    values = []
    for _ in range(CAMPAIGN_SETUPS):
        rc, out = probe(["setup"], log)
        result.check(rc == 0, "setup probe")
        values.append(out.get("setup_s", 0.0))
    return statistics.median(values)


def protocol(work, tag, seed, runs, scenarios, job_count, log):
    """One paper protocol through the CLI: campaign, then analyze --per-path."""
    csv = os.path.join(work, f"{tag}.csv")
    report = os.path.join(work, f"{tag}.txt")
    cmd = [CLI, "campaign", "--platform", "rand", "--runs", str(runs), "--seed", str(seed),
           "--jobs", str(job_count), "--output", csv]
    if scenarios:
        cmd += ["--scenarios", str(scenarios), "--checkpoint",
                os.path.join(work, f"{tag}.journal")]
    campaign_s, campaign_rc, rss = run_timed(cmd, log=log)
    analyze_s, analyze_rc, _ = run_timed([CLI, "analyze", "--input", csv, "--per-path"],
                                         stdout_path=report, log=log)
    return {"seed": seed, "runs": runs, "scenarios": scenarios, "csv": csv,
            "report": report, "campaign_s": campaign_s, "wall_s": campaign_s + analyze_s,
            "rss_mb": rss, "ok": campaign_rc == 0 and analyze_rc in (0, 1)}


def verify_protocol(result, p, log, traced=False, chrome=None, journal=None):
    """Checks the CLI outputs against the library loop for the same seed."""
    if not p["ok"]:
        result.check(False, f"spta_cli exit codes (seed {p['seed']})", p["runs"] + 1)
        return {}
    args = ["campaign", "--seed", p["seed"], "--runs", p["runs"], "--scenarios",
            p["scenarios"], "--threads", jobs(), "--trace", int(traced), "--csv", p["csv"],
            "--report", p["report"]]
    if chrome:
        args += ["--chrome", chrome]
    if journal:
        args += ["--journal", journal]
    rc, out = probe(args, log)
    mismatches = int(out.get("sample_mismatches", p["runs"]))
    result.attempted += p["runs"] + 1
    result.failed += mismatches + (0 if out.get("report_ok") else 1)
    if rc != 0 or mismatches or not out.get("report_ok") or out.get("frame_mismatches"):
        result.notes.append(f"CHECK FAILED: campaign seed {p['seed']}: {mismatches} sample "
                            f"mismatches, report_ok={out.get('report_ok')}, "
                            f"frame_mismatches={out.get('frame_mismatches')}")
        result.failed += int(out.get("frame_mismatches", 0))
    return out


def campaign_workload(name, seed, seconds, traced, work, log, result):
    suite = name == "tvca_suite"
    scenarios = SUITE_SCENARIOS if suite else 0
    job_count = jobs() if suite else 1
    if traced:
        return campaign_ledger(name, seed, scenarios, job_count, work, log, result)
    result.metrics["setup_s"] = campaign_setup_s(result, log)
    runs = SUITE_RUNS if suite else FRESH_RUNS
    # The same protocol, repeated until the time is up. The first one is
    # checked against the library loop, the others must repeat its bytes.
    # The rate is the median repetition's: the host is shared and its speed
    # shifts by tens of percent within seconds, so one run times many
    # short repetitions.
    protocol_seed = derive_seed(seed, name, 0)
    protocols = []
    deadline = time.perf_counter() + seconds
    while len(protocols) < MIN_PROTOCOLS or time.perf_counter() < deadline:
        protocols.append(protocol(work, f"p{len(protocols)}", protocol_seed, runs, scenarios,
                                  job_count, log))
    verify_protocol(result, protocols[0], log)
    for p in protocols[1:]:
        same = p["ok"] and protocols[0]["ok"]
        for key in ("csv", "report") if same else ():
            with open(protocols[0][key], "rb") as a, open(p[key], "rb") as b:
                same = same and a.read() == b.read()
        result.check(same, f"repeated protocol reproduces the first ({p['csv']})", runs + 1)
    rates = [p["runs"] / p["wall_s"] for p in protocols]
    result.metrics["ops_per_s"] = statistics.median(rates)
    result.metrics["peak_rss_mb"] = max(p["rss_mb"] for p in protocols)
    result.notes.append(f"runs_per_s {result.metrics['ops_per_s']:.3f} 1/s (median of "
                        f"{len(protocols)} protocols of {runs} runs at --jobs {job_count}; "
                        f"each {' '.join(f'{r:.1f}' for r in rates)})")


def campaign_ledger(name, seed, scenarios, job_count, work, log, result):
    """The traced run: the library loop, one span per layer call."""
    runs = SUITE_RUNS if scenarios else FRESH_TRACE_RUNS
    s = derive_seed(seed, name + "/trace", 0)
    plain = protocol(work, "plain", s, runs, scenarios, job_count, log)
    serial = plain if job_count == 1 else protocol(work, "serial", s, runs, scenarios, 1, log)
    if serial is not plain:
        with open(plain["csv"], "rb") as a, open(serial["csv"], "rb") as b:
            result.check(a.read() == b.read(), "CSV identical at --jobs 1 and "
                         f"--jobs {job_count}")
    chrome = os.path.join(RESULTS, f"{name}-seed{seed}.trace.json")
    out = verify_protocol(result, plain, log, traced=True, chrome=chrome,
                          journal=os.path.join(work, "traced.journal") if scenarios else None)
    view = subprocess.run([CLI, "trace-view", chrome], capture_output=True, text=True)
    events = re.search(r": (\d+) events", view.stdout)
    result.check(view.returncode == 0 and events is not None and int(events.group(1)) > 0,
                 "spta_cli trace-view reads the ledger's Chrome trace")
    for key, value in out.items():
        if "." in key:
            result.metrics[key] = value
    result.metrics["analysis.parallel_efficiency"] = (
        out.get("campaign_layer_s", 0.0) / (job_count * plain["campaign_s"]))
    result.metrics["bench.trace_overhead_frac"] = (
        out.get("loop_s", 0.0) / serial["campaign_s"] - 1.0)
    untraced = f"{plain['campaign_s']:.2f} s at --jobs {job_count}"
    if serial is not plain:
        untraced += f", {serial['campaign_s']:.2f} s at --jobs 1"
    result.notes.append(f"traced {runs} runs in {out.get('loop_s', 0.0):.2f} s; untraced CLI "
                        f"{untraced}; {events.group(1) if events else '?'} spans in {chrome}")
    result.notes.append(f"frame builds {out.get('frame_build_s', 0.0):.2f} s against simulation "
                        f"{out.get('sim_s', 0.0):.2f} s; per frame "
                        f"{out.get('apps.build_frame_ms', 0.0):.2f} ms against a median run of "
                        f"{out.get('sim.run_ms_p50', 0.0):.2f} ms")


# --- serve_mixed ----------------------------------------------------------------

def start_server(work, index, log):
    err_path = os.path.join(work, f"serve{index}.err")
    err = open(err_path, "wb")
    proc = subprocess.Popen([SERVE, "--tcp", "0", "--shards", "2", "--cache", "4096"],
                            stdout=subprocess.DEVNULL, stderr=err)
    err.close()
    deadline = time.perf_counter() + 20
    while time.perf_counter() < deadline:
        with open(err_path, "rb") as f:
            m = re.search(rb"listening on [\d.]+:(\d+)", f.read())
        if m:
            return proc, int(m.group(1))
        if proc.poll() is not None:
            break
        time.sleep(0.0005)
    stop_server(proc)
    fail("spta_serve did not start listening")


def stop_server(proc):
    """SIGTERM (the zero-loss drain); SIGKILL if it has not exited after 15 s."""
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def serve_workload(name, seed, seconds, traced, work, log, result):
    setups = []
    server = None
    try:
        for k in range(SERVE_SETUPS):
            start = time.perf_counter()
            server, port = start_server(work, k, log)
            rc, out = probe(["prefill", "--port", port, "--seed", seed], log)
            setups.append(time.perf_counter() - start)
            result.check(rc == 0, "warm-pool prefill", int(out.get("warm_samples", 1)) * 2)
            if k + 1 < SERVE_SETUPS:
                stop_server(server)
        args = ["serve", "--port", port, "--seed", seed, "--seconds", max(1, int(seconds)), "--trace",
                int(traced), "--pid", server.pid, "--threads", jobs()]
        chrome = os.path.join(RESULTS, f"{name}-seed{seed}.trace.json")
        if traced:
            args += ["--chrome", chrome]
        rc, out = probe(args, log)
        # The peak RSS after a fixed amount of work when the client got that
        # far, else the peak over the whole run.
        rss = out.get("rss_mb_at_checkpoint") or vm_hwm_mb(server.pid)
        stop_server(server)
    finally:
        if server is not None and server.returncode is None:
            server.kill()
            server.wait()
    result.attempted += int(out.get("attempted", 1))
    result.failed += int(out.get("failed", 1)) if rc in (0, 1) else int(out.get("attempted", 1))
    if rc != 0:
        result.notes.append(f"CHECK FAILED: serve client exit {rc}, "
                            f"{out.get('failed')} of {out.get('attempted')} operations failed")
    if traced:
        view = subprocess.run([CLI, "trace-view", chrome], capture_output=True, text=True)
        result.check(view.returncode == 0, "spta_cli trace-view reads the ledger's Chrome trace")
        for key, value in out.items():
            if key.startswith(("mbpta.", "evt.")):
                result.metrics[key] = value
            elif key in ("unattributed_frac", "trace_overhead_frac"):
                result.metrics["bench." + key] = value
            elif key not in ("attempted", "failed", "requests", "wall_s", "requests_per_s",
                             "window_requests_per_s", "rss_mb_at_checkpoint") \
                    and not key.startswith("count."):
                result.metrics["service." + key] = value
        m = {k: result.metrics.get("service." + k, 0.0)
             for k in ("exec_us.cold", "cold_ms_p50", "transport_us.warm", "warm_us_p50")}
        result.notes.append(
            f"cold: server execution {m['exec_us.cold'] / 1e3:.3f} ms of {m['cold_ms_p50']:.3f} ms "
            f"median; warm: transport {m['transport_us.warm']:.1f} us of "
            f"{m['warm_us_p50']:.1f} us median")
        return
    result.metrics["setup_s"] = statistics.median(setups)
    result.metrics["ops_per_s"] = out.get("window_requests_per_s", 0.0)
    result.metrics["peak_rss_mb"] = rss
    result.notes.append(
        f"requests_per_s {out.get('window_requests_per_s', 0.0):.1f} 1/s (median "
        f"of 1-s windows; {out.get('requests_per_s', 0.0):.1f} over all "
        f"{out.get('wall_s', 0.0):.1f} s), closed loop")
    for cls, unit in (("cold", "ms"), ("warm", "us"), ("session", "ms")):
        result.notes.append(
            f"{cls}_{unit}_p50 {out.get(f'{cls}_{unit}_p50', 0.0):.3f} {unit}, "
            f"{cls}_{unit}_p99 {out.get(f'{cls}_{unit}_p99', 0.0):.3f} {unit} "
            f"({int(out.get(f'count.{cls}', 0))} requests)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    os.makedirs(RESULTS, exist_ok=True)
    work = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result = Result()
    run = serve_workload if args.workload == "serve_mixed" else campaign_workload
    with open(os.path.join(work, "log.txt"), "wb") as log:
        try:
            run(args.workload, args.seed, args.seconds, bool(args.trace), work, log, result)
        except Exception:
            log.flush()
            shutil.copy(os.path.join(work, "log.txt"), os.path.join(BUILD, "last-failure.log"))
            raise
    shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in wanted:
        value = float(result.metrics.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    host = fingerprint(args.workload, args.seed)
    record = {"fingerprint": host, "trace": args.trace, "attempted": result.attempted,
              "failed": result.failed, "metrics": metrics, "notes": result.notes}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                    f"{stamp}-{os.getpid()}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} | "
          + " | ".join(f"{k}={v}" for k, v in host.items() if k not in ("workload", "seed")))
    for note in result.notes:
        print("  " + note)
    failed_frac = result.failed / max(result.attempted, 1)
    print(f"  failed_frac {failed_frac:.6f} ({result.failed} of {result.attempted} "
          "operations failed)")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    correct = result.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(result.attempted, 1),
                      "failed": result.failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
