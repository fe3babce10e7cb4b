#!/usr/bin/env python3
"""hypart benchmark: build, run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seed N --untimed

Run from the repository root.  The first call configures and builds
perfbench/ (which builds the hypart library and CLI from the sources beside
it) into $CARGO_TARGET_DIR or .bench_build/.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}; with --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones.  Lines before it carry the host fingerprint, sample counts
and the oracle detail.  --untimed prints the deterministic counters of a
fixed amount of work instead (see perfbench/test_determinism.py).
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-mix", "plan-symbolic", "plan-dense", "exec")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(os.cpu_count() or 2)
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_child(args, timeout):
    """Run a command in its own process group; kill the group afterwards so
    nothing it started (daemon, workers) outlives it."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{args[1]} timed out after {timeout}s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])} exited with {proc.returncode}")
    return out.strip().splitlines()[-1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(bdir):
    fp = json.loads(run_child([str(bdir / "hypart_perf"), "capacity"], 60))
    fp["cpu_model"] = cpu_model()
    probe = bdir / "gbench_probe"
    fp["google_benchmark"] = "absent"
    if probe.exists():
        try:
            out = subprocess.run([str(probe), "--benchmark_format=json"], capture_output=True,
                                 text=True, timeout=60, check=True).stdout
            fp["google_benchmark"] = json.loads(out)["context"].get("library_build_type",
                                                                    "unknown")
        except (subprocess.SubprocessError, ValueError, KeyError):
            fp["google_benchmark"] = "unknown"
    return fp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--untimed", action="store_true")
    a = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bdir = build_dir()
    build(bdir)
    workdir = bdir / "run"
    workdir.mkdir(parents=True, exist_ok=True)
    perf = str(bdir / "hypart_perf")
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--hypart", str(bdir / "hypart" / "tools" / "hypart"),
              "--workdir", str(workdir), "--refs", str(HERE / "reference.json")]

    if a.untimed:
        res = json.loads(run_child([perf, "untimed"] + common, RUN_TIMEOUT_S))
        print(json.dumps({"workload": a.workload, "seed": a.seed, "attempted": res["attempted"],
                          "failed": res["failed"], "counters": res["counters"]},
                         sort_keys=True))
        return 0 if res["failed"] == 0 else 1

    fp = fingerprint(bdir)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    res = json.loads(run_child([perf, "run"] + common +
                               ["--seconds", str(a.seconds), "--trace", str(a.trace)],
                               RUN_TIMEOUT_S))
    attempted, failed = int(res["attempted"]), int(res["failed"])
    values = dict(res["metrics"])
    values["ok_share"] = 1.0 - failed / attempted if attempted else 0.0

    for key in sorted(res["info"]):
        print(f"detail {key}: {json.dumps(res['info'][key])}")
    if res["counters"]:
        print("counters: " + json.dumps(res["counters"], sort_keys=True))
    print(f"fail_share: {failed / max(attempted, 1):.6g} ({failed} failed of {attempted})")
    for f in res.get("failures", []):
        print(f"failure: {f}")

    last = workdir / f"last_e2e_{a.workload}.json"
    if a.trace:
        traced = res["info"].get("traced_e2e", {})
        if last.exists():
            base = json.loads(last.read_text())
            for k in sorted(traced):
                if base.get(k):
                    print(f"tracing overhead {k}: traced {traced[k]:.6g} vs untraced "
                          f"{base[k]:.6g} ({(traced[k] / base[k] - 1) * 100:+.1f}%)")
        else:
            print("tracing overhead: no untraced run of this workload in this build "
                  "directory yet")
    else:
        last.write_text(json.dumps(values, sort_keys=True))

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError, OSError, ValueError, KeyError,
            IndexError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
