#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the daemons and the benchmark driver from the sources of this
checkout, runs one workload, and relays the driver's output. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.

    python3 e2ebench/run.py --workload lookup_zipf --seed 1 --seconds 16 --trace 0
    python3 e2ebench/run.py --selftest

Build products go to .bench_build/ and run output (daemon stderr, spans,
the full result with its host block) to .bench_out/<workload>/seed<n>-trace<t>/.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
WORKLOADS = ("lookup_zipf", "topk_uniform", "promote_under_load")
TARGETS = ("e2e_driver", "e2e_selftest", "anchor_served", "anchor_router")
DRIVER_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """Git sha when the checkout is a repository, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in ("src", "tools", "e2ebench"):
        files += sorted(p for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "tree:" + h.hexdigest()[:16]


def build():
    """Configures once, then brings the targets up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not an anchor source tree (no CMakeLists.txt or src/)")
    BUILD.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    log_path = OUT / "build.log"
    with open(BUILD / ".lock", "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"cmake configure failed; see {log_path}", 1)
        cmd = ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
               "--target", *TARGETS]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail(f"build failed; see {log_path}", 1)


def run_child(cmd, timeout_s, stderr_path):
    """Runs cmd in its own process group; the group (daemons included) is
    stopped on every exit path: normal exit, timeout, exception, SIGINT."""
    with open(stderr_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout_s)
            return proc.returncode, out
        except subprocess.TimeoutExpired:
            fail(f"driver exceeded {timeout_s}s; see {stderr_path}", 1)
        finally:
            for sig in (signal.SIGTERM, signal.SIGKILL):
                try:
                    os.killpg(proc.pid, sig)
                except ProcessLookupError:
                    break
                try:
                    proc.wait(timeout=5)
                    break
                except subprocess.TimeoutExpired:
                    continue
            # Daemons outlive the driver by at most their own graceful drain.
            deadline = time.time() + 10
            while time.time() < deadline:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)


def on_signal(signum, _frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    signal.signal(signal.SIGTERM, on_signal)

    build()
    if args.selftest:
        code, out = run_child([str(BUILD / "e2e_selftest")], 120, OUT / "selftest.stderr")
        print(out, end="")
        code |= subprocess.run([sys.executable, str(HERE / "compare.py"), "--selftest"]).returncode
        sys.exit(code)

    out_dir = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cmd = [str(BUILD / "e2e_driver"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", str(BUILD / "anchor"), "--out-dir", str(out_dir),
           "--source-id", source_id()]
    code, out = run_child(cmd, DRIVER_TIMEOUT_S, out_dir / "driver.stderr")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError, IndexError):
        sys.stderr.write((out_dir / "driver.stderr").read_text())
        fail(f"driver exited {code} without a result; see {out_dir}", 1)
    print("\n".join(lines))
    sys.exit(code)


if __name__ == "__main__":
    try:
        main()
    except KeyboardInterrupt:
        sys.exit(130)
