"""Benchmark of gamow: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {cli,resonance,expansion} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports gamow from ``src/`` there.
Every load is one client in a closed loop: each op starts when the previous
one has returned, in one process at a time, with BLAS pinned to one thread.

* cli: one op is a cycle of the six README invocations, each a fresh
  ``python -m gamow`` process, in a seeded order.  Every stdout must match
  its sha256 in golden.json and every exit code must be 0.
* resonance: one op is the pole pipeline on one seeded (g, a) model, checked
  against Lambert-W poles at 50 digits (see workloads.py).
* expansion: one op is a spectral build at the CLI default grid plus eight
  packet reconstructions, cycling strong, attractive and weak shells.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

* op_s.p50: median wall time of one op;
* peak_rss_mb: median over ops of the peak RSS of the process doing the work
  during the op (for cli the largest child of a cycle);
* setup_s: median of several set-ups (cli: ``python -c "import gamow"``;
  otherwise ``import gamow`` plus one untimed warm-up op in a worker);
* max_rel_error: relative error against an independent reference, see
  ERROR_SUMMARY.

With ``--trace 1`` it carries the per-layer metrics (tracing.py).  Traced
and untraced ops alternate, so the tracing overhead, the difference of their
op_s.p50, is taken under the same machine state.  Lines before the last one
report the environment, sample counts, ROADMAP comparisons and every failed
check.  Scratch files (children's output, spans) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("cli", "resonance", "expansion")
BLAS_THREADS = 1
CLI_SETUPS = 5          # `import gamow` processes timed per cli run
EXTRA_SETUPS = 2        # set-up-only workers per in-process run, beside the one doing ops
MIN_OPS = 2             # a traced run needs one untraced and one traced op
FIRST_TRACED_OP = 1     # traced runs trace the odd ops; counts come from this one
RSS_SAMPLE_S = 0.005
IMPORTTIME_RUNS = 3
RUN_LIMIT_S = 170.0     # the whole run, children included, must end before this

# ROADMAP item 1 baselines (ms unless stated) with the conditions they were
# taken under; a layer number outside [low / 2, 2 high] is flagged.
ROADMAP_ITEM1 = {
    "import.total_ms": (460, 600, "import gamow"),
    "import.scipy_optimize_ms": (440, 440, "scipy.optimize share of import"),
    "scattering.find_poles.ms": (360, 360, "g=100, 48x24 seeds"),
    "scattering.pole_count.ms": (141, 141, "pole_count"),
    "scattering.phase_shift_curve.ms": (97, 97, "n=4000"),
    "dynamics.evolution_series.ms": (608, 608, "100k samples"),
    "spectral.kgrid_find_poles.ms": (215, 322, "_adaptive_k_grid"),
    "spectral.build_decomposition.ms": (830, 920, "CLI default grid"),
    "spectral.continuum.bytes": (64e6, 64e6, "2000x4001 array"),
    "spectral.build_decomposition.peak_mb": (320, 320, "traced peak, MB"),
    "spectral.reconstruct_error.ms": (16, 16, "reconstruct_error"),
    "spectral.hardy_check.ms": (32, 32, "n=131072"),
}


class RunError(RuntimeError):
    """The run cannot produce a valid result."""


class Child:
    """Start-to-reap wall time, exit code, peak RSS and stdout of one process.

    With ``sample_rss`` the process's resident set is also read every
    RSS_SAMPLE_S seconds, as (time.monotonic(), MB) pairs in ``rss_samples``.
    """

    def __init__(self, argv: list[str], deadline: float, name: str = "child",
                 sample_rss: bool = False):
        out_path, err_path = OUT / f"{name}.out", OUT / f"{name}.err"
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RunError(f"no time left to start {name}")
        self.rss_samples = []
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                status, usage = self._sample(proc.pid) if sample_rss else os.wait4(proc.pid, 0)[1:]
            finally:
                watchdog.cancel()
            self.seconds = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out_path.read_bytes()
        self.stderr = err_path.read_text(errors="replace")

    def _sample(self, pid: int):
        statm = Path(f"/proc/{pid}/statm")
        page_mb = os.sysconf("SC_PAGE_SIZE") / 2**20
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                return status, usage
            try:
                pages = int(statm.read_text().split()[1])
                self.rss_samples.append((time.monotonic(), pages * page_mb))
            except (OSError, IndexError, ValueError):  # exited since the wait4 above
                pass
            time.sleep(RSS_SAMPLE_S)

    def last_json(self) -> dict:
        if self.code != 0:
            raise RunError(f"child exited with {self.code}: {self.stderr[-2000:]}")
        return json.loads(self.stdout.decode().strip().splitlines()[-1])


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def timing_summary(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it.

    That percentile is the nearest-rank one of rank n - 10; it is printed for
    information only.
    """
    values = sorted(values)
    n = len(values)
    out = {"n": n, "p50": statistics.median(values)}
    if n > 10:
        out[f"p{int(100 * (n - 10) / n)}"] = values[n - 11]
    return out


# ------------------------------------------------------------------ workloads

# How a run's relative errors combine into max_rel_error.  cli: the poles
# printed by `gamow poles`; resonance: every pole of the run, whose largest
# error settles near machine epsilon.  expansion: packet errors span four
# decades with where a packet sits relative to the shell, so the run's
# largest one spread 0.44 (interquartile range over median) across seeds
# against 0.04 for the median; the median is reported and the largest error
# per regime is printed beside it.
ERROR_SUMMARY = {"cli": max, "resonance": max, "expansion": statistics.median}


def op_seconds(records: list[dict], traced: bool = False) -> list[float]:
    return [r["seconds"] for r in records if r["seconds"] is not None and r["traced"] == traced]


def op_peak_rss(records: list[dict], samples: list[tuple]) -> list[float]:
    """Largest RSS sample (MB) inside each untraced op."""
    peaks = []
    for r in records:
        if r["seconds"] is not None and not r["traced"]:
            inside = [mb for t, mb in samples if r["start"] <= t <= r["start"] + r["seconds"]]
            if inside:
                peaks.append(max(inside))
    return peaks


def _golden() -> list[dict]:
    return json.loads((BENCH / "golden.json").read_text())["invocations"]


def cli_pole_error(stdout: bytes) -> list[float]:
    """Relative errors of the poles printed by `gamow poles --g 100 --a 1`."""
    rows = stdout.decode().splitlines()[2:]
    printed = [complex(float(r.split()[0]), float(r.split()[1])) for r in rows]
    ref = wl.lambert_poles(100.0, 1.0, (0.0, 10.0), (-2.0, 0.0))
    if len(printed) != len(ref):
        return [1.0]
    return [abs(k - r) / abs(r) for k, r in zip(printed, ref)]


def run_cli(seed: int, seconds: float, trace: bool, deadline: float, report) -> dict:
    """Cycles of the six invocations until ``seconds`` pass (at least MIN_OPS).

    With ``trace`` the odd cycles run each invocation under the tracer.
    """
    setups = [] if trace else [Child([sys.executable, "-c", "import gamow"], deadline, "setup")
                               for _ in range(CLI_SETUPS)]
    if any(s.code != 0 for s in setups):
        raise RunError(f"import gamow failed: {setups[0].stderr[-2000:]}")
    golden = _golden()
    rng = random.Random(f"cli:{seed}")
    records, errors = [], []
    end = time.monotonic() + seconds
    while len(records) < MIN_OPS or time.monotonic() < end:
        cycle = len(records)
        traced = trace and cycle % 2 == 1
        record = {"seconds": 0.0, "traced": traced, "rss_mb": 0.0}
        failed = []
        for idx in rng.sample(range(len(golden)), len(golden)):
            inv = golden[idx]
            name = inv["argv"][0]
            if traced:
                argv = [sys.executable, str(BENCH / "worker.py"), "cli", str(cycle),
                        str(OUT / f"spans-cli-{cycle}-{idx}.json"), *inv["argv"]]
            else:
                argv = [sys.executable, "-m", "gamow", *inv["argv"]]
            child = Child(argv, deadline, f"cli-{idx}")
            record["seconds"] += child.seconds
            record["rss_mb"] = max(record["rss_mb"], child.rss_mb)
            digest = hashlib.sha256(child.stdout).hexdigest()
            if child.code != 0 or digest != inv["sha256"]:
                failed.append(f"{name}: exit {child.code}, stdout sha256 {digest[:16]}")
            elif name == "poles" and not errors:
                errors = cli_pole_error(child.stdout)
        report(failed)
        records.append(record)
    out = {"records": records, "errors": errors,
           "rss_mb": statistics.median(r["rss_mb"] for r in records if not r["traced"]),
           "setup_s": statistics.median(s.seconds for s in setups) if setups else None}
    if trace:
        g, a = 100.0, 1.0  # the `poles` invocation's model
        probe = Child([sys.executable, str(BENCH / "worker.py"), "probe", str(g), str(a),
                       str(OUT / "spans-cli-probe.json")], deadline, "probe").last_json()
        out["spans"] = tracing.merge(json.loads(p.read_text())
                                     for p in sorted(OUT.glob("spans-cli-*.json")))
        out["peak_mb"] = probe["peak_mb"]
    return out


def run_in_process(workload: str, seed: int, seconds: float, trace: bool, deadline: float,
                   report) -> dict:
    """One worker does every op; untraced runs add set-up-only workers.

    peak_rss_mb is the median over ops of the worker's largest sampled RSS
    during the op, the in-process analogue of cli's largest child per cycle.
    """
    setups = [] if trace else [
        Child([sys.executable, str(BENCH / "worker.py"), "setup", workload], deadline,
              "setup").last_json()["setup_s"]
        for _ in range(EXTRA_SETUPS)
    ]
    spans = OUT / "spans.json"
    child = Child([sys.executable, str(BENCH / "worker.py"), "run", workload, str(seed),
                   repr(seconds), "1" if trace else "0", str(spans)], deadline, "worker",
                  sample_rss=True)
    result = child.last_json()
    records = result["ops"]
    for r in records:
        report(r["failed"])
    peaks = op_peak_rss(records, child.rss_samples)
    out = {"records": records, "errors": [e for r in records for e in r["errors"]],
           "rss_mb": statistics.median(peaks) if peaks else child.rss_mb,
           "setup_s": statistics.median(setups + [result["setup_s"]])}
    if workload == "expansion":
        by_regime = {}
        for r in records:
            by_regime.setdefault(r["regime"], []).extend(r["errors"])
        out["errors_by_regime"] = {k: {"max": max(v), "median": statistics.median(v)}
                                   for k, v in by_regime.items() if v}
    if trace:
        out["spans"] = json.loads(spans.read_text())
        out["peak_mb"] = result["peak_mb"]
    return out


def import_layer(deadline: float) -> dict:
    """Median cumulative import times (ms) from ``python -X importtime``."""
    wanted = {"gamow": "import.total_ms", "numpy": "import.numpy_ms",
              "scipy.optimize": "import.scipy_optimize_ms"}
    samples = {metric: [] for metric in wanted.values()}
    for _ in range(IMPORTTIME_RUNS):
        child = Child([sys.executable, "-X", "importtime", "-c", "import gamow"], deadline,
                      "importtime")
        if child.code != 0:
            raise RunError(f"import gamow failed: {child.stderr[-2000:]}")
        for line in child.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, module = line.split("|")
            if module.strip() in wanted and cumulative.strip().isdigit():
                samples[wanted[module.strip()]].append(int(cumulative) / 1e3)
    missing = [m for m, v in samples.items() if len(v) != IMPORTTIME_RUNS]
    if missing:
        raise RunError(f"python -X importtime did not report {missing}")
    return {m: {"value": statistics.median(v), "unit": "ms"} for m, v in samples.items()}


def roadmap_flags(metrics: dict) -> list[str]:
    flags = []
    for name, (low, high, condition) in ROADMAP_ITEM1.items():
        value = metrics[name]["value"]
        if not low / 2 <= value <= 2 * high:
            ref = f"{low:g}" if low == high else f"{low:g}-{high:g}"
            flags.append(f"{name} = {value:.4g} vs ROADMAP {ref} ({condition})")
    return flags


# ------------------------------------------------------------------------ main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "gamow" / "__init__.py").is_file():
        print(f"error: no gamow sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for stale in OUT.glob("spans*.json"):
        stale.unlink()

    print(json.dumps({"environment": environment()}, sort_keys=True))
    failures = []

    def report(failed):
        failures.append(failed)
        for message in failed:
            print(f"FAILED {args.workload}: {message}")

    try:
        run = run_cli if args.workload == "cli" else functools.partial(run_in_process, args.workload)
        res = run(args.seed, args.seconds, bool(args.trace), deadline, report)
        layer_imports = import_layer(deadline) if args.trace else {}
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = res["records"]
    plain = op_seconds(records)
    info = {"ops_attempted": len(failures), "op_s": timing_summary(plain)}
    if "errors_by_regime" in res:
        info["errors_by_regime"] = res["errors_by_regime"]
    if args.trace:
        traced = timing_summary(op_seconds(records, traced=True))
        metrics, info["layers_from_probe"] = tracing.summarise(res["spans"], FIRST_TRACED_OP)
        metrics.update(layer_imports)
        metrics["spectral.build_decomposition.peak_mb"] = {"value": res["peak_mb"], "unit": "MB"}
        metrics["trace.overhead_ms"] = {"value": 1e3 * (traced["p50"] - info["op_s"]["p50"]),
                                        "unit": "ms"}
        info["op_s_traced"] = traced
        info["roadmap_flags"] = roadmap_flags(metrics)
    else:
        errors = res["errors"]
        metrics = {
            "op_s.p50": {"value": info["op_s"]["p50"], "unit": "s"},
            "peak_rss_mb": {"value": res["rss_mb"], "unit": "MB"},
            "setup_s": {"value": res["setup_s"], "unit": "s"},
            # no error at all means every op failed its checks
            "max_rel_error": {"value": ERROR_SUMMARY[args.workload](errors) if errors else 1.0,
                              "unit": "ratio"},
        }
    print(json.dumps(info))
    failed = sum(1 for f in failures if f)
    print(json.dumps({"correct": failed == 0, "attempted": len(failures), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
