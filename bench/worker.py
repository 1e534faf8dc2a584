"""Child processes of the benchmark; run.py starts them, one at a time.

    worker.py setup WORKLOAD
        The set-up alone: import gamow and run one untimed warm-up op.
    worker.py run WORKLOAD SEED SECONDS TRACE SPANS
        The set-up, then ops 0, 1, 2, ... of the seeded sequence until SECONDS
        have passed, checking every op.  With TRACE=1 odd ops run under the
        tracer (so traced and untraced ops interleave and see the same machine
        state), the probe op follows, and the spans go to the file SPANS.
    worker.py cli OP SPANS ARGS...
        `gamow ARGS...` under the tracer, as op OP.
    worker.py probe G A SPANS
        The probe op alone, on the model (G, A).

Each prints one JSON line (cli prints gamow's own output).

The probe op reaches every layer once: it runs the resonance op and the
expansion op on one model plus an in-process `gamow reps`.  Layers that a
workload's own ops never reach take their traced numbers from it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
MIN_OPS = 2  # a traced run needs one untraced and one traced op
PROBE_REPS = ["reps", "--row", "2", "--twice-j", "1", "--format", "json"]
PROBE_PACKET = (2.0, 0.4)


def _import_gamow():
    import gamow

    if Path(gamow.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"imported gamow from {gamow.__file__}, not from {ROOT / 'src'}")
    return gamow


def setup(workload: str):
    """Import gamow and run the warm-up op; returns (gamow, seconds)."""
    start = time.perf_counter()
    gm = _import_gamow()
    g, a = wl.WARMUP[workload]
    if workload == "resonance":
        wl.resonance_op(gm, g, a)
    else:
        wl.expansion_op(gm, g, a, [PROBE_PACKET])
    return gm, time.perf_counter() - start


def _op(gm, tracer, workload: str, seed: int, i: int) -> dict:
    """Run, time and check op i, traced when a tracer is given.

    An exception from the op or its checks counts as a failed check.
    """
    record = {"op": i, "traced": tracer is not None, "seconds": None, "errors": []}
    if workload == "resonance":
        g, a = wl.resonance_model(seed, i)
        work = functools.partial(wl.resonance_op, gm, g, a)
        check = functools.partial(wl.check_resonance, g, a)
    else:
        g, a, record["regime"] = wl.expansion_model(seed, i)
        work = functools.partial(wl.expansion_op, gm, g, a, wl.expansion_packets(seed, i))
        check = functools.partial(wl.check_expansion, gm, g, a)
    try:
        with tracer.recording(i) if tracer else contextlib.nullcontext():
            record["start"] = time.monotonic()
            start = time.perf_counter()
            result = work()
            record["seconds"] = time.perf_counter() - start
        record["failed"], record["errors"] = check(result)
    except Exception:  # an op that raises is a failed op, not a crashed run
        record["failed"] = [traceback.format_exc(limit=3)]
    return record


def _probe(gm, tracer, g: float, a: float) -> float:
    """Traced probe op; returns the traced peak (MB) of one untraced build."""
    with tracer.recording(tracing.PROBE):
        with contextlib.redirect_stdout(io.StringIO()):
            gm.cli.run(gm.cli.parse_args(PROBE_REPS))
        wl.resonance_op(gm, g, a)
        wl.expansion_op(gm, g, a, [PROBE_PACKET])
    k_max, n_k, r_max, n_r = wl.SPECTRAL_GRID
    tracemalloc.start()
    try:
        gm.spectral.build_decomposition(gm.scattering.DeltaShellModel(g, a), k_max, n_k, r_max, n_r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def run(workload: str, seed: int, seconds: float, traced: bool, spans: str) -> dict:
    gm, setup_s = setup(workload)
    tracer = tracing.Tracer(gm) if traced else None
    ops = []
    deadline = time.monotonic() + seconds
    while len(ops) < MIN_OPS or time.monotonic() < deadline:
        i = len(ops)
        ops.append(_op(gm, tracer if i % 2 else None, workload, seed, i))
    out = {"setup_s": setup_s, "ops": ops}
    if tracer:
        g, a = (wl.resonance_model if workload == "resonance" else wl.expansion_model)(seed, 0)[:2]
        out["peak_mb"] = _probe(gm, tracer, g, a)
        tracing.write(spans, tracer.dump())
    return out


def cli(op: int, spans: str, argv: list[str]):
    gm = _import_gamow()
    tracer = tracing.Tracer(gm)
    sys.argv = ["gamow", *argv]
    try:
        with tracer.recording(op):
            gm.cli.main()
    except SystemExit as exc:
        return exc.code
    finally:
        tracing.write(spans, tracer.dump())
    return 0


def probe(g: float, a: float, spans: str) -> dict:
    gm = _import_gamow()
    tracer = tracing.Tracer(gm)
    peak = _probe(gm, tracer, g, a)
    tracing.write(spans, tracer.dump())
    return {"peak_mb": peak}


def main(argv: list[str]):
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        result = {"setup_s": setup(args[0])[1]}
    elif mode == "run":
        workload, seed, seconds, traced, spans = args
        result = run(workload, int(seed), float(seconds), traced == "1", spans)
    elif mode == "cli":
        return cli(int(args[0]), args[1], args[2:])
    elif mode == "probe":
        result = probe(float(args[0]), float(args[1]), args[2])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
