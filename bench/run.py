"""conceptspaces benchmark: one closed-loop caller, one workload per run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload height|algebra|cli --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced passes over a fixed prefix of
the workload, then reports the per-layer metrics and the tracing overhead.
Every output is checked against a reference the benchmark computes itself;
failures are listed with their inputs.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Seeds: the default seed is 1.  ``--seed holdout`` selects the holdout seed
(``HOLDOUT_SEED``); a claimed speed-up must also hold on it, and it is not
to be used while a change is being written.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from common import ROOT, SRC, environment, median, peak_rss_mb, quantile

# One thread: numpy's BLAS pool would otherwise add a second one (children
# inherit the setting).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

DEFAULT_SEED = 1
HOLDOUT_SEED = 7151
SETUP_REPS = 9        # setup_s is the median of these
MIN_OPS = 100         # so that at least 10 samples lie beyond the p90
WALL_CAP_S = 120.0    # stop early rather than overrun the caller's limit
WORK_DIR = ROOT / ".bench_work"
SPAN_DIR = ROOT / ".bench_out"

# What each workload's "why" predicts for the traced run's layer self times:
# the named layers hold at least half the operation time, the idle ones at
# most a tenth each.  "startup" is the interpreter start and imports that
# every cspaces command pays.
WHY = {
    "height": (("optimize",), ("geometry", "kb", "cli")),
    "algebra": (("geometry", "optimize"), ("kb", "cli")),
    "cli": (("startup", "kb", "cli"), ("optimize", "geometry")),
}


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    busy: float = 0.0
    pending: list = field(default_factory=list)

    def fail(self, index, op, message: str) -> None:
        self.failures.append({"op": index, "kind": op.kind, "error": message,
                              "inputs": op.inputs()})

    def check(self, index, op, out) -> None:
        try:
            message = op.check(out)
        except Exception as exc:   # a malformed output must not stop the run
            message = f"check raised {type(exc).__name__}: {exc}"
        if message:
            self.fail(index, op, message)

    def check_pending(self) -> None:
        for item in self.pending:
            self.check(*item)
        self.pending.clear()


def drive(ops, seconds: float | None = None, tracer=None,
          min_ops: int = 0, after_op=None) -> Tally:
    """Closed loop: run each operation after the previous one returned.

    Stops at the end of a block of operations once their own time reaches
    ``seconds`` (and at least ``min_ops`` ran), or when ``ops`` ends.  A
    block has the same mix of operations every time, so runs of different
    length measure the same mix, and a cli write is never left without its
    undo.  Checks run outside the timed
    region; with a tracer they wait for ``check_pending`` so that no check
    runs while the wrappers are installed.
    """
    tally = Tally()
    wall = perf_counter()
    for index, op in enumerate(ops):
        t0 = perf_counter()
        try:
            out = tracer.run_op(index, op.run) if tracer else op.run()
            error = None
        except Exception as exc:   # counted in error_rate, run continues
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        tally.latencies.append(elapsed)
        tally.busy += elapsed
        if error:
            tally.fail(index, op, error)
        elif tracer:
            tally.pending.append((index, op, out))
        else:
            tally.check(index, op, out)
        if after_op is not None:
            after_op(tally.busy)
        if not op.ends_block:   # every run measures whole blocks
            continue
        if seconds is not None and tally.busy >= seconds and len(tally.latencies) >= min_ops:
            break
        if perf_counter() - wall > WALL_CAP_S:
            break
    return tally


def measured_run(wl, seed: int, seconds: float, workdir: Path):
    setups = []

    def timed_setup(where: Path):
        gc.collect()
        t0 = perf_counter()
        made = wl.setup(seed, where)
        setups.append(perf_counter() - t0)
        return made

    def more_setups(busy: float) -> None:
        # Spread the set-ups over the run, so that they sample the machine's
        # speed over the same window as the operations do.
        while len(setups) < SETUP_REPS and busy >= seconds * len(setups) / SETUP_REPS:
            timed_setup(workdir / "setup")

    state = timed_setup(workdir)
    tally = drive(wl.ops(state), seconds, min_ops=MIN_OPS, after_op=more_setups)
    while len(setups) < SETUP_REPS:
        timed_setup(workdir / "setup")
    final = wl.finish(state)
    lat = tally.latencies
    n = len(lat)
    metrics = {
        "setup_s": (median(setups), "s", f"median of {SETUP_REPS} set-ups"),
        "ops_per_s": (n / tally.busy, "1/s", f"{n} ops in {tally.busy:.2f} s"),
        "latency_p50_ms": (1e3 * quantile(lat, 0.5), "ms", f"{n} samples"),
        "latency_p90_ms": (1e3 * quantile(lat, 0.9), "ms",
                           f"{n} samples, {n - int(0.9 * n)} beyond"),
        "peak_rss_mb": (peak_rss_mb(wl.children), "MB",
                        "largest child" if wl.children else "this process"),
    }
    print(f"error_rate       {len(tally.failures) / n:.6f}        "
          f"{len(tally.failures)} of {n} operations failed")
    print("notes " + json.dumps(state.notes, sort_keys=True))
    return metrics, n, tally.failures, final


def _traced_drive(ops, tracer):
    tracer.install()
    try:
        tally = drive(ops, tracer=tracer)
    finally:
        tracer.uninstall()
    tally.check_pending()
    return tally, tracer.take()


def traced_run(wl, seed: int, seconds: float, workdir: Path):
    from probes import kb_probe, startup_probe
    from tracing import (Calls, LAYERS, Tracer, command_split, layer_metrics,
                         layer_self)
    from workloads import layer_probe

    state = wl.setup(seed, workdir)
    tracer = Tracer()
    first, work = Calls(), Calls()
    own = dict.fromkeys(LAYERS, 0.0)
    op_time = untraced = traced = 0.0
    attempted, failures, passes = 0, [], 0
    while passes == 0 or untraced + traced < seconds:
        plain = drive(wl.trace_pass(state))
        tally, spans = _traced_drive(wl.trace_pass(state), tracer)
        if passes == 0:
            first.add(spans, keep_meta=True)
            _write_spans(wl.name, seed, spans)
            for command, times in command_split(spans).items():
                print(f"cli {command:<13} " + "  ".join(
                    f"{part} {1e3 * t:8.2f} ms" for part, t in zip(
                        ("total", "load", "save", "rest"),
                        (*times, times[0] - times[1] - times[2]))))
        work.add(spans)
        sums, total = layer_self(spans)
        for layer in LAYERS:
            own[layer] += sums[layer]
        op_time += total
        untraced += plain.busy
        traced += tally.busy
        passes += 1
        for t in (plain, tally):
            attempted += len(t.latencies)
            failures += t.failures
    per_pass = len(tally.latencies)
    final = wl.finish(state)

    tally, spans = _traced_drive(layer_probe(seed, workdir / "probe"), tracer)
    attempted += len(tally.latencies)
    failures += tally.failures

    values, from_probe = layer_metrics(first, work, Calls().add(spans), own, op_time)
    values.update(kb_probe(seed, workdir))
    values.update(startup_probe(workdir))
    values["trace.overhead_frac"] = traced / untraced - 1.0
    print(f"traced passes: {passes} x {per_pass} ops; untraced {untraced:.2f} s, "
          f"traced {traced:.2f} s, overhead {100 * (traced / untraced - 1):.1f} %")
    if from_probe:
        print("timed on the layer probe (not called by this workload): "
              + ", ".join(from_probe))
    print("notes " + json.dumps(state.notes, sort_keys=True))
    print(_why(wl, values, 1e3 * op_time / (passes * per_pass)))
    return values, attempted, failures, final


def _why(wl, values: dict, op_ms: float) -> str:
    """Compare the layer self-time shares with the workload's stated reason."""
    from tracing import LAYERS

    shares = {layer: values[f"{layer}.self_frac"] for layer in LAYERS}
    if wl.children:
        # A cspaces command also pays interpreter start and imports, which
        # the in-process passes do not see: take shares of the whole command.
        startup = values["cli.interpreter_ms"] + values["cli.import_ms.conceptspaces"]
        shares = {k: v * op_ms / (startup + op_ms) for k, v in shares.items()}
        shares["startup"] = startup / (startup + op_ms)
    busy, idle = WHY[wl.name]
    share = sum(shares[layer] for layer in busy)
    quiet = {layer: round(shares[layer], 4) for layer in idle}
    verdict = ("confirmed" if share >= 0.5 and max(quiet.values()) <= 0.1
               else "refuted")
    return (f"why ({wl.name}): {'+'.join(busy)} hold {share:.3f} of the "
            f"operation time (>= 0.5 expected); idle {quiet} (<= 0.1 each) "
            f"-> {verdict}")


def _write_spans(name: str, seed: int, spans) -> None:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "op": s.op,
                                 "meta": s.meta if isinstance(s.meta, (int, str)) else None})
                     + "\n")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("height", "algebra", "cli"))
    parser.add_argument("--seed", default=str(DEFAULT_SEED),
                        help=f"integer, or 'holdout' for {HOLDOUT_SEED}")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.seed = HOLDOUT_SEED if args.seed == "holdout" else int(args.seed)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "conceptspaces" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("CSPACES_")]:
        del os.environ[key]   # solver settings come from the KB defaults
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    print(f"conceptspaces benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(args.seed)))
    workdir = WORK_DIR / f"{wl.name}-{os.getpid()}"
    for sub in ("probe", "setup"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else measured_run
        values, attempted, failures, final = run(wl, args.seed, args.seconds,
                                                 workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()   # only when no other run is using it
        except OSError:
            pass
    if args.trace:
        from tracing import PER_LAYER
        rows = {k: (values[k], unit, "") for k, (unit, _) in PER_LAYER.items()}
    else:
        rows = values
    for name, (value, unit, note) in rows.items():
        print(f"{name:<50} {value:>14.6g} {unit:<6} {note}")
    for failure in failures:
        print("FAIL " + json.dumps(failure))
    for message in final:
        print("FAIL " + message)
    result = {
        "correct": not failures and not final,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in rows.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
