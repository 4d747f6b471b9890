#!/usr/bin/env python3
"""Benchmark of ntglab: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload posterior_risk --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing in the
process.  ``--trace 1`` alternates untraced passes with traced ones, in
which every public function of each ntglab module is wrapped in a span; it
prints the per-layer metrics and the tracing overhead and writes the spans
to ``.bench_out/``.  The last line of standard output is
one JSON object with the metrics named in ``BENCHMARK.json``.  See
``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402  (imports no numpy)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
UNTRACED_MIN_PASSES = 3
PROBE_TIMEOUT_S = 60
NPROC = len(os.sched_getaffinity(0))


def _fail(message: str, code: int = 1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _load_program():
    """Import ntglab from this checkout's ``src`` and the workloads."""
    try:
        import ntglab
        import workloads
    except ImportError as exc:
        _fail(f"cannot import ntglab from {SRC}: {exc}", 2)
    if Path(ntglab.__file__).resolve().parent.parent != SRC:
        _fail(f"ntglab was imported from {ntglab.__file__}, not from {SRC}", 2)
    return workloads


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, print the time taken, exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def _build(workloads, args):
    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              64)
    OUT.mkdir(exist_ok=True)
    return build(args.seed, OUT)


def _setup_seconds(args, probes: int) -> list[float]:
    """Set-up time of ``probes`` fresh interpreters: each imports ntglab and
    builds the workload's inputs, timed inside the child from its first
    statement."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(probes):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            _fail(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def _declared_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def _print_table(title: str, metrics: dict) -> None:
    print(f"-- {title}")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<{width}}  {text:>14}  {unit}")


def _failures(results) -> dict:
    out: dict = {}
    for r in results:
        if r.outcome != "ok":
            key = f"{r.outcome}: {r.detail.splitlines()[0][:160]}"
            out[key] = out.get(key, 0) + 1
    return out


def _result_line(results, metrics: dict, names) -> str:
    missing = [n for n in names if n not in metrics]
    if missing:
        _fail(f"metrics not produced: {missing}")
    return json.dumps({
        "correct": harness.correct(results),
        "attempted": len(results),
        "failed": sum(r.outcome != "ok" for r in results),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    })


def _untraced(args, ops, e2e_names) -> None:
    # Half the set-up probes run before the measured loop and half after,
    # so their median spans the run's period.
    setup = _setup_seconds(args, SETUP_PROBES // 2 + 1)
    run = harness.run_ops(ops, args.seconds, min_passes=UNTRACED_MIN_PASSES)
    setup += _setup_seconds(args, SETUP_PROBES // 2)
    if all(r.outcome != "ok" for r in run.results):
        _fail(f"no operation was verified: {json.dumps(_failures(run.results))}")
    metrics = {"setup_s": (statistics.median(setup), "s")}
    metrics.update(harness.end_to_end(run))
    _print_table("end-to-end (untraced)", metrics)
    print(f"setup_s samples: {[round(t, 4) for t in setup]}")
    print(f"failures: {json.dumps(_failures(run.results))}")
    print(_result_line(run.results, metrics, e2e_names))


def _traced(args, ops, facts, layer_names) -> None:
    import layers
    import spans
    from ntglab import blyth, cli, ntg, numint, regress, risk, specfun, verify

    modules = (specfun, ntg, blyth, numint, risk, regress, verify, cli)
    short = {m.__name__: m.__name__.rsplit(".", 1)[-1] for m in modules}

    tracer = spans.Tracer(observers=layers.OBSERVERS)
    names: list[str] = []

    def before_pass(k):
        # Untraced and traced passes alternate, so drift in the machine's
        # speed reaches both alike.
        tracer.restore()
        if k % 2:
            names[:] = tracer.instrument(modules, short)

    try:
        run = harness.run_ops(ops, args.seconds, on_op=tracer.begin_op,
                              before_pass=before_pass, min_passes=2)
    finally:
        tracer.restore()
    plain = [r for r in run.results if r.pass_index % 2 == 0]
    traced = [r for r in run.results if r.pass_index % 2 == 1]
    stats, counts = tracer.totals()
    metrics = layers.layer_metrics(stats, counts, names, run.passes // 2)
    untraced_wall = harness.best_wall(plain)
    traced_wall = harness.best_wall(traced)
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.overhead_ratio"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    metrics["trace.spans"] = (sum(s.calls for s in stats.values()) / (run.passes // 2),
                              "count")
    _print_table("per-layer (traced)", metrics)
    functions = {name: {"calls": s.calls, "self_s": s.self_s, "incl_s": s.incl_s}
                 for name, s in sorted(stats.items())}
    sidecar = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write_sidecar(sidecar, {
        "workload": args.workload,
        "seed": args.seed,
        "machine": facts,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "functions": functions,
        "op_fields": ["id", "label", "seconds", "outcome", "traced"],
        "ops": [[i, r.label, r.seconds, r.outcome, r.pass_index % 2 == 1]
                for i, r in enumerate(run.results)],
    })
    print(f"spans written to {sidecar.relative_to(ROOT)}")
    print(f"failures: {json.dumps(_failures(run.results))}")
    print(_result_line(run.results, metrics, layer_names))


def main(argv=None) -> None:
    args = _parse(argv)
    caps = harness.cap_thread_pools(NPROC)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    workloads = _load_program()
    ops = _build(workloads, args)
    if args.setup_only:
        print(f"{time.perf_counter() - T_START!r}")
        return
    e2e_names, layer_names = _declared_metrics()
    facts = harness.machine_facts(NPROC, caps)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes of {len(ops)} operations")
    print(f"machine: {json.dumps(facts)}")
    if args.trace:
        _traced(args, ops, facts, layer_names)
    else:
        _untraced(args, ops, e2e_names)


if __name__ == "__main__":
    main()
