"""chromfield benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {strip,dense,suite,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The run prints a header (CPUs, versions,
seed, per-pass times beside a fixed reference loop) and, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

from tracer import Tracer, layer_metrics
from workloads import Cli, InProcess, cli_env, execute, verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("strip", "dense", "suite", "cli")
SETUP_PROBES = 3


def log(msg: str) -> None:
    print(f"# {msg}", flush=True)


def ref_loop() -> float:
    """A fixed pure-Python loop, timed between passes to show host drift."""
    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return perf_counter() - t0


def set_up(workload: str, seed: int):
    """Build the workload, its first pass's inputs, and make one warm-up call."""
    w = Cli(seed) if workload == "cli" else InProcess(workload, seed)
    first = w.build()
    w.warm_up()
    return w, first


def probe_set_up(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until it is ready to time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
    return elapsed


def import_times() -> tuple[float, float]:
    """Cumulative import seconds of chromfield.cli and of numpy within it."""
    res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import chromfield.cli"],
                         capture_output=True, text=True, cwd=ROOT, env=cli_env(),
                         timeout=120, check=True)
    cumulative = {}
    for line in res.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return cumulative["chromfield.cli"], cumulative["numpy"]


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong: list[str] = []
        self.pass_s: list[float] = []
        self.traced_s: list[float] = []


class CliSpans:
    """Traces ``cli`` by running its invocations through cli_child.py."""

    def __init__(self, w, span_dir: Path):
        self.w, self.dir = w, span_dir
        span_dir.mkdir()

    def install(self) -> None:
        self.w.span_dir = self.dir

    def uninstall(self) -> None:
        self.w.span_dir = None

    def span_lists(self) -> list:
        files = sorted(self.dir.iterdir())
        lists = [json.loads(f.read_text()) for f in files]
        for f in files:
            f.unlink()
        self.dir.rmdir()
        return lists


def measure(w, ops, seconds: float, tally: Tally, tracing=None) -> None:
    """Run and check whole passes while another one fits in ``seconds``.

    With ``tracing``, passes alternate untraced and traced, so that host
    drift touches both alike and their difference is the tracing overhead.
    """
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        traced = tracing is not None and len(tally.traced_s) < len(tally.pass_s)
        if ops is None:
            ops = w.build()
        if traced:
            tracing.install()
        dt, out = execute(ops)
        if traced:
            tracing.uninstall()
        failed, wrong = verify(ops, out)
        tally.attempted += len(ops)
        tally.failed += failed
        tally.wrong += wrong
        (tally.traced_s if traced else tally.pass_s).append(dt)
        ref = ref_loop()
        log(f"{'traced' if traced else 'untraced'} pass: {dt:.4f} s, {len(ops)} ops, "
            f"{failed} failed; reference loop {ref:.4f} s")
        now = perf_counter()
        if now + (now - start) > deadline and (tracing is None or tally.traced_s):
            return
        ops = None


def traced_run(args, w, ops, tally: Tally, out_dir: Path) -> dict:
    """Alternate untraced and traced passes; returns the per-layer metrics."""
    tracing = (CliSpans(w, out_dir / f"spans-{os.getpid()}")
               if args.workload == "cli" else Tracer())
    measure(w, ops, args.seconds, tally, tracing)
    span_lists = tracing.span_lists()
    trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "format": "per process: [layer, start_s, end_s, parent index, info]",
        "processes": span_lists}))
    log(f"spans written to {trace_file.relative_to(ROOT)}")
    layers = layer_metrics(span_lists, len(tally.traced_s))
    traced_s = statistics.median(tally.traced_s)
    imports = sorted(import_times() for _ in range(3))[1]
    invocations = getattr(w, "invocation_s", None)
    layers.update({
        "cli.import_s": imports[0],
        "cli.import_numpy_s": imports[1],
        "cli.invocation_s": statistics.median(invocations) if invocations else 0.0,
        "trace.pass_s": traced_s,
        "trace.overhead_s": traced_s - statistics.median(tally.pass_s),
    })
    units = {"calls": "count", "leaves": "count", "keys": "count",
             "distinct_ratio": "ratio", "walks_per_suite": "count",
             "colorings_per_s": "1/s", "leaves_per_s": "1/s"}
    return {k: (v, units.get(k.rsplit(".", 1)[1], "s")) for k, v in layers.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "chromfield" / "__init__.py").is_file():
        print(f"error: no chromfield sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        w, _ = set_up(args.workload, args.seed)
        print("ready", flush=True)
        if args.workload == "cli":
            w.close()
        return 0

    log(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    log(f"cpus usable {len(os.sched_getaffinity(0))} of os.cpu_count() {os.cpu_count()}; "
        f"python {sys.version.split()[0]}, numpy {version('numpy')}; workers=1")
    metrics: dict = {}
    if not args.trace:
        probes = [probe_set_up(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        log(f"set-up probes: {', '.join(f'{p:.4f}' for p in probes)} s")
        metrics["setup_s"] = (statistics.median(probes), "s")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    w, ops = set_up(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        metrics = traced_run(args, w, ops, tally, out_dir)
    else:
        measure(w, ops, args.seconds, tally)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics["pass_s"] = (statistics.median(tally.pass_s), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, "MB")
    if args.workload == "cli":
        w.close()

    log(f"{args.workload}: attempted {tally.attempted}, failed {tally.failed}; "
        f"relabelings drawn {w.relabel.drawn}, repeats redrawn {w.relabel.redrawn}")
    for msg in tally.wrong[:20]:
        log(f"WRONG {msg}")
    correct = not tally.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
