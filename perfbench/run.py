"""Benchmark of the cogent toolkit: pretraining, fine-tuning and evaluation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pretrain-quick --seed 1 --seconds 10 --trace 0

Runs one workload (see WORKLOADS in workloads.py) as a closed loop for
`--seconds`, checks its outputs, and prints a readable report followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}. With
`--trace 0` the metrics are the end-to-end metrics; with `--trace 1` the run
measures untraced for half of `--seconds`, then traced for the other half,
and the metrics are the per-layer ones. `--tiny` shrinks every size, for
smoke tests. Exit status 2 means the program could not be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# name -> unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "train_step_s.p50": "s",
    "eval_samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
    "ckpt_bytes": "bytes",
}
# end-to-end timings whose traced-minus-untraced difference is reported
OVERHEAD_OF = ("setup_s", "train_samples_per_s", "train_step_s.p50", "eval_samples_per_s")
IMPORT_REPEATS = 7
# BLAS runs on one thread. With two threads on a 2-core machine, one busy
# process on the other core made paper-scale steps 2-3x slower, so a run
# measured the scheduler more than the program. One thread barely notices
# that process; on an idle machine it makes a paper-scale step ~10% and a
# forward pass ~30% slower than two threads.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def single_blas_thread() -> None:
    """Pin BLAS to one thread; call before numpy is imported."""
    os.environ.update(dict.fromkeys(BLAS_THREAD_ENV, "1"))


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every size")
    parser.add_argument(
        "--work-dir", type=Path, default=ROOT / ".perfbench",
        help="scratch inputs, fingerprints and spans (default: .perfbench)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_seconds() -> float:
    """Median time to import cogent in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import cogent; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def measure_setup(workload, corpus_dir, seed, input_path, import_s, recorder=None):
    from probes import clock
    from workloads import setup

    durations, state = [], None
    for _ in range(workload.setup_repeats):
        if recorder is not None:
            recorder.op = -1
        t0 = clock()
        state = setup(workload, corpus_dir, seed, input_path)
        durations.append(clock() - t0)
    return import_s + statistics.median(durations), state


def timed_loop(workload, state, seconds, probe, out_dir, recorder=None):
    """Closed loop of operations within `seconds` (at least one operation).

    Stops at the first exception, which the caller reports as a failure.
    """
    from probes import clock
    from workloads import RUN_OP

    run_op = RUN_OP[workload.stage]
    records, error = [], None
    start = last = clock()
    # start another operation only if one more of the last one's length fits
    while not records or 2 * clock() - last - start <= seconds:
        if recorder is not None:
            recorder.op = len(records)
        last = clock()
        try:
            records.append(run_op(state, out_dir, probe))
        except Exception:  # the run reports the failure instead of crashing
            error = traceback.format_exc()
            break
    return records, error


def measure(workload, args, seconds, corpus_dir, input_path, import_s, out_dir, tracer=None):
    """Set-ups and the timed loop, with the step probe (and tracer) installed."""
    from cogent import trainer
    from probes import Patches, StepProbe

    probe, patches = StepProbe(), Patches()
    recorder = None
    if tracer is not None:
        tracer.install(patches)
        recorder = tracer.recorder
    probe.install(patches, trainer)
    try:
        setup_s, state = measure_setup(
            workload, corpus_dir, args.seed, input_path, import_s, recorder
        )
        records, error = timed_loop(workload, state, seconds, probe, out_dir, recorder)
    finally:
        patches.restore()
    return setup_s, records, error


def end_to_end(records, setup_s) -> dict[str, float]:
    steps = [end - start for r in records for start, end in r.steps]
    return {
        "setup_s": setup_s,
        "train_samples_per_s": statistics.median(r.train_rate for r in records),
        "train_step_s.p50": statistics.median(steps),
        "eval_samples_per_s": statistics.median(r.eval_rate for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ckpt_bytes": statistics.median(r.ckpt_bytes for r in records),
    }


def info_metrics(records) -> dict[str, tuple[float, str, str]]:
    """Stage-specific figures printed for reading, not gated."""
    out = {}
    for key in records[0].info:
        out[key] = (statistics.median(r.info[key] for r in records), "samples/s", "")
    steps = [end - start for r in records for start, end in r.steps]
    if len(steps) >= 100:  # ten samples beyond the 90th percentile
        p90 = statistics.quantiles(steps, n=10)[8]
        out["train_step_s.p90"] = (p90, "s", f"{len(steps)} step intervals")
    return out


def layer_metrics(tracer, setup_repeats, records, untraced, traced) -> dict[str, tuple[float, str]]:
    """Per-layer figures for one set-up plus one operation of the traced run."""
    from probes import BACKWARD_OPS, LAYER_FUNCTIONS, TENSOR_OPS, aggregate

    spans = tracer.recorder.spans
    groups = aggregate(spans, key=lambda span: (span[0], span[4] < 0))
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0}

    def per(name: str, stat: str) -> float:
        in_setup = groups.get((name, True), empty)[stat]
        in_loop = groups.get((name, False), empty)[stat]
        return in_setup / setup_repeats + in_loop / len(records)

    out: dict[str, tuple[float, str]] = {}
    for name in ("tensor.backward", *LAYER_FUNCTIONS):
        out[f"{name}.s"] = (per(name, "s"), "s")
        out[f"{name}.self_s"] = (per(name, "self_s"), "s")
        out[f"{name}.calls"] = (per(name, "calls"), "count")
    for op in TENSOR_OPS:
        out[f"tensor.{op}.fwd_s"] = (per(f"tensor.{op}", "s"), "s")
        out[f"tensor.{op}.calls"] = (per(f"tensor.{op}", "calls"), "count")
    for op in BACKWARD_OPS:
        out[f"tensor.{op}.bwd_s"] = (per(f"tensor.{op}.bwd", "s"), "s")
    nodes = tracer.graph_nodes
    out["tensor.graph_nodes_per_step"] = (statistics.median(nodes) if nodes else 0, "count")
    out["checkpoint.bytes_written"] = (statistics.median(r.ckpt_bytes for r in records), "bytes")

    # split of each step (between two adam_step returns of one epoch)
    marks = {"tensor.backward": [], "optim.adam_step": []}
    for name, start, end, _, _ in spans:
        if name in marks:
            marks[name].append((start, end))
    split = {"forward": [], "backward": [], "adam": []}
    for r in records:
        for lo, hi in r.steps:
            inside = {
                key: sum(e - s for s, e in marks[key] if lo <= s < hi) for key in marks
            }
            split["backward"].append(inside["tensor.backward"])
            split["adam"].append(inside["optim.adam_step"])
            split["forward"].append(hi - lo - inside["tensor.backward"] - inside["optim.adam_step"])
    for key, values in split.items():
        out[f"trainer.step.{key}_s"] = (statistics.median(values), "s")
    for name in OVERHEAD_OF:
        out[f"trace_overhead.{name}"] = (traced[name] - untraced[name], END_TO_END[name])
    return out


class Tally:
    """Counts attempted operations and failures; keeps failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    def records(self, records) -> None:
        for r in records:
            self.attempted += r.operations
            for name, ok, detail in r.checks:
                self.check(name, ok, detail)
        fps = {r.fingerprint for r in records}
        self.check("operations give one fingerprint", len(fps) == 1, f"{len(fps)} distinct")

    def error(self, error: str | None) -> None:
        if error is not None:
            self.attempted += 1
            self.failed += 1
            self.failures.append("operation raised:\n" + error)


def remember(store_path: Path, key: str, value: str) -> str | None:
    """Record `value` under `key`; return the earlier value if one differs."""
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    previous = store.setdefault(key, value)
    if previous == value:
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, store_path)
        return None
    return previous


def run(args, workload, run_dir: Path) -> int:
    import envinfo
    from probes import Tracer
    from workloads import (
        PINNED_SEED, compare_logs, prepare_reference, reference_op, setup, write_corpus,
    )

    scale = "tiny" if args.tiny else "full"
    env = envinfo.environment(ROOT, SRC)
    tally = Tally()

    # inputs, made before anything is timed
    corpus_dir = write_corpus(run_dir / "corpus", workload, workload.per_class, args.seed)
    ref_corpus_dir, input_path = prepare_reference(workload, run_dir, SRC)
    out_dir = run_dir / "out"
    import_s = import_seconds()

    seconds = args.seconds / 2 if args.trace else args.seconds
    setup_s, records, error = measure(
        workload, args, seconds, corpus_dir, input_path, import_s, out_dir
    )
    tally.error(error)
    if not records:
        print(error, file=sys.stderr)
        return 1
    tally.records(records)
    metrics = end_to_end(records, setup_s)
    info = info_metrics(records)

    layers = None
    if args.trace:
        tracer = Tracer()
        traced_setup_s, traced_records, error = measure(
            workload, args, seconds, corpus_dir, input_path, import_s, out_dir, tracer
        )
        tally.error(error)
        if not traced_records:
            print(error, file=sys.stderr)
            return 1
        tally.records(traced_records)
        tally.check(
            "traced and untraced runs give one fingerprint",
            traced_records[0].fingerprint == records[0].fingerprint,
        )
        traced = end_to_end(traced_records, traced_setup_s)
        layers = layer_metrics(tracer, workload.setup_repeats, traced_records, metrics, traced)
        trace_path = args.work_dir / "traces" / f"{workload.name}-seed{args.seed}-{scale}.jsonl"
        tracer.recorder.write(trace_path)

    # pinned-seed reference operation, untimed and untraced
    ref_state = setup(workload, ref_corpus_dir, PINNED_SEED, input_path)
    ref_log, ref_fp = reference_op(workload, ref_state)
    reference = json.loads((HERE / "reference.json").read_text()).get(scale, {}).get(workload.name)
    notes = []
    if reference is None:
        notes.append(f"reference: none recorded for {workload.name} at scale {scale}")
    else:
        ok, detail = compare_logs(ref_log, reference["log"])
        tally.check("reference loss log within tolerance", ok, detail)
        same = ref_fp == reference["fingerprint"]
        notes.append(
            f"reference loss log: {'ok' if ok else 'OUT OF TOLERANCE'} ({detail})"
        )
        notes.append(
            "reference fingerprint: "
            + ("matches the recorded one" if same else
               f"DIFFERS from the recorded {reference['fingerprint']} "
               f"(recorded at src {reference['src_digest'][:12]}); say why numerics changed")
        )

    # the same code must give the same fingerprints in every run
    store = args.work_dir / "fingerprints.json"
    code = env["src_digest"][:16] + "-" + envinfo.tree_digest(HERE, "*.py")[:16]
    for kind, seed, fp in (("timed", args.seed, records[0].fingerprint), ("reference", PINNED_SEED, ref_fp)):
        previous = remember(store, f"{code}/{workload.name}/{scale}/{kind}/seed{seed}", fp)
        tally.check(f"{kind} fingerprint equals earlier runs of this code", previous is None,
                    f"earlier {previous}, now {fp}")

    print(f"# cogent benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} scale={scale} trace={args.trace} "
          f"operations={len(records)}")
    print(f"why {workload.why}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"end_to_end {name} = {value:.6g} {END_TO_END[name]}")
    for name, (value, unit, note) in info.items():
        print(f"info {name} = {value:.6g} {unit}" + (f" ({note})" if note else ""))
    share = tally.failed / tally.attempted
    print(f"info failed_share = {share:.6g} ratio "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    if layers is not None:
        for name, (value, unit) in layers.items():
            print(f"per_layer {name} = {value:.6g} {unit}")
    print(f"fingerprint {records[0].fingerprint} reference {ref_fp}")
    for line in notes + [f"FAILED {f}" for f in tally.failures]:
        print(line)

    chosen = layers if args.trace else {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


def main(argv=None) -> int:
    single_blas_thread()
    if not (SRC / "cogent" / "__init__.py").is_file():
        print(f"error: no cogent sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    args = parse_args(argv)

    import cogent
    from workloads import WORKLOADS

    if Path(cogent.__file__).resolve().parent != SRC / "cogent":
        print(f"error: imported cogent from {cogent.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    run_dir = args.work_dir / "runs" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return run(args, workload, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
