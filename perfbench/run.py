"""teunroll benchmark: times ``teunroll recon | train | eval`` in process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one caller: a closed loop of ``teunroll.cli.main``
calls, each with a fresh ``--seed``, for ``--seconds`` seconds (and at
least ``MIN_OPS`` ops).  Every op's artifacts are checked after it returns.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` alternates untraced ops with ops run under the wrappers of tracing.py and
reports the per-layer metrics, the count self-checks and the tracing
overhead.  The last stdout line is the JSON result; lines before it are the
same metrics for people, plus the run record.
"""

import os

# Pin BLAS and OpenMP pools before numpy is imported anywhere in this process
# or its set-up probes; the program itself sets no thread counts.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPS = 5  # set-ups per run: this process plus four fresh interpreters
MIN_OPS = 11  # so the tail percentile has 10 samples above it
MIN_TRACED_PAIRS = 3
TIME_CAP_S = 140.0  # stop adding ops past this, to end well within 180 s
DATA_SEED = 0  # phantoms and coil maps; see Inputs

sys.path.insert(0, HERE)
import workloads  # noqa: E402  (imports nothing of the program or numpy)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    sys.path.insert(0, SRC)
    import teunroll.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: imported teunroll from {cli.__file__}, not {SRC}")
    return cli


class Inputs:
    """Every seed a run uses besides DATA_SEED.

    The phantoms and coil maps are the same in every run, so psnr_db
    compares numerics rather than how hard one draw of phantoms is.  The
    workload seed draws everything else: the noise of each recon op, the
    shuffle of each training op and the training run behind the eval
    checkpoint.
    """

    def __init__(self, seed):
        rng = random.Random(seed)
        self.setup_seed = rng.randrange(1 << 30)
        self.warmup_seed = rng.randrange(1 << 30)
        self._rng = rng
        self._ops = []

    def op_seed(self, i):
        while len(self._ops) <= i:
            self._ops.append(self._rng.randrange(1 << 30))
        return self._ops[i]


def set_up(workload, work, inputs):
    """Import, dataset/config/checkpoint generation and one warm-up op;
    returns (cli module, seconds).  The warm-up op's check is not timed."""
    t0 = time.perf_counter()
    cli = import_program()
    workload.setup(cli, work, DATA_SEED, inputs.setup_seed)
    code = cli.main(workload.argv(0, inputs.warmup_seed))
    seconds = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"benchmark: warm-up op exited {code}")
    workload.check(0)
    return cli, seconds


def probe_setup(args):
    """Child-process set-up: a cold interpreter's set-up time."""
    _, seconds = set_up(workloads.make(args.workload), args.setup_probe, Inputs(args.seed))
    print(json.dumps({"setup_s": seconds}))


def cold_setups(args, n):
    times = []
    for rep in range(1, n + 1):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0",
               "--setup-probe", os.path.join(WORK, args.workload, f"setup{rep}")]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if res.returncode != 0:
            raise SystemExit(f"benchmark: set-up probe failed:\n{res.stderr}")
        times.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_op(cli, workload, i, seed, tracer):
    """One op: returns (seconds, ok, quality, spans)."""
    argv = workload.argv(i, seed)
    spans = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            code, spans = tracer.run_op(lambda: cli.main(argv))
    except Exception:  # an op that raises is a failed op, not a crashed benchmark
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return dt, False, None, spans
    dt = time.perf_counter() - t0
    if code != 0:
        print(f"op {i}: exit {code}", file=sys.stderr)
        return dt, False, None, spans
    try:
        quality = workload.check(i)
    except (workloads.CheckFailed, KeyError, ValueError, OSError) as exc:
        print(f"op {i}: output check failed: {exc}", file=sys.stderr)
        return dt, False, None, spans
    return dt, True, quality, spans


def tail(samples):
    """Value at the highest percentile with at least 10 samples above it."""
    s = sorted(samples)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def run_record(args, cli):
    import numpy

    cache = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction" and level in ("2", "3"):
            cache[f"L{level}"] = size
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    digest = hashlib.sha256()
    src = os.path.dirname(cli.__file__)
    for dirpath, dirnames, files in os.walk(src):
        dirnames.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "cache": cache,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "roofline": "not claimed: no bandwidth or roofline metric is measured",
    }


def measure(args, cli, workload, inputs, tracer, cal):
    """The closed loop; returns per-op times, ok flags, qualities, traces and
    the kernel time measured just before each op."""
    ops = []
    start = time.perf_counter()
    deadline = start + args.seconds
    min_ops = 2 * MIN_TRACED_PAIRS if tracer else max(MIN_OPS, workload.cycle)
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        if time.perf_counter() - start > TIME_CAP_S:
            break
        traced = tracer if tracer is not None and i % 2 == 1 else None
        cal_s = cal.kernel()
        dt, ok, quality, spans = run_op(cli, workload, i, inputs.op_seed(i), traced)
        count_errors = []
        if ok and spans is not None:
            import tracing

            layers = tracing.layer_metrics(spans)
            count_errors = workload.count_errors(layers)
        else:
            layers = None
        ops.append({"s": dt, "cal_s": cal_s, "ok": ok, "quality": quality, "spans": spans,
                    "layers": layers, "count_errors": count_errors})
        i += 1
    return ops


def end_to_end(ops, workload, setup_times):
    """Times are rescaled to reference-machine speed by the mean kernel pass
    of the run (calibration.py).  The set-ups precede and follow the loop
    within seconds, so the same factor holds for them.  The measured times
    are in the notes."""
    import calibration

    measured = [op["s"] for op in ops]
    cal_s = statistics.fmean(op["cal_s"] for op in ops)
    k = calibration.scale(cal_s)
    lat = [t * k for t in measured]
    tail_s, pct = tail(lat)
    first = [op["quality"] for op in ops[: workload.cycle] if op["ok"]]
    out = {
        "setup_s": statistics.median(setup_times) * k,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "items_per_s": workload.items_per_op * len(lat) / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "psnr_db": statistics.fmean(q["psnr_db"] for q in first) if first else float("nan"),
    }
    notes = {
        "latency_tail_percentile": pct,
        "latency_samples": len(lat),
        "latencies_ms": [round(t * 1e3, 1) for t in lat],
        "calibration_ms": cal_s * 1e3,
        "measured latency_p50_ms": statistics.median(measured) * 1e3,
        "measured latency_tail_ms": tail(measured)[0] * 1e3,
        "measured items_per_s": workload.items_per_op * len(measured) / sum(measured),
        "measured setup_s_reps": [round(t, 3) for t in setup_times],
        "measured latencies_ms": [round(t * 1e3, 1) for t in measured],
        "measured calibration_ms": [round(op["cal_s"] * 1e3, 1) for op in ops],
    }
    for key in ("train_loss", "zero_filled_psnr_db", "clamps"):
        if first and key in first[0]:
            notes[key] = statistics.fmean(q[key] for q in first)
    return out, notes


def per_layer(ops):
    """Medians over the traced ops, and the overhead against the untraced ones."""
    traced = [op for op in ops if op["layers"] is not None]
    untraced = [op["s"] for op in ops if op["spans"] is None]
    if not traced or not untraced:
        raise SystemExit("benchmark: no successful traced and untraced ops to compare")
    out = {}
    for key in traced[0]["layers"]:
        out[key] = statistics.median(op["layers"][key] for op in traced)
    p50_traced = statistics.median(op["s"] for op in traced)
    p50_untraced = statistics.median(untraced)
    out["trace.overhead_frac"] = p50_traced / p50_untraced - 1.0
    notes = {
        "calibration_ms": statistics.fmean(op["cal_s"] for op in ops) * 1e3,
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
        "trace_p50_traced_ms": p50_traced * 1e3,
        "trace_p50_untraced_ms": p50_untraced * 1e3,
    }
    return out, notes


def write_spans(path, ops):
    with open(path, "w") as fh:
        for i, op in enumerate(ops):
            for name, start, end, parent, info in op["spans"] or ():
                fh.write(json.dumps([i, name, start, end, parent, info]) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "teunroll", "cli.py")):
        raise SystemExit(f"benchmark: no program at {SRC}/teunroll; "
                         "run from the root of a teunroll checkout")
    if args.setup_probe:
        probe_setup(args)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}")
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs = Inputs(args.seed)
    workload = workloads.make(args.workload)
    cli, setup0 = set_up(workload, os.path.join(work, "setup0"), inputs)
    import calibration  # after set-up, which times the import of numpy

    cal = calibration.Calibration()

    tracer = None
    errors = []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        missing = tracer.missing_bindings()
        tracer.uninstall()
        errors += [f"binding not wrapped: {m}" for m in missing]

    ops = measure(args, cli, workload, inputs, tracer, cal)
    failed = sum(not op["ok"] for op in ops)
    for i, op in enumerate(ops):
        errors += [f"op {i}: count self-check: {e}" for e in op["count_errors"]]

    if args.trace:
        metrics, notes = per_layer(ops)
        write_spans(os.path.join(work, "spans.jsonl"), ops)
        wanted = spec["per_layer"]
    else:
        setup_times = [setup0] + cold_setups(args, SETUP_REPS - 1)
        metrics, notes = end_to_end(ops, workload, setup_times)
        wanted = spec["end_to_end"]

    notes["failed_frac"] = failed / len(ops)
    for err in errors:
        print(f"benchmark: {err}", file=sys.stderr)
    for m in wanted:
        print(f"{args.workload:16s} {m['name']:32s} {metrics[m['name']]:>14.6g} {m['unit']}")
    for key, value in notes.items():
        print(f"{args.workload:16s} {key:32s} {value}")
    print("record: " + json.dumps(run_record(args, cli)))
    correct = failed == 0 and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
