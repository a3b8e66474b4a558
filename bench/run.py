"""Benchmark for the wellcovered CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each op is one ``wellcovered.cli.main`` call in a fresh interpreter
(``bench/op.py``), so it starts from cold program state as every CLI user
does.  A pass is one run through a workload's ops; passes repeat, closed
loop and one op at a time, until ``--seconds`` have gone and the workload's
minimum number of passes is done.  Every answer is checked outside the timed
region.

The whole run is pinned to one CPU.  With ``--trace 0`` the reference loop
of ``bench/refloop.py`` runs beside set-up and the ops on that CPU, and the
CPU time of each op and each set-up step is rescaled by the reference's
speed over its interval (``rescale``), which takes out most of the drift in
a shared host's core speed.

``--workload all`` runs every workload in turn and prints each one's block.
With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``norm_cpu_s``, ``peak_rss_mb``, ``setup_s``).  With ``--trace 1`` the same
untraced passes run first, then traced passes, and the last line carries the
per-layer metrics of ``bench/spans.py`` plus the tracing overhead.  Earlier
lines print every metric by name and unit for people.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import answers
import spans
from inputs import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OP_SCRIPT = os.path.join(BENCH_DIR, "op.py")
REF_SCRIPT = os.path.join(BENCH_DIR, "refloop.py")

IMPORT_PROBES = 8    # fresh interpreters timing the package import, run
                     # twice per run: before and after the passes
GEN_REPEATS = 7      # input generations timed per run
RUN_LIMIT_S = 170    # no pass starts that would likely end after this
REF_UNIT_S = 0.0015  # nominal CPU time of one reference unit: norm_cpu_s
                     # is CPU time on a core that runs a unit in this long
REF_MIN_SAMPLES = 8  # reference units that set the speed over one op
REF_TRIM = 0.05      # share of the slowest and of the fastest units dropped

IMPORT_PROBE = ("import sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "t, c = time.perf_counter(), time.process_time()\n"
                "import wellcovered.cli\n"
                "c = time.process_time() - c\n"
                "print(t, time.perf_counter(), c)\n")


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    norm_cpu_s: float = 0.0   # the intervals' rescaled CPU times, summed
    rss_mb: float = 0.0
    ops: int = 0
    failed: int = 0
    intervals: list = field(default_factory=list)  # (start, end, cpu_s) per op
    traces: list = field(default_factory=list)


class Runner:
    """Runs ops and checks their answers; remembers report bytes so that
    ops sharing a determinism key can be compared."""

    def __init__(self, workdir: str, started: float) -> None:
        self.workdir = workdir
        self.started = started
        self.next_op = 0
        self.reports: dict[str, bytes] = {}
        self.problems: list[str] = []
        self.unrun = 0   # ops of minimum passes cut by the run limit

    def op(self, op, trace: bool, out: Pass) -> None:
        op_id = self.next_op
        self.next_op += 1
        result_path = os.path.join(self.workdir, f"op{op_id}.json")
        output_path = os.path.join(self.workdir, f"op{op_id}.out")
        cmd = [sys.executable, OP_SCRIPT, SRC, result_path, output_path,
               "1" if trace else "0", str(op_id), "--", *op.argv]
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        out.ops += 1
        begun = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, timeout=timeout)
        except subprocess.TimeoutExpired:
            # the time until the kill still counts, as wall and as CPU time,
            # so an op slow enough to time out raises its pass's times
            # instead of lowering them
            ended = time.perf_counter()
            out.wall_s += ended - begun
            out.cpu_s += ended - begun
            out.intervals.append((begun, ended, ended - begun))
            self._fail(out, op, f"timed out after {timeout:.0f} s")
            return
        if proc.returncode != 0:
            # op.py itself broke (import error, a traced name missing): the
            # measurement is void, so stop loudly rather than count a failure
            raise RuntimeError(f"op process failed for {op.argv}:\n"
                               + proc.stderr.decode(errors="replace"))
        with open(result_path, encoding="utf-8") as fh:
            record = json.load(fh)
        with open(output_path, "rb") as fh:
            output = fh.read()
        out.wall_s += record["wall_s"]
        out.cpu_s += record["cpu_s"]
        out.intervals.append((record["start"], record["end"], record["cpu_s"]))
        out.rss_mb = max(out.rss_mb, record["rss_mb"])
        if trace:
            out.traces.append((record["spans"], record["counts"]))
        payload, problems = answers.parse_json(output)
        if payload is not None:
            problems = op.check(payload)
        if record["error"] is not None or record["exit"] != 0:
            problems.insert(0, f"exit {record['exit']}, error {record['error']}, "
                               f"stderr {record['stderr']!r}")
        if op.same_as is not None:
            first = self.reports.setdefault(op.same_as, output)
            if first != output:
                problems.append(f"report differs from the earlier one for {op.same_as}")
        if problems:
            self._fail(out, op, "; ".join(problems))

    def _fail(self, out: Pass, op, why: str) -> None:
        out.failed += 1
        self.problems.append(f"{' '.join(op.argv)}: {why}")

    def passes(self, workload, state: dict, seconds: float, min_passes: int,
               trace: bool) -> list[Pass]:
        ops = workload.ops(state, self.workdir)
        done: list[Pass] = []
        start = time.perf_counter()
        while len(done) < min_passes or time.perf_counter() - start < seconds:
            if done:
                longest = max(p.wall_s for p in done)
                if time.perf_counter() + longest - self.started > RUN_LIMIT_S:
                    if len(done) < min_passes:
                        # a minimum pass left out (verify_default's second
                        # pass, which repeats its seeds for the determinism
                        # check) is a failure, not a shorter run
                        self.unrun += (min_passes - len(done)) * len(ops)
                        self.problems.append(
                            f"run limit of {RUN_LIMIT_S} s reached after "
                            f"{len(done)} of {min_passes} passes")
                    break
            result = Pass()
            for op in ops:
                self.op(op, trace, result)
            done.append(result)
            if result.failed:
                break
        return done


@contextlib.contextmanager
def reference(workdir: str):
    """Run the reference loop for the length of the block; the list it
    yields holds the loop's ``(end, cpu_s)`` samples once the block ends."""
    out_path = os.path.join(workdir, "reference.json")
    samples: list = []
    proc = subprocess.Popen([sys.executable, REF_SCRIPT, out_path])
    try:
        yield samples
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"reference loop exited with {proc.returncode}")
    with open(out_path, encoding="utf-8") as fh:
        samples.extend(tuple(s) for s in json.load(fh))


def rescale(intervals: list, samples: list) -> list[float]:
    """The CPU time of each ``(start, end, cpu_s)`` interval on a core that
    runs a reference unit in REF_UNIT_S: ``cpu_s`` times REF_UNIT_S over the
    mean CPU time of the reference units that ended inside the interval (or
    of the REF_MIN_SAMPLES units nearest to its middle, if fewer ended
    inside).  ``samples`` are the reference loop's, in time order.

    A mean, not a median: a core's speed flips between levels within
    milliseconds, and an op's CPU time adds up every level it met.  The
    REF_TRIM tails are dropped against the odd interrupted unit."""
    if len(samples) < REF_MIN_SAMPLES:
        raise RuntimeError(f"only {len(samples)} reference samples")
    ends = [t for t, _ in samples]
    out = []
    for start, end, cpu_s in intervals:
        lo, hi = bisect.bisect_left(ends, start), bisect.bisect_right(ends, end)
        if hi - lo < REF_MIN_SAMPLES:
            mid = bisect.bisect_left(ends, (start + end) / 2)
            lo = max(0, min(mid - REF_MIN_SAMPLES // 2,
                            len(samples) - REF_MIN_SAMPLES))
            hi = lo + REF_MIN_SAMPLES
        units = sorted(c for _, c in samples[lo:hi])
        cut = int(len(units) * REF_TRIM)
        out.append(cpu_s * REF_UNIT_S
                   / statistics.fmean(units[cut:len(units) - cut]))
    return out


def _import_times() -> list[tuple[float, float, float]]:
    """(start, end, cpu_s) of the package import in fresh interpreters."""
    probes = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                              stdout=subprocess.PIPE, check=True)
        start, end, cpu_s = map(float, proc.stdout.split())
        probes.append((start, end, cpu_s))
    return probes


def _generate(workload, state: dict, workdir: str) -> tuple[float, float, float]:
    """(start, end, cpu_s) of one generation of the workload's inputs."""
    start, cpu_start = time.perf_counter(), time.process_time()
    workload.generate(state, workdir)
    cpu_s = time.process_time() - cpu_start
    return start, time.perf_counter(), cpu_s


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it
    (nearest rank), or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    pct = int(100 * (n - 10) / n)
    rank = max(1, -(-pct * n // 100))
    return pct, sorted(samples)[rank - 1]


def _import_package() -> None:
    if not os.path.isfile(os.path.join(SRC, "wellcovered", "__init__.py")):
        raise SystemExit(f"no package source at {SRC}: run from a checkout")
    sys.path.insert(0, SRC)
    import wellcovered
    if not os.path.abspath(wellcovered.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"wellcovered imported from {wellcovered.__file__}")


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    # ops and the reference loop inherit this, so they share one core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    _import_package()
    workload = WORKLOADS[name]
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=work_root)
    try:
        state = workload.prepare(seed)
        runner = Runner(workdir, started)
        # traced spans are wall times, so a traced run has nothing beside them
        with (contextlib.nullcontext([]) if trace
              else reference(workdir)) as samples:
            gen = [_generate(workload, state, workdir)
                   for _ in range(GEN_REPEATS)]
            imports = _import_times()
            plain = runner.passes(workload, state, seconds, workload.min_passes,
                                  False)
            imports += _import_times()
        traced = (runner.passes(workload, state, seconds, 1, True)
                  if trace else [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall_s = statistics.median(p.wall_s for p in plain)
    attempted = sum(p.ops for p in plain + traced) + runner.unrun
    failed = sum(p.failed for p in plain + traced) + runner.unrun
    print(f"workload {name} seed {seed}: {len(plain)} untraced passes, "
          f"{len(traced)} traced, {attempted} ops")
    for problem in runner.problems:
        print(f"  FAILED {problem}")
    print(f"  fail_frac     {failed / attempted:.4f}  ({failed}/{attempted} ops)")
    print(f"  wall_s        {wall_s:.4f} s  median of {len(plain)} passes")

    if not trace:
        for p in plain:
            p.norm_cpu_s = sum(rescale(p.intervals, samples))
        norms = [p.norm_cpu_s for p in plain]
        import_s = statistics.median(rescale(imports, samples))
        gen_s = statistics.median(rescale(gen, samples))
        norm_cpu_s = statistics.median(norms)
        tail = tail_percentile(norms)
        tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                     else "no tail percentile below 11 samples")
        print(f"  cpu_s         {statistics.median(p.cpu_s for p in plain):.4f} s"
              f"  median of {len(plain)} passes, beside the reference loop")
        print(f"  norm_cpu_s    {norm_cpu_s:.4f} s  median of {len(norms)} passes; "
              f"{tail_text}; reference unit median "
              f"{1000 * statistics.median(c for _, c in samples):.4f} ms "
              f"over {len(samples)} units")
        metrics = {
            "norm_cpu_s": (norm_cpu_s, "s"),
            "peak_rss_mb": (statistics.median(p.rss_mb for p in plain), "MB"),
            "setup_s": (import_s + gen_s, "s"),
        }
        print(f"  peak_rss_mb   {metrics['peak_rss_mb'][0]:.1f} MB")
        print(f"  setup_s       {import_s + gen_s:.4f} s  (import {import_s:.4f} s, "
              f"median of {len(imports)}; inputs {gen_s:.4f} s, median of "
              f"{len(gen)}; CPU times rescaled as for norm_cpu_s; import wall "
              f"median {statistics.median(e - s for s, e, _ in imports):.4f} s)")
    else:
        gen_s = statistics.median(end - start for start, end, _ in gen)
        metrics = _layer_report(traced, wall_s, gen_s, name, seed)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _layer_report(traced: list[Pass], wall_s: float, gen_s: float,
                  name: str, seed: int) -> dict:
    """Per-layer metrics: the mean over traced passes of each pass's
    metrics, plus input generation time and the tracing overhead."""
    if not traced:
        raise SystemExit("no traced pass completed")
    merged = [spans.merge(p.traces) for p in traced]
    per_pass = [spans.layer_metrics(*m) for m in merged]
    metrics = {k: (statistics.fmean(m[k] for m in per_pass), spans.unit(k))
               for k in per_pass[0]}
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics["families.gen_s"] = (gen_s, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")

    out = os.path.join(ROOT, ".bench_work", f"spans-{name}-{seed}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump([pass_spans for pass_spans, _ in merged], fh)

    print(f"  traced wall_s {traced_wall:.4f} s, overhead "
          f"{traced_wall - wall_s:+.4f} s; spans in {os.path.relpath(out, ROOT)}")
    print("  self time by layer (share of traced wall_s):")
    for layer in spans.LAYERS:
        key = "runtime.gc_s" if layer == "runtime" else f"{layer}.self_s"
        value = metrics[key][0]
        print(f"    {key:<22} {value:10.4f} s  {100 * value / traced_wall:5.1f}%")
    for key in sorted(metrics):
        value, unit = metrics[key]
        print(f"  {key:<34} {value:.6g} {unit}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
