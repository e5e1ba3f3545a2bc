"""One benchmark run of one workload, in a fresh interpreter.

Generates the workload's inputs from the seed, then repeats whole rounds of
the workload's fixed operation list until the run length has passed. An
operation is one ``spdsheaf.cli.main`` invocation plus the independent checks
of its outputs. Only the invocations are timed; the checks run outside the
timed interval. Before each untraced round, a few fresh interpreters time
``import spdsheaf``; spreading these set-up samples over the run, like the
rounds, keeps a passing slow spell of a shared machine from setting the
median. Prints one JSON line: the medians of the end-to-end metrics, or with
``--trace 1`` the per-round medians of the per-layer metrics.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from spdsheaf import cli  # noqa: E402
from tracing import Tracer, metric_units  # noqa: E402

# Workload sizes. On a 2-core machine a round of diffuse, sections or verify
# takes 5-10 s, so a 20-s run holds several rounds and reports their median;
# a probe round takes about 20 s.
PROBE_SAMPLES = 40      # clouds per class; the readout is tested on half of them
PROBE_REPEATS = 2       # 80 test clouds in all keep the control check steady
DIFFUSE_POINTS = 60
DIFFUSE_LAYERS = 16
SECTIONS_FILES = 2
SETUP_PER_ROUND = 3

# prints the monotonic clock, which Linux shares across processes, once the
# import is done
_IMPORT_PROBE = "import time, spdsheaf; print(time.monotonic())"


class Op(NamedTuple):
    argv: list
    outputs: tuple          # paths removed before each invocation
    check: Callable[[int], list]


def _load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def probe_ops(seed: int, work: Path) -> list[Op]:
    out = work / "probe.json"
    argv = ["probe", "--seed", str(seed), "--samples", str(PROBE_SAMPLES),
            "--repeats", str(PROBE_REPEATS), "--out", str(out)]
    return [Op(argv, (out,), lambda code: checks.check_probe(_load(out)))]


def diffuse_ops(seed: int, work: Path) -> list[Op]:
    cloud = inputs.knn_cloud(seed, DIFFUSE_POINTS)
    path = work / "cloud.json"
    path.write_text(cloud["json"], encoding="utf-8")
    ops = []
    for name, flags in (("deep", []), ("control", ["--identity-maps", "--no-residual"])):
        out = work / name
        argv = ["diffuse", str(path), "--layers", str(DIFFUSE_LAYERS), "--seed", str(seed),
                "--out", str(out), *flags]

        def check(code, out=out):
            return checks.check_diffuse((out / "trace.csv").read_text(encoding="utf-8"),
                                        _load(out / "final_cochain.json"),
                                        cloud["points"], DIFFUSE_LAYERS)

        ops.append(Op(argv, (out,), check))
    return ops


def sections_ops(seed: int, work: Path) -> list[Op]:
    ops = []
    for i in range(SECTIONS_FILES):
        inst = inputs.sheaf_instance((seed, i))
        path, out = work / f"sheaf{i}.json", work / f"sections{i}.json"
        path.write_text(inst["json"], encoding="utf-8")
        ops.append(Op(["sections", str(path), "--out", str(out)], (out,),
                      lambda code, out=out, inst=inst: checks.check_sections(_load(out), inst)))
    return ops


def verify_ops(seed: int, work: Path) -> list[Op]:
    # The suite runs at its default seed whatever the workload seed: at other
    # seeds the hodge oracle can fail on a correct sheaf (see CHANGES.md), and
    # an operation that fails on some seeds only cannot be benchmarked.
    out = work / "verify"
    argv = ["verify", "--all", "--out", str(out)]
    return [Op(argv, (out,), lambda code: checks.check_verify(code, _load(out / "verdicts.json")))]


WORKLOADS = {"probe": probe_ops, "diffuse": diffuse_ops, "sections": sections_ops,
             "verify": verify_ops}


def _remove(path: Path):
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def invoke(op: Op) -> int:
    """Run one CLI invocation with its console output discarded."""
    for path in op.outputs:
        _remove(path)
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(op.argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            return -1


def setup_seconds() -> float:
    """Time from launching a fresh interpreter to ``import spdsheaf`` done."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.split()[-1]) - start


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_out" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ops = WORKLOADS[workload](seed, work)
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()
        else:
            setup_seconds()  # untimed: compiles the bytecode cache of a fresh checkout
        rounds, walls, setup, problems, first_spans = [], [], [], [], None
        attempted = failed = 0
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            if tracer:
                tracer.reset()
            else:
                setup += [setup_seconds() for _ in range(SETUP_PER_ROUND)]
            wall = cpu = 0.0
            for op in ops:
                attempted += 1
                w0, c0 = time.perf_counter(), time.process_time()
                code = invoke(op)
                wall += time.perf_counter() - w0
                cpu += time.process_time() - c0
                if code != 0:
                    failed += 1
                    print(f"{' '.join(op.argv)}: exit code {code}", file=sys.stderr)
                    continue
                problems += [f"{op.argv[0]}: {p}" for p in op.check(code)]
            walls.append(wall)
            if tracer:
                rounds.append(tracer.metrics())
                first_spans = first_spans if first_spans is not None else tracer.spans
            else:
                rounds.append({"wall_s": wall, "cpu_s": cpu})
        if tracer:
            tracer.uninstall()
            tracer.write_spans(str(ROOT / ".bench_out" / f"spans-{workload}.jsonl"), first_spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    # the round wall time of traced against untraced runs is the tracing overhead
    print(f"{workload}: {len(walls)} rounds, median round wall {statistics.median(walls):.3f} s",
          file=sys.stderr)
    units = metric_units() if trace else {"wall_s": "s", "cpu_s": "s"}
    # median_low keeps counts whole; every round repeats the same counts
    metrics = {name: {"value": (statistics.median if unit == "s" else statistics.median_low)(
                   [r[name] for r in rounds]), "unit": unit}
               for name, unit in units.items()}
    if not trace:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
