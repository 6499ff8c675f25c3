"""chainga benchmark: end-to-end and per-layer timings of the real CLI.

    python3 perfbench/run.py --workload {kdd41,synth80,wide} --seed N \\
        --seconds T --trace {0,1}

Generates the workload's inputs from the seed (untimed; see workloads.py),
then runs ``chainga.cli.main`` in a fresh child process per repetition, one
at a time, with chainga ``threads=1`` and BLAS pinned to one thread, for
as many repetitions as fit in T seconds, but at least ``MIN_REPS``
(trace 0) or one untraced/traced pair (trace 1). Metric values are medians
over repetitions.

With ``--trace 0`` it reports the ``end_to_end`` metrics of BENCHMARK.json:
``wall_s`` (``cli.main`` entry to return), ``setup_s`` (``build_dataset`` +
``obtain_omega``), ``search_s`` (all GA runs, final test scoring included)
and ``peak_rss_mb``. With ``--trace 1`` it alternates untraced and traced
repetitions and reports the ``per_layer`` metrics (see tracer.py), including
``trace.overhead_s``, the traced minus the untraced median ``wall_s``.

Correctness: every repetition's result tables must hash to the digests in
expected.json at ``workloads.DEFAULT_SEED``, and be identical across
repetitions (traced ones included) at any other seed. One op is one GA run;
all ops of a repetition that exits non-zero, raises, or writes differing
tables count as failed. The last stdout line is the JSON result; the exit
code is 0 only when every op passed.

``--tiny`` shrinks every workload for the self-test, ``--perturb`` adds a
repetition whose first table is corrupted (the self-test checks that the gate trips),
and ``--record`` rewrites expected.json from one repetition per workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = BENCH / "expected.json"

MIN_REPS = 3
CHILD_TIMEOUT_S = 60
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TABLES = {
    "run": ("per_seed.csv", "aggregate.csv", "trace.csv"),
    "ablation": ("ablation.csv", "ablation_per_seed.csv"),
}
LAYER_ORDER = ("data", "infotheory", "criterion", "classifier", "evolution", "harness")


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def run_rep(rep_dir: Path, argv: list[str], command: str, trace: bool, perturb: bool = False) -> dict:
    """One repetition in a child process; returns its measurements."""
    rep_dir.mkdir(parents=True)
    out = rep_dir / "out"
    request = {"src": str(SRC), "argv": [*argv, "--out", str(out)], "trace": trace,
               "result": str(rep_dir / "result.json"), "spans": str(rep_dir / "spans.json")}
    rep = {"trace": trace, "exit": None, "rc": None, "error": None}
    with open(rep_dir / "child.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), json.dumps(request)],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                env={**os.environ, **CHILD_ENV},
            )
        except subprocess.TimeoutExpired:
            rep["error"] = f"timed out after {CHILD_TIMEOUT_S} s"
            return rep
    rep["exit"] = proc.returncode
    try:
        rep.update(json.loads((rep_dir / "result.json").read_text(encoding="utf-8")))
        spans = json.loads((rep_dir / "spans.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        rep["error"] = rep["error"] or f"no result from the child: {exc}"
        return rep
    if perturb and (out / TABLES[command][0]).is_file():
        with open(out / TABLES[command][0], "ab") as fh:
            fh.write(b"perturbed\n")
    rep["digests"] = {name: sha256(out / name) for name in TABLES[command]}
    by_name, by_layer = tracer.totals(spans)
    rep["setup_s"] = by_name["harness.build_dataset"]["s"] + by_name["harness.obtain_omega"]["s"]
    rep["search_s"] = by_name["evolution.run"]["s"]
    rep["ga_runs"] = by_name["evolution.run"]["calls"]
    if trace:
        rep["layers"] = layer_metrics(spans, by_name, by_layer, rep["wall_s"])
    return rep


def layer_metrics(spans: dict, by_name: dict, by_layer: dict, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    m: dict[str, float] = {}
    for layer in LAYER_ORDER:
        for key in ("s", "self_s", "calls"):
            m[f"{layer}.{key}"] = by_layer.get(layer, {}).get(key, 0)
    for name, entry in by_name.items():
        for key in ("s", "self_s", "calls"):
            m[f"{name}.{key}"] = entry[key]
    evals = tracer.knn_runs_in_search(spans)
    lookups = m["classifier.evaluate.calls"]
    m.update({
        "classifier.knn_select.s": m["classifier.knn_predict.s"] - m["classifier.cdist.s"],
        "classifier.evals": evals,
        "classifier.cache_hit_ratio": (lookups - evals) / lookups if lookups else 0.0,
        "criterion.sweep_crossover.us_per_call":
            1e6 * m["criterion.sweep_crossover.s"] / max(m["criterion.sweep_crossover.calls"], 1),
        "infotheory.pairs": spans["counts"].get("infotheory.pairs", 0),
        "harness.bytes_written": spans["counts"].get("harness.bytes_written", 0),
        "trace.wall_s": wall_s,
        "trace.spans": len(spans["spans"]),
        "trace.unattributed_s": wall_s - sum(m[f"{layer}.self_s"] for layer in LAYER_ORDER),
    })
    return m


def passed(rep: dict, reference: dict | None, ga_runs: int) -> bool:
    return (rep["exit"] == 0 and rep["rc"] == 0 and rep.get("ga_runs") == ga_runs
            and reference is not None and rep.get("digests") == reference)


def git_rev() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "chainga_threads": 1,
        "workload": workload,
        "seed": seed,
    }


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def report_layers(m: dict[str, float]) -> None:
    wall = m["trace.wall_s"]
    print(f"{'layer':<12}{'busy s':>10}{'self s':>10}{'calls':>10}{'self %':>8}")
    for layer in LAYER_ORDER:
        print(f"{layer:<12}{m[layer + '.s']:>10.4f}{m[layer + '.self_s']:>10.4f}"
              f"{m[layer + '.calls']:>10.0f}{100 * m[layer + '.self_s'] / wall:>8.1f}")
    print(f"{'unattributed':<12}{'':>10}{m['trace.unattributed_s']:>10.4f}{'':>10}"
          f"{100 * m['trace.unattributed_s'] / wall:>8.1f}")
    print(f"traced wall_s {wall:.4f}, tracing overhead {m['trace.overhead_s']:+.4f} s")
    print(f"cache hit ratio {m['classifier.cache_hit_ratio']:.4f} = "
          f"(lookups {m['classifier.evaluate.calls']:.0f} - KNN runs {m['classifier.evals']:.0f})"
          f" / lookups {m['classifier.evaluate.calls']:.0f}")
    spans = sorted({k.rsplit(".", 1)[0] for k in m if k.endswith(".calls") and k.count(".") == 2})
    for name in spans:
        if m[name + ".calls"]:
            print(f"  {name:<32}{m[name + '.s']:>10.4f}{m[name + '.self_s']:>10.4f}"
                  f"{m[name + '.calls']:>10.0f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--perturb", action="store_true", help="add a repetition with a corrupted table")
    parser.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)
    if not (SRC / "chainga" / "cli.py").is_file():
        print(f"chainga sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = WORK / (args.workload + ("-tiny" if args.tiny else ""))
    shutil.rmtree(work, ignore_errors=True)
    chainga_argv, ga_runs = workloads.generate(args.workload, args.seed, work / "inputs", args.tiny)
    command = chainga_argv[0]
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        key = args.workload + ("-tiny" if args.tiny else "")
        reference = json.loads(EXPECTED.read_text(encoding="utf-8"))[key]

    reps: list[dict] = []
    rounds, start = 0, perf_counter()
    while True:  # stop at a crash, or before a round that would end past the budget
        for trace in ((False, True) if args.trace else (False,)):
            reps.append(run_rep(work / f"rep{len(reps)}", chainga_argv, command, trace))
        rounds += 1
        elapsed = perf_counter() - start
        if any(r["exit"] != 0 for r in reps) or (
                rounds >= (1 if args.trace else MIN_REPS) and elapsed * (rounds + 1) / rounds > args.seconds):
            break
    if args.perturb:
        reps.append(run_rep(work / f"rep{len(reps)}", chainga_argv, command, False, perturb=True))

    if reference is None:  # any seed but the default: repetitions must agree
        reference = next((r["digests"] for r in reps if r.get("digests") and r["exit"] == 0), None)
    ok = [passed(r, reference, ga_runs) for r in reps]
    attempted, failed = ga_runs * len(reps), ga_runs * ok.count(False)
    untraced = [r for r, good in zip(reps, ok) if good and not r["trace"]]
    traced = [r for r, good in zip(reps, ok) if good and r["trace"]]

    metrics = {}
    if args.trace and untraced and traced:
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
        report_layers(layers)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    elif not args.trace and untraced:
        values = {k: median_of(untraced, k) for k in ("wall_s", "setup_s", "search_s", "peak_rss_mb")}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    for i, (rep, good) in enumerate(zip(reps, ok)):
        line = (f"rep {i} {'traced' if rep['trace'] else 'untraced'} "
                f"{'ok' if good else 'FAILED'}: wall_s={rep.get('wall_s', float('nan')):.4f} "
                f"setup_s={rep.get('setup_s', float('nan')):.4f} "
                f"search_s={rep.get('search_s', float('nan')):.4f} "
                f"peak_rss_mb={rep.get('peak_rss_mb', float('nan')):.1f}")
        print(line + (f" ({rep['error'].strip().splitlines()[-1]})" if rep["error"] else ""))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {failed}/{attempted} GA runs = {failed / attempted:.4f}")
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env))

    correct = failed == 0 and bool(metrics)
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps({
        **summary, "env": env, "reps": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
    }, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0 if correct else 1


def record() -> int:
    """Write the default-seed table digests of every workload, full and tiny."""
    expected = {}
    for tiny in (False, True):
        for name in workloads.NAMES:
            key = name + ("-tiny" if tiny else "")
            work = WORK / f"record-{key}"
            shutil.rmtree(work, ignore_errors=True)
            argv, ga_runs = workloads.generate(name, workloads.DEFAULT_SEED, work / "inputs", tiny)
            rep = run_rep(work / "rep0", argv, argv[0], trace=False)
            if rep["exit"] != 0 or rep.get("ga_runs") != ga_runs:
                print(f"{key}: repetition failed: {rep['error']}", file=sys.stderr)
                return 1
            expected[key] = rep["digests"]
            print(f"{key}: {rep['wall_s']:.3f} s")
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
