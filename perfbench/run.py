"""Benchmark of the maximin-bandits command line, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload coverage-mc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seconds 30        # every workload, traced and not

One process, one thread, closed loop: the workload's ops (``maximin-bandits``
subcommands, called in-process through ``maximin_bandits.cli.main``) run one
after another, and a pass over the op list repeats until ``--seconds`` is
used up.  Times are medians over passes.  ``--trace 1`` alternates untraced
and traced passes on the same inputs and reports the per-layer metrics of
``tracing.py`` plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the full report: every end-to-end metric with its unit and sample
count, each op's outcome, and the machine.
"""

from __future__ import annotations

import os

# One thread: set before numpy is imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MB_THREADS", None)

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Default-seed output digests; null marks an op that raised when recorded.
REFERENCES = HERE / "references.json"

#: Setup is measured this many times per run, in fresh processes.
SETUP_PROBES = 9
COMMANDS = ("gamma", "dec", "run", "sweep", "certify", "adaptivity")
#: End-to-end metrics printed on the result line (see BENCHMARK.json).
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


def _import_package():
    """Import the package from this checkout's ``src`` or exit with code 2."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import maximin_bandits
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import maximin_bandits from {SRC}: {exc}")
    if Path(maximin_bandits.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: maximin_bandits imported from {maximin_bandits.__file__}, not {SRC}")


def _median(values):
    return statistics.median(values) if values else 0.0


def _digest(op, stdout: str) -> str:
    if op.out is None:
        return hashlib.sha256(stdout.encode()).hexdigest()
    with open(op.out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    source = hashlib.sha256()
    for path in sorted((SRC / "maximin_bandits").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "MB_THREADS": os.environ.get("MB_THREADS"),
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


class Run:
    """One workload run: repeated passes over the op list, with checks."""

    def __init__(self, args, references: dict):
        from workloads import DEFAULT_SEED

        self.check_digests = args.seed == DEFAULT_SEED
        self.references = references.get(args.scale, {}).get(args.workload, {})
        self.attempted = 0
        self.failed = 0
        self.mismatch = False
        self.ops: dict = {}
        self.tagged = 0
        self.tagged_base = 0

    def run_pass(self, ops, tracer=None) -> dict:
        """Time every op of one pass; return the per-op outputs and times."""
        from maximin_bandits import cli

        results = []
        start = time.perf_counter()
        for op in ops:
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    if tracer is None:
                        code = cli.main(op.argv)
                    else:
                        with tracer.span("cli", label=op.command):
                            code = cli.main(op.argv)
                error = None if code == 0 else f"exit code {code}"
            except (Exception, SystemExit) as exc:
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.counts["cli.emit_bytes"] += len(buf.getvalue().encode())
            results.append((op, elapsed, buf.getvalue(), error))
        wall = time.perf_counter() - start
        return {"wall": wall, "results": results}

    def reference_problem(self, op, stdout: str, stats: dict) -> str | None:
        """Compare an op's output with its default-seed reference digest."""
        if op.name not in self.references:
            return "no reference digest recorded: re-record with --record-references"
        expected = self.references[op.name]
        if expected is None:
            note = "recorded as raising but now succeeds: re-record with --record-references"
            if note not in stats["notes"]:
                stats["notes"].append(note)
            return None
        try:
            digest = _digest(op, stdout)
        except OSError as exc:
            return f"output unreadable for its digest: {exc}"
        if digest != expected:
            return f"output digest differs from reference {expected}"
        return None

    def check_pass(self, record: dict, traced: bool = False) -> dict:
        """Check each op's output; fold outcomes into the run's counters.

        Returns the pass's per-command seconds, trials and queries.  Times of
        traced passes are kept out of the per-op medians."""
        by_command = dict.fromkeys(COMMANDS, 0.0)
        trials = queries = 0
        for op, elapsed, stdout, error in record["results"]:
            stats = self.ops.setdefault(op.name, {
                "command": op.command, "attempted": 0, "failed": 0, "seconds": [],
                "errors": [], "notes": [],
            })
            stats["attempted"] += 1
            if not traced:
                stats["seconds"].append(elapsed)
            self.attempted += 1
            by_command[op.command] += elapsed
            problems = []
            if error is None:
                try:
                    outcome = op.check(stdout)
                except Exception as exc:
                    problems.append(f"output check raised {type(exc).__name__}: {exc}")
                else:
                    problems += outcome.problems
                    trials += outcome.trials
                    queries += outcome.queries
                    self.tagged += outcome.tagged
                    self.tagged_base += outcome.tagged_base
                if self.check_digests:
                    problem = self.reference_problem(op, stdout, stats)
                    if problem:
                        problems.append(problem)
            if problems:
                self.mismatch = True
            if error is not None or problems:
                self.failed += 1
                stats["failed"] += 1
                for message in [error] if error else problems:
                    if message not in stats["errors"]:
                        stats["errors"].append(message)
        mc_s = by_command["run"] + by_command["sweep"]
        return {
            "wall_s": record["wall"],
            **{f"{cmd}_s": by_command[cmd] for cmd in COMMANDS},
            "trials_per_s": trials / mc_s if mc_s else 0.0,
            "queries_per_s": queries / mc_s if mc_s else 0.0,
        }

    def result_line(self, metrics: dict) -> dict:
        return {"correct": not self.mismatch, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def end_to_end(passes: list, commands: set, run: Run, setup: list) -> dict:
    """Every end-to-end metric that applies to the workload, as medians."""
    n = len(passes)
    out = {"wall_s": {"value": _median([p["wall_s"] for p in passes]), "unit": "s", "n": n}}
    for cmd in COMMANDS:
        if cmd in commands:
            out[f"{cmd}_s"] = {"value": _median([p[f"{cmd}_s"] for p in passes]),
                               "unit": "s", "n": n}
    if commands & {"run", "sweep"}:
        for key, unit in (("trials_per_s", "1/s"), ("queries_per_s", "1/s")):
            out[key] = {"value": _median([p[key] for p in passes]), "unit": unit, "n": n}
    out["failed_ratio"] = {"value": run.failed / run.attempted, "unit": "ratio",
                           "n": run.attempted}
    if run.tagged_base:
        out["trial_error_ratio"] = {"value": run.tagged / run.tagged_base, "unit": "ratio",
                                    "n": run.tagged_base}
    out["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                          "unit": "MB", "n": 1}
    out["setup_s"] = {"value": _median(setup), "unit": "s", "n": len(setup)}
    return out


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its first op being ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit code {code})")
    return ready


def measure(args) -> int:
    from workloads import WORKLOADS

    run = Run(args, json.loads(REFERENCES.read_text()))
    (HERE / "work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "work")
    try:
        ops = WORKLOADS[args.workload](args.seed, args.scale == "tiny", workdir)
        commands = {op.command for op in ops}
        setup = [probe_setup(args) for _ in range(SETUP_PROBES)]

        tracer_mod = None
        if args.trace:
            import tracing as tracer_mod
        plain, traced, layers, overhead, by_command = [], [], [], [], []
        tracer = None
        started = time.perf_counter()
        step_times = []
        while True:
            step_start = time.perf_counter()
            gc.collect()
            record = run.run_pass(ops)
            plain.append(run.check_pass(record))
            if tracer_mod is not None:
                tracer = tracer_mod.Tracer()
                gc.collect()
                with tracer_mod.traced(tracer):
                    traced_record = run.run_pass(ops, tracer)
                traced.append(run.check_pass(traced_record, traced=True))
                summary = tracer.summary()
                layers.append(tracer.metrics(summary))
                overhead.append(traced_record["wall"] - record["wall"])
                by_command.append(summary[2])
            step_times.append(time.perf_counter() - step_start)
            if time.perf_counter() - started + _median(step_times) > args.seconds:
                break

        report = {
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "trace": args.trace, "seconds": args.seconds, "passes": len(plain),
            "wall_s_by_pass": [p["wall_s"] for p in plain],
            "end_to_end": end_to_end(plain, commands, run, setup),
            "ops": {name: {"command": s["command"], "attempted": s["attempted"],
                           "failed": s["failed"], "median_s": _median(s["seconds"]),
                           "errors": s["errors"], "notes": s["notes"]}
                    for name, s in run.ops.items()},
            "machine": machine(),
        }
        if tracer_mod is None:
            metrics = {key: {"value": report["end_to_end"][key]["value"],
                             "unit": report["end_to_end"][key]["unit"]} for key in END_TO_END}
        else:
            units = {name: unit for name, unit, _ in tracer_mod.PER_LAYER}
            metrics = {}
            for name in layers[0]:
                # counts stay whole numbers: the lower median of per-pass counts
                median = _median if units[name] == "s" else statistics.median_low
                metrics[name] = {"value": median([values[name] for values in layers]),
                                 "unit": units[name]}
            metrics["trace.overhead_s"] = {"value": _median(overhead), "unit": "s"}
            report["per_layer"] = metrics
            report["traced"] = {
                **{key: _median([p[key] for p in traced]) for key in ("wall_s", "run_s", "sweep_s")},
                "self_s_by_command": {
                    cmd: {name: _median([d.get(cmd, {}).get(name, 0.0) for d in by_command])
                          for name in sorted({n for d in by_command for n in d.get(cmd, {})})}
                    for cmd in sorted(commands)
                },
            }
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(str(out_dir / f"spans-{args.workload}-{args.scale}.csv"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(run.result_line(metrics), sort_keys=True))
    return 0


def setup_probe(args) -> int:
    """Body of a setup probe: what a run does before its first timed op."""
    from maximin_bandits import cli  # noqa: F401  (the import is what is timed)
    from workloads import WORKLOADS

    (HERE / "work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=HERE / "work")
    try:
        WORKLOADS[args.workload](args.seed, args.scale == "tiny", workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def record_references(args) -> int:
    """Write the default-seed output digests of every workload and scale.

    An op that raises is recorded as null: expected to raise."""
    from workloads import DEFAULT_SEED, SCALES, WORKLOADS

    refs: dict = {"seed": DEFAULT_SEED}
    (HERE / "work").mkdir(exist_ok=True)
    for scale in SCALES:
        for name, build in WORKLOADS.items():
            workdir = tempfile.mkdtemp(prefix="refs-", dir=HERE / "work")
            try:
                ns = argparse.Namespace(workload=name, seed=DEFAULT_SEED, scale=scale)
                run = Run(ns, {})
                ops = build(DEFAULT_SEED, scale == "tiny", workdir)
                digests = {}
                for op, _, stdout, error in run.run_pass(ops)["results"]:
                    digests[op.name] = None if error else _digest(op, stdout)
                    print(f"{scale} {name} {op.name}: {error or digests[op.name]}", file=sys.stderr)
                refs.setdefault(scale, {})[name] = digests
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def run_all(args) -> int:
    """Every workload, untraced and traced, in fresh processes; one report."""
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = report[name] = {"why": workload["why"]}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
                   "--scale", args.scale]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
            lines = proc.stdout.strip().splitlines()
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            if trace:
                entry["per_layer"] = detail["per_layer"]
                entry["traced"] = detail["traced"]
            else:
                entry["end_to_end"] = detail["end_to_end"]
                entry["ops"] = detail["ops"]
                entry["machine"] = detail["machine"]
            entry[f"result_trace{trace}"] = result
        entry["claims"] = claims(name, entry)

    moves = {metric: text for metric, _, text in tracing.PER_LAYER}
    for name, entry in report.items():
        print(f"== {name}: {entry['why']}")
        for key, m in entry["end_to_end"].items():
            print(f"  {key:<34} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")
        for op, s in entry["ops"].items():
            if s["failed"]:
                print(f"  failed op {op}: {s['failed']}/{s['attempted']}: {s['errors'][0]}")
        for key, m in entry["per_layer"].items():
            print(f"  {key:<34} {m['value']:>14.6g} {m['unit']:<6} moves {moves[key]}")
        for claim, value in entry["claims"].items():
            print(f"  claim {claim}: {value}")
    print(json.dumps(report, sort_keys=True))
    return 0


def claims(name: str, entry: dict) -> dict:
    """The traced shares each workload was chosen for."""
    traced = entry["traced"]
    by_cmd = traced["self_s_by_command"]
    if name == "gamma-lp":
        solve = entry["per_layer"]["games.solve.s"]["value"]
        return {"games.solve share of traced wall_s": solve / traced["wall_s"]}
    if name == "coverage-mc":
        run_self = by_cmd.get("run", {})
        run_s = traced["run_s"]
        sampling = run_self.get("core.sample_rewards", 0.0) + run_self.get("core.transcript", 0.0)
        others = {k: v for k, v in run_self.items()
                  if k not in ("core.sample_rewards", "core.transcript")}
        largest = max(others, key=others.get) if others else None
        return {
            "games.solve share of traced run_s": run_self.get("games.solve", 0.0) / run_s,
            "sample_rewards+transcript share of traced run_s": sampling / run_s,
            "largest other layer in run": f"{largest} {others.get(largest, 0.0) / run_s:.3f}",
        }
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at toy sizes (self-test)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true",
                      help="run every workload untraced and traced; print one report")
    mode.add_argument("--record-references", action="store_true",
                      help="rewrite the default-seed digests from the current code")
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    if args.all:
        return run_all(args)
    if args.record_references:
        return record_references(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        return setup_probe(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
