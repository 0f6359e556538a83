#!/usr/bin/env python3
"""ExLibris command benchmark on seeded synthetic worlds.

    python3 bench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Run from the repository root.  The world for the workload is built from
the seed under `bench/_work/`, outside the timed region.  The real commands
then run in-process through `exlibris.cli.main`, one process and one
thread, in cycles until `--seconds` is spent: library set-up, `mkindex`,
`export` into a fresh destination, `graph` and `trace`.  Every output is
checked against the world's oracle, and a command whose standard output
differs from its first run counts as failed.  The last line of standard
output is one JSON object.

With `--trace 0` the metrics are the per-cycle medians of each command's
wall time, the set-up time and the peak resident memory.  With `--trace 1`
untraced and traced cycles alternate; the metrics are per-layer figures
from the traced cycles plus the tracing overhead, and the spans and a
summary are written under `bench/_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import world as worlds  # noqa: E402
from world import Shape  # noqa: E402

SHAPES = {
    # The closure reaches nearly the whole library and resolves thousands of
    # (functor, engine) pairs: resolve lookup, closure walk, re-parsing and
    # the write side of export.
    "dense": Shape(home_files=150, preds_per_file=4, clauses_per_pred=2,
                   requires_per_file=3, guarded_load_share=0.2,
                   shared_name_share=0.2, builtin_share=0.05, entries=25,
                   requires_per_entry=20, index_on_disk=True,
                   export_targets=True, mkindex_dir="SysLib"),
    # A large index and a small closure: costs that grow with index size,
    # Index.pl loading and the memory of per-library lookup structures.
    "sparse": Shape(home_files=1200, preds_per_file=4, clauses_per_pred=1,
                    requires_per_file=0, guarded_load_share=0.0,
                    shared_name_share=0.0, builtin_share=0.01, entries=5,
                    requires_per_entry=10, index_on_disk=True,
                    export_targets=True, mkindex_dir="SysLib"),
    # No Index.pl: on-the-fly indexing and mkindex, so parsing dominates
    # and resolve lookup barely shows.
    "cold": Shape(home_files=200, preds_per_file=4, clauses_per_pred=5,
                  requires_per_file=0, guarded_load_share=0.0,
                  shared_name_share=0.0, builtin_share=0.0, entries=5,
                  requires_per_entry=5, index_on_disk=False,
                  export_targets=False, mkindex_dir="HomeLib"),
}
OPS = ("setup", "mkindex", "export", "graph", "trace")
LIBS = ["--syslib", "SysLib", "--homelib", "HomeLib"]


class Bench:
    """One workload's world and the commands run against it."""

    def __init__(self, name: str, seed: int, shape: Shape, workdir: Path):
        self.name = name
        self.seed = seed
        self.shape = shape
        self.world = worlds.generate(shape, seed)
        self.workdir = workdir
        self.world.materialize(workdir)
        self.engines = worlds.TARGETS if shape.export_targets else None
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []
        self.failed_ops: set[int] = set()
        self.attempted = 0
        self.next_op = 0

        from exlibris import cli
        from exlibris.directives import FunctorRef
        from exlibris.engines import PlId
        from exlibris.resolve import LibrarySet, resolve_functor

        self.cli_main = cli.main
        self.LibrarySet = LibrarySet
        self.resolve_functor = resolve_functor
        self.FunctorRef = FunctorRef
        self.PlId = PlId

    def argv(self, op: str) -> list[str]:
        if op == "mkindex":
            return ["mkindex", self.shape.mkindex_dir]
        if op == "export":
            pls = [a for flag in worlds.TARGET_FLAGS for a in ("--pl", flag)]
            return ["export", "--dest", "out", "--source", "proj", *LIBS,
                    *(pls if self.shape.export_targets else [])]
        if op == "graph":
            return ["graph", "--source", "proj", *LIBS]
        entry = f"proj/{self.world.entries[0].rel}"
        return ["trace", entry, "--pl", worlds.TRACE_FLAG, *LIBS]

    def setup(self):
        return self.LibrarySet.build(["SysLib"], ["HomeLib"], None, (".pl",))

    def run_op(self, op: str, main, tracer=None) -> tuple[float, str]:
        """Run, time and check one command; returns (seconds, stdout)."""
        self.attempted += 1
        op_id = self.next_op
        self.next_op += 1
        out, err = io.StringIO(), io.StringIO()
        problems: list[str] = []
        code = 0
        result = None
        gc.collect()
        if tracer is not None:
            tracer.op, tracer.enabled = op_id, True
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if op == "setup":
                    result = self.setup()
                else:
                    code = main(self.argv(op))
        except Exception as exc:  # every failure is counted, none is fatal
            problems.append(f"{type(exc).__name__}: {exc}")
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
        stdout, stderr = out.getvalue(), err.getvalue()
        if not problems and code != 0:
            problems.append(f"exit {code}: {stderr.strip()[:300]}")
        if not problems:
            try:
                problems = self.check(op, result, stdout, stderr)
            except Exception as exc:  # e.g. an expected file was not written
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        if self.digests.setdefault(op, digest) != digest:
            problems.append("standard output differs from this invocation's first run")
        self.cleanup(op)
        for problem in problems:
            self.failures.append(f"{op}: {problem}")
        if problems:
            self.failed_ops.add(op_id)
        return elapsed, stdout

    def check(self, op: str, result, stdout: str, stderr: str) -> list[str]:
        w = self.world
        if op == "setup":
            got = [len(lib.index.entries) for lib in result.ordered()]
            want = [len(w.index_rows("SysLib")), len(w.index_rows("HomeLib"))]
            return [] if got == want else [f"index entries {got}, oracle expects {want}"]
        if op == "mkindex":
            path = self.workdir / self.shape.mkindex_dir / worlds.INDEX_NAME
            with open(path, encoding="utf-8", newline="") as handle:
                text = handle.read()
            if text != w.index_text(self.shape.mkindex_dir):
                return [f"{path.name} differs from the oracle's index"]
            return []
        if op == "export":
            return worlds.check_export(w, self.engines, self.workdir / "out", stderr)
        if op == "graph":
            return worlds.check_graph(w, stdout)
        return worlds.check_trace(w, stdout)

    def cleanup(self, op: str) -> None:
        """Give the next operation the same input as this one had."""
        if op == "export":
            shutil.rmtree(self.workdir / "out", ignore_errors=True)
        elif op == "mkindex":
            with contextlib.suppress(FileNotFoundError):
                (self.workdir / self.shape.mkindex_dir / worlds.INDEX_NAME).unlink()

    def probe(self) -> tuple[int, float]:
        """Time the public resolve_functor on every distinct (functor, target)."""
        libs = self.setup()
        names = sorted({n for d in self.world.entries + self.world.home_files
                        for n in d.requires})
        pairs = [(self.FunctorRef(n, 2), self.PlId(e, v))
                 for n in names for e, v in worlds.TARGETS]
        gc.collect()
        start = time.perf_counter()
        for functor, engine in pairs:
            self.resolve_functor(functor, engine, libs)
        return len(pairs), time.perf_counter() - start


def reference_scale() -> float:
    """Factor that turns this cycle's wall times into reference-speed seconds."""
    gc.collect()
    return calibrate.REFERENCE_S / calibrate.time_reference()


def measure(bench: Bench, seconds: float) -> dict:
    scaled: dict[str, list[float]] = {op: [] for op in OPS}
    wall: dict[str, list[float]] = {op: [] for op in OPS}
    deadline = time.perf_counter() + seconds
    while True:
        scale = reference_scale()
        for op in OPS:
            elapsed, _ = bench.run_op(op, bench.cli_main)
            wall[op].append(elapsed)
            scaled[op].append(elapsed * scale)
        if time.perf_counter() >= deadline:
            break
    print(f"bench: {len(wall['setup'])} cycles; wall-clock medians: "
          + ", ".join(f"{op} {statistics.median(v):.4f} s" for op, v in wall.items()),
          file=sys.stderr)
    metrics = {f"{op}_s": (statistics.median(scaled[op]), "s") for op in OPS}
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    return metrics


def measure_traced(bench: Bench, seconds: float, out_dir: Path) -> dict:
    import tracing

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced_main = tracer.wrap("cli.main", bench.cli_main)
        plain, traced, cycles, probes = [], [], [], []
        wall: dict[str, list[float]] = {op: [] for op in OPS}
        scaled: dict[str, list[float]] = {op: [] for op in OPS}
        deadline = time.perf_counter() + seconds
        while True:
            total = 0.0
            scale = reference_scale()
            for op in OPS:
                elapsed, _ = bench.run_op(op, bench.cli_main)
                wall[op].append(elapsed)
                scaled[op].append(elapsed * scale)
                total += elapsed
            plain.append(total)
            total, ops, exports = 0.0, [], {}
            for op in OPS:
                ops.append(bench.next_op)
                elapsed, stdout = bench.run_op(op, traced_main, tracer)
                if op == "export":
                    exports[ops[-1]] = stdout
                total += elapsed
            traced.append(total)
            cycles.append(tracing.layer_metrics(tracer, ops, exports))
            probes.append(bench.probe())
            if time.perf_counter() >= deadline:
                break
    finally:
        uninstall()

    # median_low keeps a count an observed whole number.
    metrics = {}
    for name, (_, unit) in cycles[0].items():
        metrics[name] = (statistics.median_low(c[name][0] for c in cycles), unit)
    lookups = probes[0][0]
    metrics["resolve.lookups"] = (lookups, "count")
    metrics["resolve.lookup_us"] = (
        statistics.median(t / n * 1e6 for n, t in probes), "us")
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead"] = (overhead, "ratio")

    varying = sorted(
        name for name, (_, unit) in cycles[0].items()
        if unit == "count" and len({c[name][0] for c in cycles}) > 1
    )
    summary = {
        "workload": bench.name,
        "seed": bench.seed,
        "cycles": len(cycles),
        "end_to_end_untraced": {
            f"{op}_s": statistics.median(v) for op, v in scaled.items()
        },
        "end_to_end_untraced_wall_clock": {
            f"{op}_s": statistics.median(v) for op, v in wall.items()
        },
        "traced_cycle_s": statistics.median(traced),
        "untraced_cycle_s": statistics.median(plain),
        "tracing_overhead": overhead,
        "per_layer": {k: v[0] for k, v in metrics.items()},
        "counts_varying_between_cycles": varying,
        "failures": bench.failures,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{bench.name}-seed{bench.seed}"
    (out_dir / f"trace-{stem}.json").write_text(json.dumps(summary, indent=2) + "\n")
    tracer.write(out_dir / f"spans-{stem}.jsonl.gz")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "exlibris" / "cli.py").is_file():
        print(f"bench: no exlibris sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import exlibris

    if Path(exlibris.__file__).resolve().parent != (src / "exlibris").resolve():
        print(f"bench: imported exlibris from {exlibris.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    here = os.getcwd()
    try:
        bench = Bench(args.workload, args.seed, SHAPES[args.workload], workdir)
        os.chdir(workdir)
        try:
            if args.trace:
                metrics = measure_traced(bench, args.seconds, BENCH / "_out")
            else:
                metrics = measure(bench, args.seconds)
        finally:
            os.chdir(here)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in bench.failures[:20]:
        print(f"bench: failed {failure}", file=sys.stderr)
    failed = len(bench.failed_ops)
    if failed:
        print(f"bench: {failed} of {bench.attempted} operations failed "
              f"(fail_ratio {failed / bench.attempted:.4f})", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
