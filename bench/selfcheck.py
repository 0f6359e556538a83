#!/usr/bin/env python3
"""Check the benchmark's oracle against the program on tiny worlds.

    python3 bench/selfcheck.py [--seeds 1,2,3]

Runs every command once per seed on two tiny worlds (one exported with
targets and an `Index.pl` on disk, one without either) and requires that
each output agrees with the oracle.  It also requires that the worlds
exercise what the checks look at (vendored files, built-ins, unresolved
references, pruned directives), and that the export check rejects a
damaged export.  Exits 0 when all of that holds; takes seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import world as worlds  # noqa: E402
from world import Shape  # noqa: E402

TINY = {
    "targets": Shape(home_files=14, preds_per_file=3, clauses_per_pred=2,
                     requires_per_file=2, guarded_load_share=0.3,
                     shared_name_share=0.3, builtin_share=0.2, entries=3,
                     requires_per_entry=6, index_on_disk=True,
                     export_targets=True, mkindex_dir="SysLib"),
    "all-engines": Shape(home_files=14, preds_per_file=3, clauses_per_pred=2,
                         requires_per_file=1, guarded_load_share=0.3,
                         shared_name_share=0.3, builtin_share=0.2, entries=3,
                         requires_per_entry=6, index_on_disk=False,
                         export_targets=False, mkindex_dir="HomeLib"),
}


def check_world(label: str, seed: int, shape: Shape, workdir: Path) -> list[str]:
    bench = run.Bench(label, seed, shape, workdir)
    w = bench.world
    problems = []
    reach = w.closure(bench.engines)
    if not reach.home or not reach.unresolved:
        problems.append("world vendors nothing or leaves nothing unresolved")
    if not any(d.module == "built_in" for d in w.home_files):
        problems.append("world declares no built-ins")
    if shape.export_targets and not (
        all(len(d.pruned) > 1 for d in w.entries) and any(d.replaced for d in w.entries)
    ):
        problems.append("entries carry no if_pl to prune or replace")

    here = os.getcwd()
    os.chdir(workdir)
    try:
        for op in run.OPS:
            bench.run_op(op, bench.cli_main)
        # A damaged export must be caught: drop one vendored file.
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = bench.cli_main(bench.argv("export"))
        out = workdir / "out"
        victim = next(iter(sorted((out / "lib").rglob("*.pl"))), None)
        if code != 0 or victim is None:
            problems.append("export for the damage test did not vendor anything")
        else:
            victim.unlink()
            if not worlds.check_export(w, bench.engines, out, ""):
                problems.append("check_export accepted an export with a file missing")
        shutil.rmtree(out, ignore_errors=True)
    finally:
        os.chdir(here)
    return problems + bench.failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args()
    base = BENCH / "_work" / f"selfcheck-{os.getpid()}"
    failed = False
    try:
        for seed in (int(s) for s in args.seeds.split(",")):
            for label, shape in TINY.items():
                workdir = base / f"{label}-{seed}"
                workdir.mkdir(parents=True)
                problems = check_world(label, seed, shape, workdir)
                status = "ok" if not problems else "FAILED"
                print(f"seed {seed} {label}: {status}")
                for problem in problems:
                    print(f"  {problem}")
                failed |= bool(problems)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
