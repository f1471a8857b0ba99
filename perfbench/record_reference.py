"""Record the per-seed held-out accuracies the mnist-shape check compares to.

Usage, from the repository root:

    python3 perfbench/record_reference.py --seeds 0 100

runs the mnist-shape sweep once per seed in [first, last) and merges each
run's held-out accuracy into perfbench/reference.json. Run it only at a commit whose
results are trusted; the benchmark compares later commits to these values.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
from pathlib import Path

import workloads as wl

OUT_ROOT = Path(".perfbench-out") / "reference-sweep"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    args = parser.parse_args()
    workload = wl.WORKLOADS["mnist-shape"]
    out_dir = OUT_ROOT / workload.name
    pkg = wl.import_package(Path.cwd())
    table = wl.load_reference().get(workload.name, {})
    for seed in range(*args.seeds):
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = pkg.cli.main(workload.sweep_argv(out_dir, seed))
        runs = wl.load_summaries(out_dir, workload.run_ids)
        # Every check must hold, compared against the values being recorded.
        entry = {run_id: s["test_accuracy"] for run_id, s in runs.items()}
        errors = wl.check_outputs(workload, out_dir, seed, {workload.name: {str(seed): entry}})
        if code != 0 or errors:
            raise SystemExit(f"seed {seed}: sweep exited {code}; failed checks: {errors}")
        table[str(seed)] = entry
        print(seed, json.dumps(table[str(seed)]), flush=True)
        # Re-read before writing so concurrent recorders of other seed ranges merge.
        merged = wl.load_reference()
        merged[workload.name] = dict(merged.get(workload.name, {}), **table)
        wl.REFERENCE_FILE.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
