"""Store the grid-search reference results for the given seeds.

    python3 perfbench/make_reference.py SEED [SEED ...]

Runs the grid-search workload's search once per seed and keeps the columns
group_id, ops, k_max and status in perfbench/reference/.  The benchmark then
requires every later run of a stored seed to reproduce them.  Regenerate
only when a change is meant to alter search results, and say so.
"""

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from lyapsearch import cli  # noqa: E402


def main(seeds: list[int]) -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    run_root = ROOT / ".perfbench_run"
    run_root.mkdir(exist_ok=True)
    for seed in seeds:
        work_dir = Path(tempfile.mkdtemp(prefix=f"reference-{seed}-", dir=run_root))
        try:
            inputs = workloads.grid_inputs(seed, work_dir)
            if cli.main(inputs.argv) != 0:
                print(f"seed {seed}: search failed", file=sys.stderr)
                return 1
            path = workloads.reference_path(seed)
            workloads.write_reference(inputs, path)
            print(f"seed {seed}: wrote {path.relative_to(ROOT)}")
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main([int(s) for s in sys.argv[1:]]))
