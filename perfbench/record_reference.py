"""Record the pinned-seed reference of every workload into reference.json.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py [--tiny]

Run it only when the program's numerics change on purpose, and say why in
the change that updates the file: `run.py` fails a run whose reference loss
log leaves the tolerance, and reports a fingerprint that differs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tiny", action="store_true", help="record the shrunken sizes")
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".perfbench")
    args = parser.parse_args(argv)
    from run import single_blas_thread

    single_blas_thread()
    sys.path.insert(0, str(SRC))

    import envinfo
    from workloads import PINNED_SEED, WORKLOADS, prepare_reference, reference_op, setup

    scale = "tiny" if args.tiny else "full"
    path = HERE / "reference.json"
    recorded = json.loads(path.read_text())
    digest = envinfo.tree_digest(SRC / "cogent")
    for workload in WORKLOADS.values():
        if args.tiny:
            workload = workload.tiny()
        run_dir = args.work_dir / "runs" / f"reference-{workload.name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            corpus_dir, input_path = prepare_reference(workload, run_dir, SRC)
            state = setup(workload, corpus_dir, PINNED_SEED, input_path)
            log, fp = reference_op(workload, state)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        recorded.setdefault(scale, {})[workload.name] = {
            "src_digest": digest, "fingerprint": fp, "log": log,
        }
        print(f"{workload.name} ({scale}): {fp}")
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
