#!/usr/bin/env python3
"""Record the reference outputs in ``expected.json`` for a range of seeds.

    python3 perfbench/record.py --seeds 0-99

Each seed runs one set-up, one repetition and the check pass of every
workload and stores the keys the workload names in ``record_keys``.
Re-record only when a change is meant to alter outputs (a new generator
or new sizes), never to make a failing check pass.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))
    run._import_program()
    warnings.filterwarnings("ignore", message="skipped")
    import checks
    import workloads

    (run.ROOT / ".perfbench").mkdir(exist_ok=True)
    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    for name in sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        table = expected.setdefault(name, {})
        for seed in range(first, last + 1):
            work = Path(tempfile.mkdtemp(dir=run.ROOT / ".perfbench"))
            try:
                state = workload.setup(seed, work)
                rep = workload.rep(state)
                obs = {**rep.obs, **workload.final(state)}
            finally:
                shutil.rmtree(work, ignore_errors=True)
            problems = checks.check(name, obs, None)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            table[str(seed)] = {key: obs[key] for key in workload.record_keys}
            print(f"{name} seed {seed} recorded", flush=True)
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
