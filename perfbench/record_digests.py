#!/usr/bin/env python3
"""Record the sha256 of every job's output at the default seed.

    python3 perfbench/record_digests.py

Runs one pass of each workload, requires every exit code and invariant check
to pass, and rewrites digests.json.  Only run this at a commit whose outputs
are known to be right: the benchmark then holds later commits to these bytes.
"""

import json
import os
import shutil
import sys
import tempfile
import time

import run
import workloads


def main():
    run.import_findual()
    os.environ.pop("FINDUAL_THREADS", None)
    digests = {}
    work_root = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        for name in workloads.NAMES:
            workload = workloads.build(name, workloads.DEFAULT_SEED)
            work_dir = os.path.join(work_root, name)
            os.makedirs(work_dir)
            run.prepare(workload, work_dir)
            deadline = time.monotonic() + run.RUN_DEADLINE_S
            result = run.run_pass(workload, work_dir, None, deadline)
            problems = [f"{r.name}: {r.problem}" for r in result.results if r.problem]
            if problems:
                sys.exit("not recording, checks failed:\n" + "\n".join(problems))
            digests[name] = {r.name: r.sha256 for r in result.results}
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
