"""Write perfbench/golden.json: stored outputs for the queries that have no
independent reference.

    python3 perfbench/make_golden.py

These are the `presentation` text reports (ann(e) bases and pairing ranks)
and `integrate --subgroup` on a U(2)xU(1) block.  Their parameters come
from fixed pools, so the stored file covers every seed.  Regenerate only when an output change is intended, and
say so in the change that does it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

import run


def main() -> int:
    run.import_program()
    import workloads
    from abelianize import cli

    config_dir = os.path.join(run.OUT, "golden-configs")
    gen = workloads.Generator(random.Random("golden"), config_dir)
    jobs = {}

    label, k, n, prefactor, sub = workloads.SMALL_SUBGROUP_CONFIG
    path = gen.model("small-levi-subgroup", k, n, prefactor, sub).path
    for i, text in enumerate(workloads.subgroup_polys(k, n)):
        argv = workloads.integrate_argv(("--config", path), text, "--subgroup")
        jobs[f"integrate --subgroup {label} #{i}"] = list(argv)

    for k, n in workloads.PRESENTATION_MODELS:
        jobs[f"presentation G({k},{n})"] = ["presentation", "--grassmannian", str(k), str(n)]

    workloads.write_files(gen.files)
    golden = {}
    for key, argv in jobs.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        if status != 0:
            sys.exit(f"{key}: exit status {status}")
        golden[key] = out.getvalue()
    with open(os.path.join(run.HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} stored outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
