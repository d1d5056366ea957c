"""Remake the reference probability p_ref of an mc-* workload's headline event.

    python3 bench/pref.py mc-small --trials 20000000 --seed 987654321
    python3 bench/pref.py mc-wide --trials 600000 --seed 987654321
    python3 bench/pref.py mc-wide --tiny --trials 300000 --seed 987654321

Builds the workload's codebook exactly as its set-up does, runs one long
``dnastore simulate`` of the headline event and prints the estimate with its
standard error.  The printed p_hat is the value recorded as ``p_ref`` in
bench/workloads.py.  The seed is kept apart from the seeds the benchmark
draws, so the reference is independent of every benchmark run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, import_dnastore


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("mc-small", "mc-wide"))
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true", help="the self-check's shape")
    args = parser.parse_args(argv)
    dn = import_dnastore()
    import workloads

    if args.tiny:
        shape = workloads.TINY[args.workload]
    else:
        shape = workloads.WORKLOADS[args.workload].shape
    (HERE / "out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pref-", dir=HERE / "out"))
    try:
        cb, out = work / "cb.json", work / "pref.json"
        kind, p, decoder = shape.headline
        with contextlib.redirect_stdout(sys.stderr):
            code = dn.cli.main(shape.codebook_argv(cb))
            code = code or dn.cli.main(
                ["simulate", "--codebook", str(cb), "--model", kind, "--p", repr(p),
                 "--decoder", decoder, "--trials", str(args.trials),
                 "--seed", str(args.seed), "--workers", "1", "--out", str(out)]
            )
        if code:
            return code
        report = json.loads(out.read_text())["report"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "workload": args.workload,
        "tiny": args.tiny,
        "event": {"model": kind, "p": p, "decoder": decoder},
        "trials": report["trials"],
        "errors": report["errors"],
        "p_hat": report["p_hat"],
        "std_err": report["std_err"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
