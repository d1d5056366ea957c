"""Benchmark command for dnastore.

    python3 bench/run.py --workload {mc-small,mc-wide,exact} --seed N \\
        --seconds S --trace {0,1}

Runs one workload in this process against the sources in ``src/`` of the
checkout that holds this file: imports ``dnastore``, makes the workload's
inputs (set-up), then repeats whole rounds of the workload's operations, each
followed by another timed import and set-up, for about ``--seconds`` seconds
and checks every output.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
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

# metric -> unit; BENCHMARK.json lists the same
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trials_per_s": "trials/s",
    "s_to_10pct": "s",
}

SRC = ROOT / "src"

# run in a fresh interpreter: prints the seconds `import dnastore` takes
_TIME_IMPORT = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import dnastore, dnastore.cli
print(time.perf_counter() - start)
"""


def import_dnastore():
    """Import the dnastore of this checkout's src/."""
    if not (SRC / "dnastore" / "__init__.py").is_file():
        raise SystemExit(f"error: no dnastore sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dnastore
    import dnastore.cli

    if Path(dnastore.__file__).resolve().parent != (SRC / "dnastore").resolve():
        raise SystemExit(f"error: imported dnastore from {dnastore.__file__}, not {SRC}")
    return dnastore


def import_seconds() -> float:
    """Time of `import dnastore` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _TIME_IMPORT, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


def _dir_bytes(d: Path) -> int:
    return sum(f.stat().st_size for f in d.rglob("*") if f.is_file())


def _lru_caches(module) -> list:
    return [f for f in vars(module).values() if hasattr(f, "cache_clear")]


def run(args) -> dict:
    dn = import_dnastore()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    ops = workloads.Ops(dn)
    tracer = spans.Tracer() if args.trace else None
    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=out_root))
    caches = _lru_caches(dn.balls_bins)
    # channel keeps one preprocessed context per codebook object; entries
    # outlive their codebooks, so rounds would pile them up
    contexts = getattr(dn.channel, "_CONTEXTS", None)
    q_info = getattr(dn.balls_bins.q_surjection, "cache_info", None)
    import_s, setup_s, setup_layers, rounds, round_layers = [], [], [], [], []

    def set_up():
        """Time `import dnastore` in a fresh interpreter and one set-up."""
        import_s.append(import_seconds())
        d = work / f"setup{len(setup_s)}"
        d.mkdir()
        with tracer.root("setup") if tracer else contextlib.nullcontext() as span:
            start = time.perf_counter()
            inputs = wl.setup(ops, wl.shape, d)
            setup_s.append(time.perf_counter() - start)
        if tracer:
            m = spans.layer_metrics(tracer.spans, span["id"])
            m["cli.output_bytes"] = _dir_bytes(d)
            setup_layers.append(m)
        ops.run_checks()
        return inputs

    try:
        if tracer:
            tracer.install(dn)
        inputs = set_up()
        measure_start = time.perf_counter()
        while True:
            step_start = time.perf_counter()
            d = work / f"round{len(rounds)}"
            d.mkdir()
            # every round starts from the caches of a fresh process, as one
            # CLI invocation does
            for cache in caches:
                cache.cache_clear()
            if contexts is not None:
                contexts.clear()
            seeds = workloads.seed_stream(wl.name, args.seed)
            with tracer.root("round") if tracer else contextlib.nullcontext() as span:
                times = wl.round(ops, wl.shape, inputs, seeds, d)
            rounds.append(times)
            if tracer:
                m = spans.layer_metrics(tracer.spans, span["id"])
                m["cli.output_bytes"] = _dir_bytes(d)
                if q_info is not None:
                    info = q_info()
                    m["balls_bins.q_surjection_hits"] = info.hits
                    m["balls_bins.q_surjection_misses"] = info.misses
                round_layers.append(m)
            ops.run_checks()
            shutil.rmtree(d)
            # one more import and set-up after every round, so that set-up is
            # sampled over the whole run as the rounds are
            set_up()
            step_s = time.perf_counter() - step_start
            if time.perf_counter() - measure_start + step_s > args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if tracer:
        tracer.dump(out_root / f"spans-{wl.name}-seed{args.seed}.json")
        values = spans.combine(setup_layers, round_layers)
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
    else:
        # totals over all rounds: the machine's speed drifts over tens of
        # seconds, and a mean follows that drift smoothly where a median of
        # rounds jumps between fast and slow spells
        mc_s = sum(r.mc_s for r in rounds)
        headline = [r.headline_s for r in rounds if r.headline_s is not None]
        values = {
            "wall_s": statistics.fmean(r.wall_s for r in rounds),
            "setup_s": statistics.median(import_s) + statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "trials_per_s": sum(r.mc_trials for r in rounds) / mc_s if mc_s else None,
            "s_to_10pct": statistics.fmean(headline) if headline else None,
        }
        units = END_TO_END
    print(
        f"{wl.name}: seed {args.seed}, {len(rounds)} rounds, import "
        f"{[round(s, 3) for s in import_s]} s, set-up "
        f"{[round(s, 3) for s in setup_s]} s, rounds "
        f"{[round(r.wall_s, 3) for r in rounds]} s",
        file=sys.stderr,
    )
    return {
        "correct": not ops.mismatches,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="mc-small, mc-wide or exact")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
