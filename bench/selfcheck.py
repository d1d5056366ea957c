"""Quick self-check of the benchmark itself (a few seconds).

    python3 bench/selfcheck.py

Checks the reference computations against brute-force enumeration and the
recorded values, runs every workload's set-up, round and output checks at
the small shapes in ``workloads.TINY``, shows that the checks reject
tampered outputs, and that BENCHMARK.json names the metrics the benchmark
prints.  Exits 0 when everything holds.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from run import END_TO_END, HERE, ROOT, import_dnastore

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def enumerate_distinct(M: int, N: int) -> list[Fraction]:
    """Exact law of the distinct count by listing all M^N draw sequences."""
    counts = [0] * (min(M, N) + 1)
    for seq in itertools.product(range(M), repeat=N):
        counts[len(set(seq))] += 1
    return [Fraction(c, M**N) for c in counts]


def check_references(oracles) -> None:
    for M, N in [(2, 3), (3, 5), (4, 6), (5, 5)]:
        law = enumerate_distinct(M, N)
        expect(
            all(
                oracles.outage_probability(M, N, K) == sum(law[: K + 1])
                for K in range(len(law))
            ),
            f"Stirling outage P(D <= K) at M={M}, N={N} matches enumeration for every K",
        )
        mean = sum(k * q for k, q in enumerate(law))
        var = sum(k * k * q for k, q in enumerate(law)) - mean * mean
        ref_mean, ref_var = oracles.distinct_moments(M, N)
        expect(
            math.isclose(ref_mean, mean, rel_tol=1e-12)
            and math.isclose(ref_var, var, rel_tol=1e-9, abs_tol=1e-12),
            f"closed-form mean and variance at M={M}, N={N} match enumeration",
        )
    p = float(oracles.outage_probability(24, 36, 12))
    expect(f"{p:.4e}" == "2.3268e-05", f"exact headline p_ref = {p:.6e} (recorded 2.3268e-5)")
    expect(oracles.trials_for_10pct(p) == 4297689, "exact headline runs 4297689 trials")
    c, delta = 1.5, 0.5
    f = oracles.exponent_limit(c, delta)
    expect(0.0 < f < 1.0, f"f(1.5, 0.5) = {f!r} is a positive rate")
    expect(oracles.exponent_limit(c, -math.expm1(-c)) == 0.0, "f vanishes at delta = 1 - e^-c")
    rng = np.random.default_rng(3)
    rows = 8 * np.arange(6) + rng.integers(0, 3, size=(40, 6))
    best = max(
        sum(a == b for a, b in zip(rows[i], rows[j]))
        for i, j in itertools.combinations(range(len(rows)), 2)
    )
    expect(oracles.max_agreement(rows) == best, "agreement scan matches a pairwise loop")


def run_tiny(dn, workloads, name: str, work: Path) -> None:
    wl = workloads.WORKLOADS[name]
    shape = workloads.TINY[name]
    ops = workloads.Ops(dn)
    d = work / name
    d.mkdir()
    inputs = wl.setup(ops, shape, d)
    ops.run_checks()
    times = wl.round(ops, shape, inputs, workloads.seed_stream(name, 1), d)
    ops.run_checks()
    expect(
        ops.attempted > 0 and ops.failed == 0 and not ops.mismatches,
        f"{name} (tiny): {ops.attempted} operations, {ops.failed} failed, "
        f"checks {ops.mismatches or 'pass'}",
    )
    expect(
        times.headline_s is not None and times.mc_trials > 0 and times.wall_s > 0,
        f"{name} (tiny): round timed ({times.wall_s:.2f} s, {times.mc_trials} trials)",
    )
    if name == "mc-small":
        # checks must reject outputs that are wrong
        out = d / "headline.json"
        payload = json.loads(out.read_text())
        payload["report"]["failure_causes"]["tie"] += 1
        payload["report"]["p_hat"] *= 3.0
        out.write_text(json.dumps(payload))
        trials = payload["report"]["trials"]
        workloads.check_simulate(ops, shape, out, *shape.headline[:2], trials)
        workloads.check_headline(ops, shape.p_ref, out, trials)
        expect(len(ops.mismatches) == 3, f"tampered report rejected: {ops.mismatches}")
    if name == "exact":
        out = d / "distribution.json"
        payload = json.loads(out.read_text())
        payload["rows"][1]["pmf"] += 1e-6
        out.write_text(json.dumps(payload))
        workloads.check_distribution(ops, shape, out)
        expect(len(ops.mismatches) >= 1, f"tampered distribution rejected: {ops.mismatches}")


def check_spec(spans) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
        "BENCHMARK.json end_to_end matches the metrics run.py prints",
    )
    expect(
        {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER,
        "BENCHMARK.json per_layer matches spans.PER_LAYER",
    )


def main() -> int:
    dn = import_dnastore()
    import oracles
    import spans
    import workloads

    check_references(oracles)
    check_spec(spans)
    (HERE / "out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=HERE / "out"))
    try:
        for name in workloads.WORKLOADS:
            run_tiny(dn, workloads, name, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
