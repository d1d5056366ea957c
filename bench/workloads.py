"""The benchmark workloads: their inputs, the timed sequence of operations in
one round, and the checks on every output.

An operation is one ``dnastore.cli.main(argv)`` command or one library call.
A workload's set-up makes its inputs (on ``mc-*`` the ``codebook`` command);
a round runs the same operations in the same order with the same seeds, so
every round does identical work.  Codebooks are fixed by the workload
definition; the workload seed drives only the Monte-Carlo seeds.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import oracles

DECODERS = ("distinct_intersection", "multiplicity_count", "unique_superset")


class Ops:
    """Runs and counts the operations of one benchmark run and collects
    the checks that failed."""

    def __init__(self, dnastore):
        self.dn = dnastore
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self._deferred: list = []

    def cli(self, argv: list[str]) -> float | None:
        """Seconds taken by one CLI command, or None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            # the CLI prints status lines; keep stdout for the result line
            with contextlib.redirect_stdout(sys.stderr):
                code = self.dn.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            print(f"failed (exit {code}): dnastore {' '.join(argv)}", file=sys.stderr)
            return None
        return elapsed

    def call(self, fn, *args):
        """(result, seconds) of one library call, or (None, None) if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None, None
        return result, time.perf_counter() - start

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.mismatches.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    def defer(self, fn, *args) -> None:
        """Queue a check to run after the timed round."""
        self._deferred.append((fn, args))

    def run_checks(self) -> None:
        pending, self._deferred = self._deferred, []
        for fn, args in pending:
            try:
                fn(self, *args)
            except Exception:
                traceback.print_exc()
                self.check(False, f"{fn.__name__} could not read its output")


@dataclass
class RoundTimes:
    wall_s: float = 0.0
    mc_trials: int = 0
    mc_s: float = 0.0
    headline_s: float | None = None


def seed_stream(workload: str, seed: int):
    """Monte-Carlo seeds of one run: the same sequence in every round."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.getrandbits(62)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


# ------------------------------------------------------------- mc workloads


@dataclass(frozen=True)
class McShape:
    M: int
    inner: int
    N: int
    J: int
    cap: int
    codebook_seed: int
    # (model, p, attack pair) x decoders, each run by one `simulate`
    sim_models: tuple
    sim_decoders: tuple
    sim_trials: int
    # (model, decoder, p values, trials) of one `sweep --param p`, or None
    sweep: tuple | None
    # run_trial calls per criterion-7 setting (0: none)
    soundness_calls: int
    # headline event (model, p, decoder) and its reference probability,
    # remade by the bench/pref.py command next to each value
    headline: tuple
    p_ref: float

    def codebook_argv(self, out: Path) -> list[str]:
        return [
            "codebook", "--M", str(self.M), "--inner-size", str(self.inner),
            "--N", str(self.N), "--cap", str(self.cap), "--target-J", str(self.J),
            "--seed", str(self.codebook_seed), "--out", str(out),
        ]


def _soundness_settings(dn):
    """The six criterion-7 settings: (scaling kwargs, model, decoder)."""
    fast = dict(M=16, inner_size=256, N=48, J=32)
    slow = dict(M=16, inner_size=256, N=128, J=32)
    m, d = dn.channel.SequencingErrorModel, dn.channel.DecoderConfig
    dist = d("distinct_intersection", epsilon=0.125)
    mult = d("multiplicity_count", epsilon=0.15, eta=0.5)
    return [
        (fast, m.none(), dist),
        (fast, m.erasure(0.08), dist),
        (fast, m.random(0.05), dist),
        (slow, m.none(), mult),
        (slow, m.erasure(0.05), mult),
        (slow, m.random(0.02), mult),
    ]


def mc_setup(ops: Ops, shape: McShape, d: Path) -> dict:
    dn = ops.dn
    cb_path = d / "cb.json"
    if ops.cli(shape.codebook_argv(cb_path)) is not None:
        ops.defer(check_codebook, shape, cb_path)
    soundness = []
    if shape.soundness_calls:
        for kwargs, model, dec in _soundness_settings(dn):
            scaling = dn.params.ScalingParams(**kwargs)
            cb, _ = ops.call(
                dn.codebook.greedy_index_codebook, scaling, 3, scaling.J, 9, 50_000
            )
            if cb is not None:
                # the separation scan is cached on the codebook; doing it here
                # keeps it out of the first round's run_trial calls
                ops.call(cb.max_intersection)
                soundness.append((cb, model, dec))
    return {"cb": cb_path, "soundness": soundness}


def _simulate_argv(cb, kind, p, pair, decoder, trials, seed, out) -> list[str]:
    argv = ["simulate", "--codebook", str(cb), "--model", kind, "--p", repr(p)]
    if pair is not None:
        argv += ["--attack-pair", str(pair[0]), str(pair[1])]
    return argv + [
        "--decoder", decoder, "--trials", str(trials), "--seed", str(seed),
        "--workers", "1", "--out", str(out),
    ]


def mc_round(ops: Ops, shape: McShape, inputs: dict, seeds, d: Path) -> RoundTimes:
    t = RoundTimes()
    start = time.perf_counter()
    cb = inputs["cb"]
    for kind, p, pair in shape.sim_models:
        for decoder in shape.sim_decoders:
            out = d / f"sim-{kind}-{decoder}.json"
            argv = _simulate_argv(cb, kind, p, pair, decoder, shape.sim_trials, next(seeds), out)
            elapsed = ops.cli(argv)
            if elapsed is not None:
                t.mc_s += elapsed
                t.mc_trials += shape.sim_trials
                ops.defer(check_simulate, shape, out, kind, p, shape.sim_trials)
    if shape.sweep is not None:
        kind, decoder, values, trials = shape.sweep
        out = d / "sweep.csv"
        argv = [
            "sweep", "--codebook", str(cb), "--model", kind, "--decoder", decoder,
            "--param", "p", "--values", *map(repr, values), "--trials", str(trials),
            "--seed", str(next(seeds)), "--workers", "1", "--format", "csv",
            "--out", str(out),
        ]
        elapsed = ops.cli(argv)
        if elapsed is not None:
            t.mc_s += elapsed
            t.mc_trials += trials * len(values)
            ops.defer(check_sweep, shape, out, kind, values, trials)
    for cb_obj, model, dec in inputs["soundness"]:
        base = next(seeds)
        outcomes = []
        for i in range(shape.soundness_calls):
            out, _ = ops.call(
                ops.dn.channel.run_trial, cb_obj, i % len(cb_obj), model, dec, base + i
            )
            if out is not None:
                outcomes.append(out)
        ops.defer(check_soundness, model.kind, dec.rule, outcomes)
    kind, p, decoder = shape.headline
    trials = oracles.trials_for_10pct(shape.p_ref)
    out = d / "headline.json"
    elapsed = ops.cli(_simulate_argv(cb, kind, p, None, decoder, trials, next(seeds), out))
    if elapsed is not None:
        t.mc_s += elapsed
        t.mc_trials += trials
        t.headline_s = elapsed
        ops.defer(check_simulate, shape, out, kind, p, trials)
        ops.defer(check_headline, shape.p_ref, out, trials)
    t.wall_s = time.perf_counter() - start
    return t


def check_codebook(ops: Ops, shape: McShape, cb_path: Path) -> None:
    """The reported max intersection equals an agreement count over the
    codebook file and respects the cap."""
    cb = _read_json(cb_path)
    report = _read_json(Path(str(cb_path) + ".report.json"))["report"]
    rows = oracles.index_rows(cb["codewords"])
    ops.check(rows.shape == (shape.J, shape.M), f"codebook shape {rows.shape}")
    ops.check(
        oracles.one_per_group(rows, shape.inner // shape.M),
        "codebook rows take one molecule per group",
    )
    value = oracles.max_agreement(rows)
    ops.check(
        report["max_intersection"] == value,
        f"max_intersection {report['max_intersection']} != agreement scan {value}",
    )
    ops.check(value <= shape.cap, f"max_intersection {value} above cap {shape.cap}")


def _lower(shape: McShape, kind: str, p: float) -> float:
    K2 = oracles.k2_forced(shape.M, 2 * shape.J, shape.inner)
    return oracles.log_lower_bound(kind, p, shape.M, shape.N, K2)


def check_simulate(ops: Ops, shape: McShape, out: Path, kind, p, trials) -> None:
    """Cause tallies sum to the trial count and the estimate sits above the
    closed-form lower bound."""
    rep = _read_json(out)["report"]
    causes = rep["failure_causes"]
    tag = out.name
    ops.check(rep["trials"] == trials, f"{tag}: trials {rep['trials']} != {trials}")
    ops.check(sum(causes.values()) == trials, f"{tag}: cause tallies {causes} != {trials}")
    ops.check(
        trials - causes["none"] == rep["errors"],
        f"{tag}: failure causes do not add up to {rep['errors']} errors",
    )
    ops.check(rep["p_hat"] == rep["errors"] / trials, f"{tag}: p_hat != errors/trials")
    ops.check(
        oracles.consistent_with_lower(rep["p_hat"], rep["std_err"], trials, _lower(shape, kind, p)),
        f"{tag}: p_hat {rep['p_hat']} below the {kind} lower bound",
    )


def check_sweep(ops: Ops, shape: McShape, out: Path, kind, values, trials) -> None:
    with out.open() as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    ops.check(len(rows) == len(values), f"sweep rows {len(rows)} != {len(values)}")
    for row, p in zip(rows, values):
        errors, n = int(row["errors"]), int(row["trials"])
        p_hat, std_err = float(row["p_hat"]), float(row["std_err"])
        ops.check(float(row["value"]) == p and n == trials, f"sweep row {row}")
        ops.check(p_hat == errors / n, f"sweep p={p}: p_hat != errors/trials")
        ops.check(
            oracles.consistent_with_lower(p_hat, std_err, n, _lower(shape, kind, p)),
            f"sweep p={p}: p_hat {p_hat} below the {kind} lower bound",
        )


def check_soundness(ops: Ops, kind: str, rule: str, outcomes: list) -> None:
    """All guarantee flags holding implies a successful decode."""
    bad = [o for o in outcomes if all(o.guarantee_flags) and not o.success]
    ops.check(not bad, f"run_trial {kind}/{rule}: {len(bad)} flagged trials failed")


def check_headline(ops: Ops, p_ref: float, out: Path, trials: int) -> None:
    p_hat = _read_json(out)["report"]["p_hat"]
    ops.check(
        oracles.within_4_sigma(p_hat, p_ref, trials),
        f"headline p_hat {p_hat} not within 4 sigma of p_ref {p_ref} ({trials} trials)",
    )


# ---------------------------------------------------------- exact workload


@dataclass(frozen=True)
class ExactShape:
    conv_c: float
    conv_delta: float
    conv_grid: tuple | None  # None: the CLI's default grid
    dist_M: int
    dist_N: int
    identity_M: tuple
    identity_N: tuple
    sample_M: int
    sample_N: int
    sample_trials: int
    headline: tuple  # (M, N, K) of P(#distinct <= K)


def exact_setup(ops: Ops, shape: ExactShape, d: Path) -> dict:
    M, N, K = shape.headline
    p_ref = float(oracles.outage_probability(M, N, K))
    return {"p_ref": p_ref, "headline_trials": oracles.trials_for_10pct(p_ref)}


def exact_round(ops: Ops, shape: ExactShape, inputs: dict, seeds, d: Path) -> RoundTimes:
    bb = ops.dn.balls_bins
    t = RoundTimes()
    start = time.perf_counter()
    out = d / "exponent.json"
    if ops.cli(["exponent", "--out", str(out)]) is not None:
        ops.defer(check_exponent_grid, out)
    out = d / "convergence.json"
    argv = ["occupancy", "--c", repr(shape.conv_c), "--delta", repr(shape.conv_delta)]
    if shape.conv_grid:
        argv += ["--M-grid", *map(str, shape.conv_grid)]
    if ops.cli(argv + ["--out", str(out)]) is not None:
        ops.defer(check_convergence, shape, out)
    out = d / "distribution.json"
    argv = ["occupancy", "--dist-M", str(shape.dist_M), "--dist-N", str(shape.dist_N)]
    if ops.cli(argv + ["--out", str(out)]) is not None:
        ops.defer(check_distribution, shape, out)
    pairs = []
    for M in shape.identity_M:
        for N in shape.identity_N:
            dist, _ = ops.call(bb.distinct_count_dp, M, N)
            if dist is None:
                continue
            for K in range(min(M, N) + 1):
                via_dp, _ = ops.call(dist.log_cdf, K)
                via_identity, _ = ops.call(bb.p_via_identity, bb.OccupancyQuery(N=N, M=M, K=K))
                if via_dp is not None and via_identity is not None:
                    pairs.append(((M, N, K), via_dp, via_identity))
    ops.defer(check_identity, pairs)
    sample, elapsed = ops.call(
        bb.sample_distinct_count, shape.sample_M, shape.sample_N, shape.sample_trials, next(seeds)
    )
    if sample is not None:
        t.mc_s += elapsed
        t.mc_trials += shape.sample_trials
        ops.defer(check_sample, shape, sample)
    trials = inputs["headline_trials"]
    sample, elapsed = ops.call(bb.sample_distinct_count, *shape.headline[:2], trials, next(seeds))
    if sample is not None:
        t.mc_s += elapsed
        t.mc_trials += trials
        t.headline_s = elapsed
        ops.defer(check_outage, shape, inputs["p_ref"], sample)
    t.wall_s = time.perf_counter() - start
    return t


def check_outage(ops: Ops, shape: ExactShape, p_ref: float, sample) -> None:
    p_hat = float(sample.cdf[shape.headline[2]])
    ops.check(
        oracles.within_4_sigma(p_hat, p_ref, sample.trials),
        f"outage p_hat {p_hat} not within 4 sigma of {p_ref} ({sample.trials} trials)",
    )


def check_exponent_grid(ops: Ops, out: Path) -> None:
    rows = _read_json(out)["rows"]
    ops.check(len(rows) > 0, "exponent grid is empty")
    worse = [r for r in rows if not r["f_multinomial"] >= r["f_poisson"]]
    ops.check(not worse, f"f_multinomial < f_poisson at {len(worse)} grid points")


def check_convergence(ops: Ops, shape: ExactShape, out: Path) -> None:
    payload = _read_json(out)
    limit = oracles.exponent_limit(shape.conv_c, shape.conv_delta)
    f_limit = payload["summary"]["f_limit"]
    ops.check(abs(f_limit - limit) <= 1e-9, f"f_limit {f_limit} != reference {limit}")
    gaps = [abs(r["exponent"] - limit) for r in payload["rows"]]
    ops.check(
        all(a > b for a, b in zip(gaps, gaps[1:])), f"convergence gaps not decreasing: {gaps}"
    )


def check_distribution(ops: Ops, shape: ExactShape, out: Path) -> None:
    rows = _read_json(out)["rows"]
    pmf = [r["pmf"] for r in rows]
    mean = math.fsum(k * q for k, q in enumerate(pmf))
    var = math.fsum((k - mean) ** 2 * q for k, q in enumerate(pmf))
    ref_mean, ref_var = oracles.distinct_moments(shape.dist_M, shape.dist_N)
    ops.check(abs(math.fsum(pmf) - 1.0) <= 1e-9, "distribution does not sum to 1")
    ops.check(abs(mean - ref_mean) <= 1e-9 * ref_mean, f"mean {mean} != {ref_mean}")
    ops.check(abs(var - ref_var) <= 1e-6 * ref_var, f"variance {var} != {ref_var}")


def check_identity(ops: Ops, pairs: list) -> None:
    """The identity route and the DP agree within 1e-9 (log scale, relative
    beyond magnitude 1)."""
    bad = [
        key
        for key, a, b in pairs
        if not (a == b or abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b)))
    ]
    ops.check(bool(pairs) and not bad, f"identity route != DP at {bad[:5]}")


def check_sample(ops: Ops, shape: ExactShape, sample) -> None:
    counts = [int(c) for c in sample.counts]
    trials = shape.sample_trials
    ops.check(sum(counts) == trials, f"sample counts sum {sum(counts)} != {trials}")
    mean = sum(k * c for k, c in enumerate(counts)) / trials
    ref_mean, ref_var = oracles.distinct_moments(shape.sample_M, shape.sample_N)
    ops.check(
        abs(mean - ref_mean) <= 5.0 * math.sqrt(ref_var / trials),
        f"sampled mean {mean} not within 5 sigma of {ref_mean}",
    )


# ------------------------------------------------------------- definitions


@dataclass(frozen=True)
class Workload:
    name: str
    shape: object
    setup: object
    round: object


MC_SMALL = McShape(
    M=16, inner=64, N=32, J=64, cap=12, codebook_seed=20,
    sim_models=(
        ("none", 0.0, None),
        ("erasure", 0.5, None),
        ("random", 0.5, None),
        ("adversarial", 0.3, (0, 1)),
    ),
    sim_decoders=DECODERS,
    sim_trials=20_000,
    sweep=None,
    soundness_calls=200,
    headline=("erasure", 0.5, "distinct_intersection"),
    # python3 bench/pref.py mc-small --trials 20000000 --seed 987654321
    p_ref=2.7185e-4,
)

MC_WIDE = McShape(
    M=64, inner=4096, N=128, J=500, cap=8, codebook_seed=5,
    sim_models=(("random", 0.5, None),),
    sim_decoders=("distinct_intersection", "multiplicity_count"),
    sim_trials=2_000,
    sweep=("erasure", "distinct_intersection", (0.8, 0.9, 0.95), 2_000),
    soundness_calls=0,
    headline=("erasure", 0.95, "distinct_intersection"),
    # python3 bench/pref.py mc-wide --trials 600000 --seed 987654321
    p_ref=1.2338333e-2,
)

EXACT = ExactShape(
    conv_c=1.5, conv_delta=0.5, conv_grid=None,
    dist_M=4000, dist_N=6000,
    identity_M=tuple(range(4, 61, 8)), identity_N=tuple(range(6, 91, 12)),
    sample_M=500, sample_N=750, sample_trials=1 << 14,
    headline=(24, 36, 12),
)

WORKLOADS = {
    "mc-small": Workload("mc-small", MC_SMALL, mc_setup, mc_round),
    "mc-wide": Workload("mc-wide", MC_WIDE, mc_setup, mc_round),
    "exact": Workload("exact", EXACT, exact_setup, exact_round),
}

# small shapes for bench/selfcheck.py; the same operations and checks
TINY = {
    "mc-small": replace(MC_SMALL, sim_trials=2_000, soundness_calls=20),
    "mc-wide": replace(
        MC_WIDE,
        J=100,
        sim_trials=200,
        sweep=("erasure", "distinct_intersection", (0.8, 0.9, 0.95), 200),
        # python3 bench/pref.py mc-wide --tiny --trials 300000 --seed 987654321
        p_ref=6.9966667e-3,
    ),
    "exact": replace(
        EXACT,
        conv_grid=(50, 100, 200),
        dist_M=400,
        dist_N=600,
        identity_M=(4, 12),
        identity_N=(6, 18),
        sample_M=50,
        sample_N=75,
        sample_trials=2_000,
        headline=(12, 18, 6),
    ),
}
