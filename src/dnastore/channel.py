"""End-to-end trial simulation of the sampling + sequencing pipeline.

A trial samples N reads uniformly (with replacement and multiplicity) from
the stored codeword, pushes each read through a sequencing-error model, and
decodes.  Trials are pure functions of (codebook, config, seed); the
Monte-Carlo estimator splits trials into fixed-size chunks whose random
streams depend only on (master seed, chunk index), so estimates are
reproducible and independent of the worker count.

Single-trial RNG draw order: sampling indices, then the model's per-read
uniforms and replacement draws, then the tie-break choice.
"""

from __future__ import annotations

import math
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .balls_bins import LOG_ZERO, _log_comb
from .codebook import Codebook
from .errors import DomainError
from .params import ScalingParams

MODEL_KINDS = ("none", "erasure", "random", "adversarial")
DECODER_RULES = ("distinct_intersection", "multiplicity_count", "unique_superset")
FAILURE_CAUSES = ("none", "outage", "collision", "sequencing", "tie")

_MASK64 = (1 << 64) - 1
_KEY_MASK = (1 << 128) - 1


@dataclass(frozen=True)
class SequencingErrorModel:
    """What happens to a read with probability p: nothing ("none"), the read
    is dropped ("erasure"), replaced by a uniform molecule from the whole
    inner codebook ("random"), or replaced by a uniform molecule from one of
    two targeted codewords ("adversarial", the paired substitution attack)."""

    kind: str
    p: float = 0.0
    attack_pair: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise DomainError(f"unknown sequencing error model {self.kind!r}")
        if not 0.0 <= self.p < 1.0:
            raise DomainError("p must lie in [0, 1)")
        if self.kind == "none" and self.p != 0.0:
            raise DomainError("the error-free model must have p = 0")
        if self.kind == "adversarial":
            if self.attack_pair is None:
                raise DomainError("adversarial model needs an attack_pair")
            i, j = self.attack_pair
            if i == j:
                raise DomainError("attack_pair must name two distinct messages")
        elif self.attack_pair is not None:
            raise DomainError("attack_pair is only meaningful for adversarial")

    @classmethod
    def none(cls) -> "SequencingErrorModel":
        return cls("none")

    @classmethod
    def erasure(cls, p: float) -> "SequencingErrorModel":
        return cls("erasure", p)

    @classmethod
    def random(cls, p: float) -> "SequencingErrorModel":
        return cls("random", p)

    @classmethod
    def adversarial(cls, p: float, attack_pair) -> "SequencingErrorModel":
        i, j = attack_pair
        return cls("adversarial", p, (int(i), int(j)))


@dataclass(frozen=True)
class DecoderConfig:
    """Decoding rule plus the slack parameters used when checking the
    sufficient conditions for guaranteed success.

    distinct_intersection  pick the codeword sharing the most distinct
                           observed molecules
    multiplicity_count     pick the codeword containing the most reads,
                           counting repeats
    unique_superset        succeed only if exactly one codeword contains
                           every observed molecule
    """

    rule: str
    epsilon: float = 0.05
    eta: float = 0.5

    def __post_init__(self):
        if self.rule not in DECODER_RULES:
            raise DomainError(f"unknown decoder rule {self.rule!r}")
        if self.epsilon < 0:
            raise DomainError("epsilon must be non-negative")
        if not 0.0 < self.eta < 1.0:
            raise DomainError("eta must lie in (0, 1)")


@dataclass(frozen=True)
class TrialOutcome:
    """Everything observable about one decode attempt.

    guarantee_flags is (errors_ok, coverage_ok, separation_ok): the three
    sufficient conditions for the configured rule; when all three hold the
    decoder provably cannot fail.  top_sample_count / rival_error_count are
    filled for the random model only; attack_cases / attack_bad_event for
    the adversarial model only (case 0 = clean read, 1 = substituted from
    the first target codeword, 2 = from the second).
    """

    success: bool
    true_message: int
    decoded_message: int | None
    distinct_sampled: int
    sequencing_errors: int
    guarantee_flags: tuple[bool, bool, bool]
    failure_cause: str
    tie_broken: bool
    attack_cases: tuple[int, ...] | None = None
    attack_bad_event: bool | None = None
    top_sample_count: int | None = None
    rival_error_count: int | None = None


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Monte-Carlo error estimate with per-cause tallies."""

    trials: int
    errors: int
    p_hat: float
    std_err: float
    seed: int
    failure_causes: dict
    wall_time_s: float
    attack_stats: dict | None = None

    def comparable_dict(self) -> dict:
        """All deterministic fields (drops wall time)."""
        return {
            "trials": self.trials,
            "errors": self.errors,
            "p_hat": self.p_hat,
            "std_err": self.std_err,
            "seed": self.seed,
            "failure_causes": dict(self.failure_causes),
            "attack_stats": None
            if self.attack_stats is None
            else dict(self.attack_stats),
        }


class _Context:
    """Preprocessed arrays for one (immutable) codebook."""

    def __init__(self, cb: Codebook, precomputed_cap: int | None = None):
        scaling = cb.scaling
        self.M = scaling.M
        self.N = scaling.N
        self.inner = scaling.inner_size
        self.J = len(cb.codewords)
        if self.J < 1:
            raise DomainError("cannot simulate an empty codebook")
        self.expanded = np.stack([cw.expand() for cw in cb.codewords]).astype(np.int64)
        self.support_f = np.zeros((self.J, self.inner))
        supports = [np.array(cw.support, dtype=np.int64) for cw in cb.codewords]
        for i, sup in enumerate(supports):
            self.support_f[i, sup] = 1.0
        smax = max(len(s) for s in supports)
        self.support_padded = np.zeros((self.J, smax), dtype=np.int64)
        self.support_mask = np.zeros((self.J, smax), dtype=bool)
        for i, sup in enumerate(supports):
            self.support_padded[i, : len(sup)] = sup
            self.support_mask[i, : len(sup)] = True
        if precomputed_cap is not None:
            self.cap = precomputed_cap
        elif self.J < 2:
            self.cap = 0
        else:
            self.cap = cb.max_intersection()[0]
        try:
            self.r0 = scaling.r0
        except DomainError:
            # neither J nor R0 declared: let the realized size stand in
            self.r0 = math.log(max(self.J, 2)) / (
                (scaling.alpha - 1.0) * self.M * math.log(self.M)
            )


# one context per live codebook; a context must hold no reference to its
# codebook, or the weak key never dies and the entry is never freed
_CONTEXTS: "weakref.WeakKeyDictionary[Codebook, _Context]" = (
    weakref.WeakKeyDictionary()
)


def _context(cb: Codebook, precomputed_cap: int | None = None) -> _Context:
    ctx = _CONTEXTS.get(cb)
    if ctx is None:
        ctx = _Context(cb, precomputed_cap)
        _CONTEXTS[cb] = ctx
    return ctx


def _apply_model_single(ctx, model, sampled, rng):
    """Returns (reads, error_count, attack_case_vector_or_None)."""
    n = sampled.size
    if model.kind == "none" or model.p == 0.0:
        cases = np.zeros(n, dtype=np.int8) if model.kind == "adversarial" else None
        return sampled, 0, cases
    if model.kind == "erasure":
        mask = rng.random(n) < model.p
        return sampled[~mask], int(mask.sum()), None
    if model.kind == "random":
        mask = rng.random(n) < model.p
        repl = rng.integers(0, ctx.inner, size=n)
        reads = np.where(mask, repl, sampled)
        return reads, int((reads != sampled).sum()), None
    a, b = model.attack_pair
    u = rng.random(n)
    cases = np.zeros(n, dtype=np.int8)
    cases[u < model.p] = 2
    cases[u < model.p / 2.0] = 1
    repl_a = ctx.expanded[a][rng.integers(0, ctx.M, size=n)]
    repl_b = ctx.expanded[b][rng.integers(0, ctx.M, size=n)]
    reads = np.where(cases == 1, repl_a, np.where(cases == 2, repl_b, sampled))
    return reads, int((reads != sampled).sum()), cases


def _decode_single(ctx, reads, rule, rng):
    """Returns (decoded_message_or_None, tie_broken)."""
    support = ctx.support_f
    distinct = np.unique(reads)
    if rule == "unique_superset":
        covered = support[:, distinct].sum(axis=1) == distinct.size
        candidates = np.flatnonzero(covered)
        if candidates.size == 1:
            return int(candidates[0]), False
        return None, False
    if rule == "distinct_intersection":
        scores = support[:, distinct].sum(axis=1)
    else:  # multiplicity_count
        counts = np.bincount(reads, minlength=ctx.inner)[: ctx.inner]
        scores = support @ counts
    top = scores.max()
    tied = np.flatnonzero(scores == top)
    if tied.size == 1:
        return int(tied[0]), False
    return int(tied[rng.integers(0, tied.size)]), True


def _guarantee_flags(ctx, dec, n_reads, message, sampled, distinct_count, errors):
    """(errors_ok, coverage_ok, separation_ok) for the configured rule."""
    M, eps, eta = ctx.M, dec.epsilon, dec.eta
    separation_ok = ctx.cap < (ctx.r0 + eps) * M
    if dec.rule == "distinct_intersection":
        errors_ok = errors <= eps * M
        coverage_ok = distinct_count >= (ctx.r0 + 3.0 * eps) * M
    elif dec.rule == "multiplicity_count":
        errors_ok = errors < eps * eta * n_reads
        threshold = eta * n_reads / M
        counts = np.bincount(sampled, minlength=ctx.inner)
        support = ctx.support_padded[message][ctx.support_mask[message]]
        undersampled = int((counts[support] <= threshold).sum())
        coverage_ok = undersampled <= (1.0 - ctx.r0 - 3.0 * eps) * M
    else:  # unique_superset
        errors_ok = errors == 0
        coverage_ok = distinct_count > ctx.cap
    return bool(errors_ok), bool(coverage_ok), bool(separation_ok)


def _failure_cause(success, tie, flags):
    if success:
        return "none"
    if tie:
        return "tie"
    errors_ok, coverage_ok, _ = flags
    if not coverage_ok:
        return "outage"
    if not errors_ok:
        return "sequencing"
    return "collision"


def _single_trial(ctx, message, model, dec, rng, n_reads) -> TrialOutcome:
    sampled = ctx.expanded[message][rng.integers(0, ctx.M, size=n_reads)]
    distinct_count = int(np.unique(sampled).size)
    reads, errors, cases = _apply_model_single(ctx, model, sampled, rng)
    decoded, tie = _decode_single(ctx, reads, dec.rule, rng)
    success = decoded == message
    flags = _guarantee_flags(ctx, dec, n_reads, message, sampled, distinct_count, errors)

    attack_cases = attack_bad = None
    if cases is not None:
        attack_cases = tuple(int(c) for c in cases)
        a, b = model.attack_pair
        half = (n_reads + 1) // 2
        if message == a:
            attack_bad = bool((cases[:half] == 2).all() and (cases[half:] == 0).all())
        elif message == b:
            attack_bad = bool((cases[:half] == 0).all() and (cases[half:] == 1).all())
        else:
            attack_bad = False

    top_count = rival_count = None
    if model.kind == "random":
        counts = np.bincount(sampled, minlength=ctx.inner)
        support = ctx.support_padded[message][ctx.support_mask[message]]
        top = np.sort(counts[support])[::-1]
        top_count = int(top[: ctx.cap].sum())
        err_mask = reads != sampled
        if ctx.J > 1 and err_mask.any():
            err_counts = np.bincount(reads[err_mask], minlength=ctx.inner)[: ctx.inner]
            hits = ctx.support_f @ err_counts
            hits[message] = -1.0
            rival_count = int(hits.max())
        else:
            rival_count = 0

    return TrialOutcome(
        success=success,
        true_message=int(message),
        decoded_message=decoded,
        distinct_sampled=distinct_count,
        sequencing_errors=errors,
        guarantee_flags=flags,
        failure_cause=_failure_cause(success, tie and not success, flags),
        tie_broken=tie,
        attack_cases=attack_cases,
        attack_bad_event=attack_bad,
        top_sample_count=top_count,
        rival_error_count=rival_count,
    )


def run_trial(
    cb: Codebook,
    message: int,
    model: SequencingErrorModel,
    dec: DecoderConfig,
    seed: int,
    n_reads: int | None = None,
) -> TrialOutcome:
    """One complete encode/sample/sequence/decode trial, deterministic in seed."""
    ctx = _context(cb)
    if not 0 <= message < ctx.J:
        raise DomainError(f"message {message} out of range for {ctx.J} codewords")
    if model.kind == "adversarial":
        a, b = model.attack_pair
        if not (0 <= a < ctx.J and 0 <= b < ctx.J):
            raise DomainError("attack_pair out of range")
    n = ctx.N if n_reads is None else n_reads
    if n < 1:
        raise DomainError("need at least one read")
    rng = np.random.Generator(np.random.Philox(key=int(seed) & _KEY_MASK))
    return _single_trial(ctx, message, model, dec, rng, n)


def adversarial_attack_trial(
    cb: Codebook,
    pair: tuple[int, int],
    p: float,
    N: int | None = None,
    seed: int = 0,
    dec: DecoderConfig | None = None,
) -> TrialOutcome:
    """One trial of the paired substitution attack: the message is a fair
    pick from the pair, and each read independently stays clean with
    probability 1-p or is replaced by a uniform (multiplicity-weighted)
    molecule from either target codeword with probability p/2 each."""
    ctx = _context(cb)
    i, j = int(pair[0]), int(pair[1])
    if not (0 <= i < ctx.J and 0 <= j < ctx.J) or i == j:
        raise DomainError("pair must name two distinct valid messages")
    model = SequencingErrorModel.adversarial(p, (i, j))
    if dec is None:
        dec = DecoderConfig("multiplicity_count")
    n = ctx.N if N is None else N
    if n < 1:
        raise DomainError("need at least one read")
    rng = np.random.Generator(np.random.Philox(key=int(seed) & _KEY_MASK))
    message = (i, j)[int(rng.integers(0, 2))]
    return _single_trial(ctx, message, model, dec, rng, n)


def _chunk_size(J: int) -> int:
    return max(256, min(1 << 14, (1 << 22) // max(J, 1)))


def _estimate_chunk(spec):
    cb, model, dec, master_seed, chunk_index, size, cap = spec
    ctx = _context(cb, precomputed_cap=cap)
    M, N, inner, J = ctx.M, ctx.N, ctx.inner, ctx.J
    key = ((master_seed & _MASK64) << 64) | chunk_index
    rng = np.random.Generator(np.random.Philox(key=key))
    B = size
    rows = np.arange(B)

    msgs = rng.integers(0, J, size=B)
    sample_idx = rng.integers(0, M, size=(B, N))
    sampled = ctx.expanded[msgs[:, None], sample_idx]

    occ0 = np.zeros((B, inner), dtype=bool)
    occ0[rows[:, None], sampled] = True
    distinct_count = occ0.sum(axis=1)

    cases = None
    if model.kind == "none" or model.p == 0.0:
        if model.kind == "adversarial":
            cases = np.zeros((B, N), dtype=np.int8)
        reads = sampled
        errors = np.zeros(B, dtype=np.int64)
    elif model.kind == "erasure":
        mask = rng.random((B, N)) < model.p
        reads = np.where(mask, inner, sampled)  # sentinel column marks erasures
        errors = mask.sum(axis=1)
    elif model.kind == "random":
        mask = rng.random((B, N)) < model.p
        repl = rng.integers(0, inner, size=(B, N))
        reads = np.where(mask, repl, sampled)
        errors = (reads != sampled).sum(axis=1)
    else:
        a, b = model.attack_pair
        u = rng.random((B, N))
        cases = np.zeros((B, N), dtype=np.int8)
        cases[u < model.p] = 2
        cases[u < model.p / 2.0] = 1
        repl_a = ctx.expanded[a][rng.integers(0, M, size=(B, N))]
        repl_b = ctx.expanded[b][rng.integers(0, M, size=(B, N))]
        reads = np.where(cases == 1, repl_a, np.where(cases == 2, repl_b, sampled))
        errors = (reads != sampled).sum(axis=1)

    occ = np.zeros((B, inner + 1), dtype=bool)
    occ[rows[:, None], reads] = True
    observed = occ[:, :inner]

    tie = np.zeros(B, dtype=bool)
    if dec.rule == "unique_superset":
        observed_sizes = observed.sum(axis=1)
        cover_counts = observed.astype(np.float64) @ ctx.support_f.T
        covering = cover_counts == observed_sizes[:, None]
        n_candidates = covering.sum(axis=1)
        decoded = np.where(n_candidates == 1, np.argmax(covering, axis=1), -1)
    else:
        if dec.rule == "distinct_intersection":
            scores = observed.astype(np.float64) @ ctx.support_f.T
        else:
            flat = reads + (rows * (inner + 1))[:, None]
            counts = np.bincount(flat.ravel(), minlength=B * (inner + 1)).reshape(
                B, inner + 1
            )
            scores = counts[:, :inner].astype(np.float64) @ ctx.support_f.T
        top = scores.max(axis=1)
        tie = (scores == top[:, None]).sum(axis=1) > 1
        # integer scores + sub-unit jitter: breaks ties uniformly, preserves order
        jitter = rng.random((B, J))
        decoded = np.argmax(scores + jitter, axis=1)

    wrong = decoded != msgs

    eps, eta = dec.epsilon, dec.eta
    if dec.rule == "distinct_intersection":
        errors_ok = errors <= eps * M
        coverage_ok = distinct_count >= (ctx.r0 + 3.0 * eps) * M
    elif dec.rule == "multiplicity_count":
        errors_ok = errors < eps * eta * N
        threshold = eta * N / M
        flat0 = sampled + (rows * inner)[:, None]
        counts0 = np.bincount(flat0.ravel(), minlength=B * inner).reshape(B, inner)
        gathered = counts0[rows[:, None], ctx.support_padded[msgs]]
        undersampled = ((gathered <= threshold) & ctx.support_mask[msgs]).sum(axis=1)
        coverage_ok = undersampled <= (1.0 - ctx.r0 - 3.0 * eps) * M
    else:
        errors_ok = errors == 0
        coverage_ok = distinct_count > ctx.cap

    # same priority as the single-trial path: tie > outage > sequencing
    cause = np.zeros(B, dtype=np.int8)  # indices into FAILURE_CAUSES
    cause[wrong] = 2
    cause[wrong & ~errors_ok] = 3
    cause[wrong & ~coverage_ok] = 1
    cause[wrong & tie] = 4
    cause_counts = np.bincount(cause, minlength=5)

    attack = None
    if cases is not None:
        a, b = model.attack_pair
        half = (N + 1) // 2
        pattern_i = (cases[:, :half] == 2).all(axis=1) & (cases[:, half:] == 0).all(
            axis=1
        )
        pattern_ii = (cases[:, :half] == 0).all(axis=1) & (cases[:, half:] == 1).all(
            axis=1
        )
        bad = np.where(msgs == a, pattern_i, np.where(msgs == b, pattern_ii, False))
        attack = (
            int(pattern_i.sum()),
            int(bad.sum()),
            int((bad & wrong).sum()),
        )

    return int(wrong.sum()), cause_counts, attack


def estimate_error_probability(
    cb: Codebook,
    model: SequencingErrorModel,
    dec: DecoderConfig,
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> SimulationReport:
    """Monte-Carlo error probability over i.i.d. trials with uniform random
    messages.  Chunk tallies merge by summation, so the report is identical
    for any worker count."""
    if trials < 1:
        raise DomainError("trials must be positive")
    ctx = _context(cb)
    if model.kind == "adversarial":
        a, b = model.attack_pair
        if not (0 <= a < ctx.J and 0 <= b < ctx.J):
            raise DomainError("attack_pair out of range")
    start = time.perf_counter()
    chunk = _chunk_size(ctx.J)
    specs = []
    done = 0
    idx = 0
    while done < trials:
        size = min(chunk, trials - done)
        specs.append((cb, model, dec, master_seed, idx, size, ctx.cap))
        done += size
        idx += 1
    if workers > 1 and len(specs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_estimate_chunk, specs, chunksize=4))
    else:
        parts = [_estimate_chunk(s) for s in specs]
    errors = sum(p[0] for p in parts)
    cause_counts = np.sum([p[1] for p in parts], axis=0)
    attack_stats = None
    if model.kind == "adversarial":
        sums = [0, 0, 0]
        for p_ in parts:
            if p_[2] is not None:
                for k in range(3):
                    sums[k] += p_[2][k]
        attack_stats = {
            "pattern_first_half_hits": sums[0],
            "bad_events": sums[1],
            "bad_event_errors": sums[2],
        }
    p_hat = errors / trials
    return SimulationReport(
        trials=trials,
        errors=errors,
        p_hat=p_hat,
        std_err=math.sqrt(p_hat * (1.0 - p_hat) / trials),
        seed=master_seed,
        failure_causes={
            name: int(cause_counts[k]) for k, name in enumerate(FAILURE_CAUSES)
        },
        wall_time_s=time.perf_counter() - start,
        attack_stats=attack_stats,
    )


def _xlog(x: float) -> float:
    if x < 0:
        raise DomainError("log of negative value")
    return LOG_ZERO if x == 0.0 else math.log(x)


def _validate_bound_args(scaling: ScalingParams, K1: int, K2: int, p: float = 0.0):
    if not 0 <= K2 <= K1 <= scaling.M:
        raise DomainError("need 0 <= K2 <= K1 <= M")
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")


def bound_no_seq(scaling: ScalingParams, K1: int, K2: int) -> tuple[float, float]:
    """Error-free sampling: (1/4)(K2/M)^N <= P_e* <= C(M,K1)(K1/M)^N,
    both returned as log-probabilities (upper capped at log 1)."""
    _validate_bound_args(scaling, K1, K2)
    M, N = scaling.M, scaling.N
    lower = math.log(0.25) + N * _xlog(K2 / M)
    upper = min(0.0, _log_comb(M, K1) + N * _xlog(K1 / M))
    return lower, upper


def bound_erasure(
    scaling: ScalingParams, K1: int, K2: int, p: float
) -> tuple[float, float]:
    """Erasure model: (1/4) max(p, K2/M)^N <= P_e* <= C(M,K1)(p + K1/M)^N."""
    _validate_bound_args(scaling, K1, K2, p)
    M, N = scaling.M, scaling.N
    lower = math.log(0.25) + N * _xlog(max(p, K2 / M))
    upper = min(0.0, _log_comb(M, K1) + N * _xlog(p + K1 / M))
    return lower, upper


def bound_adversarial(
    scaling: ScalingParams, K1: int, K2: int, p: float
) -> tuple[float, float]:
    """Adversarial model: the paired-attack term (1/2)(p(1-p)/2)^(N/2) joins
    the error-free lower bound; the upper bound pays (N+1) 4^N C(M,K1) times
    max(p^(N/2), (K1/M)^N)."""
    _validate_bound_args(scaling, K1, K2, p)
    M, N = scaling.M, scaling.N
    attack_term = math.log(0.5) + (N / 2.0) * _xlog(p * (1.0 - p) / 2.0)
    lower = max(attack_term, math.log(0.25) + N * _xlog(K2 / M))
    upper = min(
        0.0,
        math.log(N + 1.0)
        + N * math.log(4.0)
        + _log_comb(M, K1)
        + max((N / 2.0) * _xlog(p), N * _xlog(K1 / M)),
    )
    return lower, upper


def bound_random(
    scaling: ScalingParams,
    K1: int,
    p: float,
    J=None,
    alpha: float | None = None,
    K2: int = 0,
) -> tuple[float, float]:
    """Random-substitution model: upper bound
    N^3 2^(M+3N) max(K1/M, p, M^(1-alpha))^(N - log J / ((alpha-1) log M)),
    valid only while that exponent is positive; lower bound as for erasures."""
    _validate_bound_args(scaling, K1, K2, p)
    M, N = scaling.M, scaling.N
    if alpha is None:
        alpha = scaling.alpha
    if not alpha > 1:
        raise DomainError("alpha must exceed 1")
    log_j = math.log(J) if J is not None else scaling.log_messages
    gamma = log_j / ((alpha - 1.0) * math.log(M))
    exponent = N - gamma
    if exponent <= 0:
        raise DomainError(
            f"bound vacuous: N - log(J)/((alpha-1) log M) = {exponent} <= 0"
        )
    biggest = max(K1 / M, p, math.exp((1.0 - alpha) * math.log(M)))
    upper = min(
        0.0,
        3.0 * math.log(N) + (M + 3.0 * N) * math.log(2.0) + exponent * _xlog(biggest),
    )
    lower = math.log(0.25) + N * _xlog(max(p, K2 / M))
    return lower, upper
