"""End-to-end trial simulation of the sampling + sequencing pipeline.

A trial samples N reads uniformly (with replacement and multiplicity) from
the stored codeword, pushes each read through a sequencing-error model, and
decodes.  Trials are pure functions of (codebook, config, seed); the
Monte-Carlo estimator splits trials into fixed-size chunks whose random
streams depend only on (master seed, chunk index), so estimates are
reproducible and independent of the worker count.

One kernel, ``_trials``, runs every trial: the estimator calls it on a chunk
of messages, and ``run_trial`` / ``adversarial_attack_trial`` call it on a
batch of one.  RNG draw order within an estimator chunk: messages, sampling
indices, the model's per-read uniforms and replacement draws, then the
tie-break: one integer per tied trial, in trial order, uniform over the
count of its top-scoring codewords (the k-th of them is decoded).  Untied
trials and unique_superset draw nothing for it.  ``run_trial`` is given its
message, so its draws start at the sampling indices;
``adversarial_attack_trial`` first draws its message coin.

The kernel returns what every caller reads; the guarantee flags and the
failure cause come from ``_flags`` and ``_failure_cause``, which the
estimator runs on wrong trials only (it tallies causes of wrong trials and
nothing else) and the single-trial functions on their one trial.

Decoder scores (per trial and codeword, the distinct observed molecules the
codeword holds, or its reads for multiplicity_count) take one of three
routes, which ``score_route`` picks from the shape and the rule alone.  Up
to 64 molecules, the distinct-molecule rules take the bits route: a score
is the popcount of the trial's observed word ANDed with the codeword's
support word (one uint64 bit per molecule).  Otherwise the dense route
multiplies the B x inner observed occupancy by the J x inner support matrix
in float32, in row blocks that BLAS runs on the calling thread, and the
sparse route, taken when a trial touches far fewer index entries than the
product's cells, looks each observed molecule up in an inverted index from
molecule to codewords and adds the hits with one bincount.  All three are
exact: scores are integers no larger than N, and float32 holds every
integer below 2^24 (from 2^24 reads on, score_route never picks the dense
route).  The route changes no output, only time and memory.
"""

from __future__ import annotations

import functools
import math
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .balls_bins import DEFAULT_CELL_CAP, LOG_ZERO, _log_comb, distinct_per_row, row_bits
from .codebook import Codebook
from .errors import CapacityError, DomainError
from .params import ScalingParams

MODEL_KINDS = ("none", "erasure", "random", "adversarial")
DECODER_RULES = ("distinct_intersection", "multiplicity_count", "unique_superset")
FAILURE_CAUSES = ("none", "outage", "collision", "sequencing", "tie")

_MASK64 = (1 << 64) - 1
_KEY_MASK = (1 << 128) - 1

# score_route takes the sparse route when the dense product's cells per
# trial (inner * J) exceed this many times the inverted-index entries the
# kept reads touch; per-chunk timings put the crossover against the float32
# GEMM between ratios 640 and 2048
_SPARSE_RATIO = 1024

# cell budget of the dense route: score_route takes the sparse route when a
# chunk's B x (inner+1) occupancy arrays or the J x inner support matrix
# would hold more cells (about 200 MB of chunk arrays for multiplicity_count)
_DENSE_CELLS = 1 << 24

# cells of the B x J uint64 temporary per row block of the bits route
_BITS_BLOCK = 1 << 16

# multiply-adds per row block of the dense route's product, which OpenBLAS
# runs on the calling thread.  One product per chunk (16,384 x 64 x 64 on
# the criterion-11 shape) wakes a BLAS worker thread that sleeps between
# chunks, 0.4 ms per wake on a 2-vCPU VM, and a run's speed then hung on
# whether the worker was still awake (trials_per_s moved by up to a third
# from run to run).  Shapes whose one-row product exceeds it keep one
# product per chunk
_GEMM_MACS = 1 << 18


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

    decoded_message is None when unique_superset finds no single
    containing codeword.  guarantee_flags is (errors_ok, coverage_ok,
    separation_ok): the three sufficient conditions for the configured rule;
    when all three hold the decoder provably cannot fail.  failure_cause is
    one of FAILURE_CAUSES.  attack_cases / attack_bad_event are filled for
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

    def __init__(self, cb: Codebook):
        scaling = cb.scaling
        self.M = scaling.M
        self.N = scaling.N
        self.inner = scaling.inner_size
        self.J = len(cb)
        if self.J < 1:
            raise DomainError("cannot simulate an empty codebook")
        # J x S, S the largest support size: which support positions exist
        self.support_mask = mask = cb.support_mask
        row, col = np.nonzero(mask)
        mults = cb.mults[mask]
        # J x M tables of molecule ids and support positions, int32 below
        # 2^31 molecules (the erasure sentinel inner included)
        ids = np.int32 if self.inner < 1 << 31 else np.int64
        expanded = np.repeat(cb.molecules[mask], mults).reshape(self.J, self.M)
        self.expanded = expanded.astype(ids)
        # the support position of each expanded molecule; None when no
        # codeword repeats a molecule, as a draw's position is then its
        # sampling index (skipping the B x N gather saves about 5 % of a
        # criterion-11 chunk)
        self.positions = None
        if (cb.sizes < self.M).any():
            self.positions = np.repeat(col, mults).reshape(self.J, self.M).astype(ids)
        # J uint64 support words of the bits route
        self.support_bits = row_bits(self.expanded) if self.inner <= 64 else None
        # inverted index (CSR): the codewords holding molecule m, ascending,
        # are inv_idx[inv_ptr[m]:inv_ptr[m + 1]]; the erasure sentinel
        # m = inner holds none
        self.inv_ptr, order = cb.inverted_index
        self.nnz = order.size
        self.inv_idx = row[order]
        # weak, or the context would keep its own _CONTEXTS key alive; the
        # scan is cached on the codebook, so pool workers receive it with it
        self._cb = weakref.ref(cb)
        try:
            self.r0 = scaling.r0
        except DomainError:
            # neither J nor R0 declared: let the realized size stand in
            self.r0 = math.log(max(self.J, 2)) / (
                (scaling.alpha - 1.0) * self.M * math.log(self.M)
            )

    @property
    def cap(self) -> int:
        """Maximum pairwise intersection.  Only the unique_superset coverage
        flag and run_trial's separation flag read it, so no other run scans."""
        return self._cb().max_intersection()[0]

    @functools.cached_property
    def support_f(self) -> np.ndarray:
        """J x inner 0/1 support matrix for the dense route."""
        support = np.zeros((self.J, self.inner), dtype=np.float32)
        support[np.arange(self.J)[:, None], self.expanded] = 1.0
        return support


# one context per live codebook; a context must hold no reference to its
# codebook, or the weak key never dies and the entry is never freed
_CONTEXTS: "weakref.WeakKeyDictionary[Codebook, _Context]" = (
    weakref.WeakKeyDictionary()
)


def _context(cb: Codebook) -> _Context:
    ctx = _CONTEXTS.get(cb)
    if ctx is None:
        ctx = _Context(cb)
        _CONTEXTS[cb] = ctx
    return ctx


def score_route(
    cb: Codebook, model: SequencingErrorModel, rule: str, n_reads: int | None = None
) -> str:
    """Route of the decoder scores for cb under model and the decoder rule,
    with n_reads reads per trial (default N); it depends on no draw."""
    ctx = _context(cb)
    return _route(ctx, model, rule, ctx.N if n_reads is None else n_reads)


def _route(ctx, model, rule, n) -> str:
    """score_route on the context, with n reads per trial.

    "bits" serves the distinct-molecule rules whenever the inner codebook
    has at most 64 molecules.  Otherwise a trial keeps about n reads
    (n (1-p) under erasures), and each read touches nnz/inner
    inverted-index entries on average, against inner * J cells of the dense
    product.  "sparse" sums the index entries into int64 counts; "dense"
    multiplies by the support matrix in float32, which holds every integer
    score exactly only below 2^24 reads, so from there on the route is
    always sparse.  So is it when the dense route's arrays would exceed
    _DENSE_CELLS cells."""
    if ctx.inner <= 64 and rule != "multiplicity_count":
        return "bits"
    kept = n * (1.0 - model.p) if model.kind == "erasure" else n
    dense_cells = max(_chunk_size(ctx.J) * (ctx.inner + 1), ctx.J * ctx.inner)
    if n >= 1 << 24 or dense_cells > _DENSE_CELLS:
        return "sparse"
    index_entries = kept * ctx.nnz / ctx.inner
    return "sparse" if ctx.inner * ctx.J > _SPARSE_RATIO * index_entries else "dense"


def _scores(ctx, rule, reads, route):
    """B x J decoder scores of reads (B x N, the sentinel inner marks an
    erasure): per codeword, the distinct observed molecules it holds or,
    for multiplicity_count, the reads it holds.  Also returns the distinct
    observed count per trial for unique_superset, its only reader (None for
    the other rules).  The sparse route raises CapacityError before it
    allocates B x J scores and index entries beyond DEFAULT_CELL_CAP cells."""
    inner, J = ctx.inner, ctx.J
    B = reads.shape[0]
    rows = np.arange(B)
    sizes = None
    if route == "bits":
        # one bit per observed molecule; the mask drops the sentinel's bit
        # (at inner = 64 the sentinel is shifted out of the word already)
        observed = row_bits(reads) & np.uint64(_MASK64 >> (64 - inner))
        if rule == "unique_superset":
            sizes = np.bitwise_count(observed)
        scores = np.empty((B, J), dtype=np.uint8)
        step = max(1, _BITS_BLOCK // J)
        for r in range(0, B, step):
            block = observed[r : r + step, None] & ctx.support_bits
            np.bitwise_count(block, out=scores[r : r + step])
        return scores, sizes
    if route == "dense":
        flat = reads + (rows * (inner + 1))[:, None]
        if rule == "multiplicity_count":
            observed = np.bincount(flat.ravel(), minlength=B * (inner + 1))
        else:
            observed = np.zeros(B * (inner + 1), dtype=bool)
            observed[flat] = True
        observed = observed.reshape(B, inner + 1)[:, :inner]
        if rule == "unique_superset":
            sizes = observed.sum(axis=1)
        support_t = ctx.support_f.T
        step = _GEMM_MACS // (J * inner) or max(B, 1)
        scores = np.empty((B, J), dtype=np.float32)
        for r in range(0, B, step):
            block = observed[r : r + step].astype(np.float32)
            np.matmul(block, support_t, out=scores[r : r + step])
        return scores, sizes
    if rule == "multiplicity_count":
        mols = reads.ravel()
        owner = np.repeat(rows, reads.shape[1])
    else:
        ordered = np.sort(reads, axis=1)
        first = ordered != inner
        first[:, 1:] &= ordered[:, 1:] != ordered[:, :-1]
        if rule == "unique_superset":
            sizes = first.sum(axis=1)
        owner, col = np.nonzero(first)
        mols = ordered[owner, col]
    start = ctx.inv_ptr[mols]
    lens = ctx.inv_ptr[mols + 1] - start
    ends = np.cumsum(lens)
    total = int(ends[-1]) if ends.size else 0
    if B * J + total > DEFAULT_CELL_CAP:
        raise CapacityError(
            f"a score chunk needs {B} x {J} scores and {total} index entries, "
            f"above the cap of {DEFAULT_CELL_CAP} cells"
        )
    # each molecule's index range inv_ptr[m]:inv_ptr[m + 1], laid end to end
    entries = np.arange(total) + np.repeat(start - ends + lens, lens)
    keys = np.repeat(owner * J, lens) + ctx.inv_idx[entries]
    return np.bincount(keys, minlength=B * J).reshape(B, J), sizes


def _trials(ctx, model, dec, rng, msgs, N, route) -> dict:
    """The trial kernel: N reads of each message in msgs pass through the
    error model and the decoder, with draws taken from rng in the order the
    module docstring gives; route is score_route's pick.

    Returns per-trial arrays: decoded (-1 where unique_superset finds no
    single containing codeword), wrong, distinct, errors, tie and positions
    (trials x N, the support position of each clean draw, which _flags
    reads); the adversarial model adds cases (trials x N), pattern_i and
    bad."""
    M, inner = ctx.M, ctx.inner
    B = msgs.size

    # one gather per J x M table through the flat index of each draw; on
    # Philox and PCG64, int32 draws give the values and the stream of int64
    # draws, here and for the replacements below
    sample_idx = rng.integers(0, M, size=(B, N), dtype=np.int32)
    flat = (msgs * M)[:, None] + sample_idx
    sampled = ctx.expanded.ravel()[flat]

    # clean occupancy over the B x S support positions of the sent codewords
    if ctx.positions is None:
        positions = sample_idx
    else:
        positions = ctx.positions.ravel()[flat]
    distinct_count = distinct_per_row(positions, ctx.support_mask.shape[1])

    # the models select by arithmetic on their masks, not by branching
    cases = None
    if model.kind == "none" or model.p == 0.0:
        if model.kind == "adversarial":
            cases = np.zeros((B, N), dtype=np.int8)
        reads = sampled
        errors = np.zeros(B, dtype=np.int64)
    elif model.kind == "erasure":
        mask = rng.random((B, N)) < model.p
        # the sentinel molecule inner marks erasures; it exceeds every
        # molecule, so the maximum selects it
        reads = np.maximum(sampled, np.multiply(mask, inner, dtype=sampled.dtype))
        errors = mask.sum(axis=1)
    elif model.kind == "random":
        mask = rng.random((B, N)) < model.p
        repl = rng.integers(0, inner, size=(B, N), dtype=sampled.dtype)
        reads = sampled + (repl - sampled) * mask
        errors = (reads != sampled).sum(axis=1)
    else:
        a, b = model.attack_pair
        u = rng.random((B, N))
        from_a = u < model.p / 2.0
        from_b = (u < model.p) & ~from_a
        cases = from_a + np.int8(2) * from_b
        repl_a = ctx.expanded[a][rng.integers(0, M, size=(B, N), dtype=np.int32)]
        repl_b = ctx.expanded[b][rng.integers(0, M, size=(B, N), dtype=np.int32)]
        reads = sampled + (repl_a - sampled) * from_a + (repl_b - sampled) * from_b
        errors = (reads != sampled).sum(axis=1)

    scores, observed_sizes = _scores(ctx, dec.rule, reads, route)
    tie = np.zeros(B, dtype=bool)
    if dec.rule == "unique_superset":
        covering = scores == observed_sizes[:, None]
        n_candidates = covering.sum(axis=1)
        decoded = np.where(n_candidates == 1, np.argmax(covering, axis=1), -1)
    else:
        at_top = scores == scores.max(axis=1)[:, None]
        # the first top codeword, which untied rows decode to
        decoded = np.argmax(at_top, axis=1)
        n_top = np.count_nonzero(at_top, axis=1)
        tie = n_top > 1
        tied = np.flatnonzero(tie)
        if tied.size:
            # a uniform pick among a tied row's top codewords: the k-th of
            # them is the first column whose running count exceeds k
            k = rng.integers(0, n_top[tied])
            ranks = np.cumsum(at_top[tied], axis=1)
            decoded[tied] = np.argmax(ranks > k[:, None], axis=1)

    out = {
        "decoded": decoded,
        "wrong": decoded != msgs,
        "distinct": distinct_count,
        "errors": errors,
        "tie": tie,
        "positions": positions,
    }
    if cases is not None:
        a, b = model.attack_pair
        half = (N + 1) // 2
        pattern_i = (cases[:, :half] == 2).all(axis=1) & (cases[:, half:] == 0).all(
            axis=1
        )
        pattern_ii = (cases[:, :half] == 0).all(axis=1) & (cases[:, half:] == 1).all(
            axis=1
        )
        out["cases"] = cases
        out["pattern_i"] = pattern_i
        out["bad"] = np.where(
            msgs == a, pattern_i, np.where(msgs == b, pattern_ii, False)
        )
    return out


def _flags(ctx, dec, t, msgs, rows):
    """(errors_ok, coverage_ok), the first two guarantee flags, of the trials
    rows (an index array) of the kernel output t for messages msgs.  The
    estimator reads flags only through the cause of wrong trials, so it asks
    for those rows alone."""
    M, N = ctx.M, t["positions"].shape[1]
    errors, distinct = t["errors"][rows], t["distinct"][rows]
    eps, eta = dec.epsilon, dec.eta
    if dec.rule == "distinct_intersection":
        errors_ok = errors <= eps * M
        coverage_ok = distinct >= (ctx.r0 + 3.0 * eps) * M
    elif dec.rule == "multiplicity_count":
        errors_ok = errors < eps * eta * N
        # reads per support position of the sent codeword; the offsets are
        # int64, so the sum cannot overflow int32 positions
        S = ctx.support_mask.shape[1]
        flat0 = t["positions"][rows] + (np.arange(rows.size) * S)[:, None]
        counts0 = np.bincount(flat0.ravel(), minlength=rows.size * S)
        counts0 = counts0.reshape(rows.size, S)
        held = ctx.support_mask[msgs[rows]]
        undersampled = ((counts0 <= eta * N / M) & held).sum(axis=1)
        coverage_ok = undersampled <= (1.0 - ctx.r0 - 3.0 * eps) * M
    else:
        errors_ok = errors == 0
        coverage_ok = distinct > ctx.cap
    return errors_ok, coverage_ok


def _failure_cause(tie, errors_ok, coverage_ok):
    """FAILURE_CAUSES index of wrong trials with these tie flags and
    guarantee flags; the priority is tie > outage > sequencing > collision."""
    cause = np.full(tie.shape, 2, dtype=np.int8)
    cause[~errors_ok] = 3
    cause[~coverage_ok] = 1
    cause[tie] = 4
    return cause


def _one_trial(ctx, message, model, dec, rng, n_reads) -> TrialOutcome:
    """A batch of one through the kernel, as a TrialOutcome."""
    if n_reads < 1:
        raise DomainError("need at least one read")
    route = _route(ctx, model, dec.rule, n_reads)
    msgs = np.array([message])
    batch = _trials(ctx, model, dec, rng, msgs, n_reads, route)
    errors_ok, coverage_ok = _flags(ctx, dec, batch, msgs, np.arange(1))
    cause = _failure_cause(batch["tie"], errors_ok, coverage_ok)[0]
    t = {key: column[0] for key, column in batch.items()}
    decoded = int(t["decoded"])
    return TrialOutcome(
        success=not t["wrong"],
        true_message=int(message),
        decoded_message=None if decoded < 0 else decoded,
        distinct_sampled=int(t["distinct"]),
        sequencing_errors=int(t["errors"]),
        guarantee_flags=(
            bool(errors_ok[0]),
            bool(coverage_ok[0]),
            bool(ctx.cap < (ctx.r0 + dec.epsilon) * ctx.M),
        ),
        failure_cause=FAILURE_CAUSES[cause if t["wrong"] else 0],
        tie_broken=bool(t["tie"]),
        attack_cases=tuple(int(c) for c in t["cases"]) if "cases" in t else None,
        attack_bad_event=bool(t["bad"]) if "bad" in t else None,
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
    rng = np.random.Generator(np.random.Philox(key=int(seed) & _KEY_MASK))
    return _one_trial(ctx, message, model, dec, rng, n)


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
    rng = np.random.Generator(np.random.Philox(key=int(seed) & _KEY_MASK))
    message = (i, j)[int(rng.integers(0, 2))]
    return _one_trial(ctx, message, model, dec, rng, ctx.N if N is None else N)


def _chunk_size(J: int) -> int:
    return max(256, min(1 << 14, (1 << 22) // max(J, 1)))


def _estimate_chunk(spec):
    """Error, cause and attack tallies of one chunk of uniform-message trials."""
    cb, model, dec, master_seed, chunk_index, size, route = spec
    ctx = _context(cb)
    key = ((master_seed & _MASK64) << 64) | chunk_index
    rng = np.random.Generator(np.random.Philox(key=key))
    msgs = rng.integers(0, ctx.J, size=size)
    t = _trials(ctx, model, dec, rng, msgs, ctx.N, route)
    wrong = np.flatnonzero(t["wrong"])
    cause = _failure_cause(t["tie"][wrong], *_flags(ctx, dec, t, msgs, wrong))
    cause_counts = np.bincount(cause, minlength=len(FAILURE_CAUSES))
    cause_counts[0] = size - wrong.size
    attack = None
    if "bad" in t:
        bad = t["bad"]
        attack = (
            int(t["pattern_i"].sum()),
            int(bad.sum()),
            int((bad & t["wrong"]).sum()),
        )
    return int(wrong.size), cause_counts, attack


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
    if dec.rule == "unique_superset":
        cb.max_intersection()  # scan once; workers receive it with the codebook
    chunk = _chunk_size(ctx.J)
    route = _route(ctx, model, dec.rule, ctx.N)
    specs = []
    done = 0
    idx = 0
    while done < trials:
        size = min(chunk, trials - done)
        specs.append((cb, model, dec, master_seed, idx, size, route))
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
        hits, bad, bad_errors = (sum(col) for col in zip(*(p[2] for p in parts)))
        attack_stats = {
            "pattern_first_half_hits": hits,
            "bad_events": bad,
            "bad_event_errors": bad_errors,
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
