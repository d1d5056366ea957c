"""End-to-end trial simulation of the sampling + sequencing pipeline.

A trial samples N reads uniformly (with replacement and multiplicity) from
the stored codeword, pushes each read through a sequencing-error model, and
decodes.  Trials are pure functions of (codebook, config, seed); the
Monte-Carlo estimator splits trials into fixed-size chunks whose random
streams depend only on (master seed, chunk index), so estimates are
reproducible and independent of the worker count.  The chunks, their
generators and the worker pool come from ``balls_bins.map_chunks`` and
``balls_bins.chunk_rng``, which the distinct-count sampler uses too.

One kernel, ``_trials``, runs every trial: the estimator calls it on a chunk
of messages, and ``run_trial`` / ``adversarial_attack_trial`` call it on a
batch of one.  RNG draw order within an estimator chunk: messages, sampling
indices, the model's per-read uniforms and replacement draws, then the
tie-break: one integer per tied trial, in trial order, uniform over the
count of its top-scoring codewords (the k-th of them is decoded).  Untied
trials and unique_superset draw nothing for it.  ``run_trial`` is given its
message, so its draws start at the sampling indices;
``adversarial_attack_trial`` first draws its message coin.

The kernel draws a chunk whole up to the tie-break (int32 indices and
replacements, the bool masks or int8 cases of the model's uniforms), then
runs every later stage, the tie-break included, in row blocks of about
_BLOCK_CELLS cells; bounded draws take the stream one value at a time, so
the blocks' tie draws are those of one draw after the last block.  A chunk
thus holds 4 to 15 bytes per read of draws (and, while their masks are
made, the 8 of the float64 uniforms) plus one block of a few MB, whatever
its route.  CapacityError refuses, before they are allocated, a chunk of
more than DEFAULT_CELL_CAP reads and a sparse-route block whose scores and
index entries exceed as many cells.

``_trials`` is a driver over three stages: ``_draw`` takes the chunk's
draws, ``_decide`` decides a row block on one of the routes below (the
driver then breaks its ties), and ``_diagnose`` gives the clean occupancy,
the error count, the first two guarantee flags and the failure cause of
the rows it is asked for, from their draws alone.  The estimator asks for
its wrong trials, as it tallies the causes of those alone (about 3e-4 of
the erasure headline's trials), and the single-trial functions for their
one trial.  The codebook's separation scan, ``Codebook.max_intersection``,
is read only by the unique_superset coverage flag and the single-trial
separation flag, so no other run scans; the context holds no codebook.

The decision takes one of three routes, which ``score_route`` picks from the
shape, the model and the rule alone.  Up to 64 codewords, the cover route
decides without scores where the top codewords are those whose support
covers the observed molecules: under the none and erasure models (every
kept read comes from the sent codeword, whose score is thus the largest
under every rule, and a codeword ties it iff it covers them) and for
unique_superset under every model (its decision is that cover set).  A
trial's cover word is the AND of one uint64 word per read, bit j set when
codeword j holds the read's molecule (every bit for an erasure); its
popcount is the top count, and its lowest set bit the first top codeword.
Under none and erasure every read is a draw from the sent codeword, so a
trial gathers its reads' words straight from ``_Context.cover_words``
through the flat index of each draw, an erased read ORed to the identity.

Otherwise decoder scores (per trial and codeword, the distinct observed
molecules the codeword holds, or its reads for multiplicity_count) take one
of two routes.  The dense route multiplies the B x inner observed occupancy
by the J x inner support matrix in float32, one product per row block, and
the sparse route, taken when a trial's reads and index entries are far
fewer than the product's cells, looks each observed molecule up in an
inverted index from molecule to codewords and adds the hits with one
bincount.  Both are exact: scores are integers no larger than N, and
float32 holds every integer below 2^24 (from 2^24 reads on, score_route
never picks the dense route).  The route changes no output and no draw,
only time and memory.
"""

from __future__ import annotations

import ctypes
import functools
import math
import time
from dataclasses import asdict, dataclass
from weakref import WeakKeyDictionary

import numpy as np

from .balls_bins import _BLOCK_CELLS, _MASK64, DEFAULT_CELL_CAP, LOG_ZERO, _log_comb
from .balls_bins import chunk_rng, distinct_per_row, map_chunks
from .codebook import Codebook
from .errors import CapacityError, DomainError
from .params import ScalingParams

MODEL_KINDS = ("none", "erasure", "random", "adversarial")
DECODER_RULES = ("distinct_intersection", "multiplicity_count", "unique_superset")
FAILURE_CAUSES = ("none", "outage", "collision", "sequencing", "tie")

_KEY_MASK = (1 << 128) - 1

# score_route goes sparse when inner * J exceeds this many _sparse_cells, the
# crossover of forced routes on one BLAS thread for every rule (CHANGES.md)
_SPARSE_RATIO = 256

# cells of the J x inner float32 support matrix above which score_route goes
# sparse whatever the ratio: at 2^25 dense ran up to 2.3x slower (CHANGES.md)
_DENSE_CELLS = 1 << 24


def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


_BLAS_THREADS = _blas_threads()


def _on_one_blas_thread(kernel):
    """kernel, run with OpenBLAS on the calling thread, so that no product
    wakes a sleeping BLAS thread or competes with pool workers for cores;
    the caller's count is restored after.  Unchanged if _BLAS_THREADS is None."""
    @functools.wraps(kernel)
    def pinned(*args, **kwargs):
        if _BLAS_THREADS is None:
            return kernel(*args, **kwargs)
        threads = _BLAS_THREADS[0]()
        _BLAS_THREADS[1](1)
        try:
            return kernel(*args, **kwargs)
        finally:
            _BLAS_THREADS[1](threads)

    return pinned


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
            if self.attack_pair is None or len(self.attack_pair) != 2:
                raise DomainError("adversarial model needs an attack_pair of two")
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
        if not 0 <= self.epsilon < math.inf:
            raise DomainError(f"epsilon must be finite and non-negative: {self.epsilon}")
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
        fields = asdict(self)
        del fields["wall_time_s"]
        return fields


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
        # J x M tables of molecule ids and of their support positions,
        # int32 below 2^31 molecules (the erasure sentinel inner included)
        ids = np.int32 if self.inner < 1 << 31 else np.int64
        expanded = np.repeat(cb.molecules[mask], mults).reshape(self.J, self.M)
        self.expanded = expanded.astype(ids)
        self.positions = np.repeat(col, mults).reshape(self.J, self.M).astype(ids)
        # inverted index (CSR): the codewords holding molecule m, ascending,
        # are inv_idx[inv_ptr[m]:inv_ptr[m + 1]]; the erasure sentinel
        # m = inner holds none
        self.inv_ptr, order = cb.inverted_index
        self.nnz = order.size
        self.inv_idx = row[order]
        try:
            self.r0 = scaling.r0
        except DomainError:
            # neither J nor R0 declared: let the realized size stand in
            self.r0 = math.log(max(self.J, 2)) / (
                (scaling.alpha - 1.0) * self.M * math.log(self.M)
            )

    @functools.cached_property
    def support_f(self) -> np.ndarray:
        """J x inner 0/1 support matrix for the dense route."""
        support = np.zeros((self.J, self.inner), dtype=np.float32)
        support[np.arange(self.J)[:, None], self.expanded] = 1.0
        return support

    @functools.cached_property
    def cover_bits(self) -> np.ndarray:
        """inner + 1 uint64 words of the cover route (J <= 64): bit j of word
        m is set when codeword j holds molecule m.  The erasure sentinel
        inner holds every codeword, the identity of the AND."""
        cover = np.zeros(self.inner + 1, dtype=np.uint64)
        bits = np.left_shift(np.uint64(1), np.arange(self.J, dtype=np.uint64))
        np.bitwise_or.at(cover, self.expanded, bits[:, None])
        cover[self.inner] = _MASK64 >> (64 - self.J)
        return cover

    @functools.cached_property
    def cover_words(self) -> np.ndarray:
        """J x M uint64 cover_bits of each codeword's molecules (J <= 64)."""
        return self.cover_bits[self.expanded]


# one context per live codebook; a context must hold no reference to its
# codebook, or the weak key never dies and the entry is never freed
_CONTEXTS: "WeakKeyDictionary[Codebook, _Context]" = WeakKeyDictionary()


def _context(cb: Codebook) -> _Context:
    ctx = _CONTEXTS.get(cb)
    if ctx is None:
        ctx = _Context(cb)
        _CONTEXTS[cb] = ctx
    return ctx


def score_route(
    cb: Codebook, model: SequencingErrorModel, rule: str, n_reads: int | None = None
) -> str:
    """Route of the decision for cb under model and the decoder rule, with
    n_reads reads per trial (default N): "cover", "dense" or "sparse", as
    _route gives; it depends on no draw."""
    ctx = _context(cb)
    return _route(ctx, model, rule, ctx.N if n_reads is None else n_reads)


def _route(ctx, model, rule, n) -> str:
    """score_route on the context, with n reads per trial.

    "cover" decides by cover words, without scores, up to 64 codewords
    under the none and erasure models (p = 0 counts as none, as in
    _trials) and for unique_superset under every model.  Otherwise "dense"
    multiplies by the J x inner support matrix in float32, exact only below
    2^24 reads, so from there on, or past _DENSE_CELLS cells, the route is
    "sparse"; so is it when inner * J > _SPARSE_RATIO * _sparse_cells."""
    kind = "none" if model.p == 0.0 else model.kind
    if ctx.J <= 64 and (kind in ("none", "erasure") or rule == "unique_superset"):
        return "cover"
    if n >= 1 << 24 or ctx.J * ctx.inner > _DENSE_CELLS:
        return "sparse"
    cells = _sparse_cells(ctx, model, rule, n)
    return "sparse" if ctx.inner * ctx.J > _SPARSE_RATIO * cells else "dense"


def _scores(ctx, rule, reads, route):
    """B x J decoder scores of reads (B x N, the sentinel inner marks an
    erasure): per codeword, the distinct observed molecules it holds or,
    for multiplicity_count, the reads it holds.  Also returns the distinct
    observed count per trial for unique_superset, its only reader (None for
    the other rules).  The sparse route raises CapacityError, before it lays
    out its index entries, when they and the scores exceed DEFAULT_CELL_CAP."""
    inner, J = ctx.inner, ctx.J
    B = reads.shape[0]
    if route == "dense":
        flat = reads + (np.arange(B) * (inner + 1))[:, None]
        if rule == "multiplicity_count":
            observed = np.bincount(flat.ravel(), minlength=B * (inner + 1))
        else:
            observed = np.zeros(B * (inner + 1), dtype=bool)
            observed[flat] = True
        observed = observed.reshape(B, inner + 1)[:, :inner]
        sizes = observed.sum(axis=1) if rule == "unique_superset" else None
        return np.matmul(observed.astype(np.float32), ctx.support_f.T), sizes
    # the sparse route: the index range inv_ptr[m]:inv_ptr[m + 1] of each
    # read (multiplicity_count) or distinct observed molecule, and its row
    sizes = None
    if rule == "multiplicity_count":
        mols = reads.ravel()
        owner = np.repeat(np.arange(B), reads.shape[1])
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
            f"a score block needs {B} x {J} scores and {total} index entries, "
            f"above the cap of {DEFAULT_CELL_CAP} cells"
        )
    # the ranges laid end to end
    entries = np.arange(total) + np.repeat(start - ends + lens, lens)
    keys = np.repeat(owner * J, lens) + ctx.inv_idx[entries]
    return np.bincount(keys, minlength=B * J).reshape(B, J), sizes


def _sparse_cells(ctx, model, rule, n) -> float:
    """A trial's mean cells on the sparse route: n reads, and nnz/inner index
    entries per lookup of a kept read (multiplicity_count) or of a distinct
    molecule, M (1 - e^(-c/M)) of the c = n (1-p) clean reads plus the replaced."""
    clean = n * (1.0 - model.p)
    replaced = 0.0 if model.kind == "erasure" else n * model.p
    lookups = clean if rule == "multiplicity_count" else -ctx.M * math.expm1(-clean / ctx.M)
    return n + (lookups + replaced) * ctx.nnz / ctx.inner


def _block_rows(ctx, model, rule, route, n) -> int:
    """Trials per row block of the kernel's stages: those of _BLOCK_CELLS
    cells, a trial counting its n reads, its J scores and, on the sparse
    route, its _sparse_cells or, on the dense route, its inner + 1 occupancy
    cells, whichever is most.  A codebook whose molecules are shared
    unevenly touches more entries than expected (500 codewords sharing 56 of
    64 molecules peak at about 55 MB); only the cap in _scores bounds such a
    block."""
    cells = max(n, ctx.J, ctx.inner + 1 if route == "dense" else 0)
    if route == "sparse":
        cells = max(cells, _sparse_cells(ctx, model, rule, n))
    return max(1, int(_BLOCK_CELLS // cells))


def _draw(ctx, model, rng, msgs, N) -> dict:
    """The draws of N reads of each message in msgs, taken from rng in the
    order the module docstring gives; refused with CapacityError before the
    first draw when they number more than DEFAULT_CELL_CAP.  Besides the
    messages "msgs", each is trials x N: "idx", the sampling indices, then
    the model's ("kind" is "none" at p = 0): the mask "mask", with "repl"
    for random, or the attack's masks "from_a" and "from_b" and indices
    "idx_a" and "idx_b" into "targets", and "cases" (0 clean, 1 or 2 from
    either target) for any attack."""
    M, B = ctx.M, msgs.size
    kind = "none" if model.p == 0.0 else model.kind
    if B * N > DEFAULT_CELL_CAP:
        raise CapacityError(
            f"{B} trials of {N} reads need {B * N} draws, above the cap of "
            f"{DEFAULT_CELL_CAP}; fewer reads, or fewer trials than one chunk, "
            "get under it"
        )
    # on Philox and PCG64, int32 draws give the values and the stream of
    # int64 draws, here and for the replacements below
    draws = {"kind": kind, "msgs": msgs}
    draws["idx"] = rng.integers(0, M, size=(B, N), dtype=np.int32)
    if kind in ("erasure", "random"):
        draws["mask"] = rng.random((B, N)) < model.p
    if kind == "random":
        ids = ctx.expanded.dtype
        draws["repl"] = rng.integers(0, ctx.inner, size=(B, N), dtype=ids)
    elif kind == "adversarial":
        u = rng.random((B, N))
        from_a = u < model.p / 2.0
        from_b = (u < model.p) & ~from_a
        del u
        draws.update(from_a=from_a, from_b=from_b, cases=from_a + np.int8(2) * from_b)
        draws["idx_a"] = rng.integers(0, M, size=(B, N), dtype=np.int32)
        draws["idx_b"] = rng.integers(0, M, size=(B, N), dtype=np.int32)
        draws["targets"] = [ctx.expanded[i] for i in model.attack_pair]
    elif model.kind == "adversarial":
        draws["cases"] = np.zeros((B, N), dtype=np.int8)
    return draws


def _flat(ctx, draws, rows):
    """Each draw's index into the J x M tables, for the trials rows."""
    return (draws["msgs"][rows] * ctx.M)[:, None] + draws["idx"][rows]


def _reads(ctx, draws, rows):
    """(sampled, reads) of the trials rows: the molecule of each draw, and
    the read the model makes of it, the sentinel inner for an erasure.  The
    models select by arithmetic on their masks, not by branching."""
    sampled = ctx.expanded.ravel()[_flat(ctx, draws, rows)]
    kind = draws["kind"]
    if kind == "none":
        return sampled, sampled
    if kind == "erasure":
        # the sentinel exceeds every molecule, so the maximum selects it
        erased = np.multiply(draws["mask"][rows], ctx.inner, dtype=sampled.dtype)
        return sampled, np.maximum(sampled, erased)
    if kind == "random":
        replaced = draws["mask"][rows]
        return sampled, sampled + (draws["repl"][rows] - sampled) * replaced
    target_a, target_b = draws["targets"]
    reads = sampled + (target_a[draws["idx_a"][rows]] - sampled) * draws["from_a"][rows]
    reads += (target_b[draws["idx_b"][rows]] - sampled) * draws["from_b"][rows]
    return sampled, reads


def _decide(ctx, route, rule, draws, rows):
    """(n_top, first, top) of the trials rows (a slice) decided on route:
    the count of top codewords (for unique_superset those holding every
    observed molecule), the first of them, and the set a tie-break picks
    from: the cover word of each row on the cover route (module docstring),
    else the rows x J at_top matrix of the scores."""
    if route == "cover" and draws["kind"] in ("none", "erasure"):
        # each draw's cover word; an erased read's is the identity
        words = ctx.cover_words.ravel()[_flat(ctx, draws, rows)]
        if draws["kind"] == "erasure":
            erased = draws["mask"][rows]
            words |= np.multiply(erased, ctx.cover_bits[ctx.inner], dtype=np.uint64)
        top = np.bitwise_and.reduce(words, axis=1)
    else:
        reads = _reads(ctx, draws, rows)[1]
        if route == "cover":
            top = np.bitwise_and.reduce(ctx.cover_bits[reads], axis=1)
    if route == "cover":
        # the lowest set bit is the count of the bits below it
        first = np.bitwise_count((top & -top) - np.uint64(1)).astype(np.intp)
        return np.bitwise_count(top), first, top
    scores, observed_sizes = _scores(ctx, rule, reads, route)
    if rule == "unique_superset":
        top = scores == observed_sizes[:, None]
    else:
        # scores are never NaN, and fmax reduces faster than max
        top = scores == np.fmax.reduce(scores, axis=1)[:, None]
    return np.count_nonzero(top, axis=1), np.argmax(top, axis=1), top


def _diagnose(ctx, cb, dec, draws, rows, wrong, tie) -> dict:
    """Diagnostics of the trials rows (an index array), each an array over
    rows: "distinct" (the clean occupancy: distinct support positions
    drawn), "errors" (reads the model changed), "errors_ok" and
    "coverage_ok" (the first two guarantee flags) and "cause" (a
    FAILURE_CAUSES index: "none" for a right trial, else by the priority tie
    > outage > sequencing > collision).  A row's values depend on its own
    draws alone, so any rows give the all-rows values at those rows.  Only
    the unique_superset coverage flag reads the separation scan, so no
    other rule scans."""
    M, N = ctx.M, draws["idx"].shape[1]
    S = ctx.support_mask.shape[1]
    positions = ctx.positions.ravel()[_flat(ctx, draws, rows)]
    sampled, reads = _reads(ctx, draws, rows)
    errors = (reads != sampled).sum(axis=1)
    distinct = distinct_per_row(positions, S)
    eps, eta = dec.epsilon, dec.eta
    if dec.rule == "distinct_intersection":
        errors_ok = errors <= eps * M
        coverage_ok = distinct >= (ctx.r0 + 3.0 * eps) * M
    elif dec.rule == "multiplicity_count":
        errors_ok = errors < eps * eta * N
        # reads per support position of the sent codeword; the offsets are
        # int64, so the sum cannot overflow int32 positions
        flat0 = positions + (np.arange(rows.size) * S)[:, None]
        counts0 = np.bincount(flat0.ravel(), minlength=rows.size * S)
        counts0 = counts0.reshape(rows.size, S)
        held = ctx.support_mask[draws["msgs"][rows]]
        undersampled = ((counts0 <= eta * N / M) & held).sum(axis=1)
        coverage_ok = undersampled <= (1.0 - ctx.r0 - 3.0 * eps) * M
    else:
        errors_ok = errors == 0
        coverage_ok = distinct > cb.max_intersection()[0]
    cause = np.full(rows.size, 2, dtype=np.int8)
    cause[~errors_ok] = 3
    cause[~coverage_ok] = 1
    cause[tie[rows]] = 4
    cause[~wrong[rows]] = 0
    return {
        "distinct": distinct,
        "errors": errors,
        "errors_ok": errors_ok,
        "coverage_ok": coverage_ok,
        "cause": cause,
    }


@_on_one_blas_thread
def _trials(cb, model, dec, rng, msgs, N, route, rows=None) -> dict:
    """The trial kernel: N reads of each message in msgs pass through the
    error model and the decoder on cb, route being score_route's pick.
    _decide runs in row blocks of _block_rows trials, each followed by its
    tie-break draw, a uniform pick among a tied row's top codewords; a
    forced score route runs its own code.  _diagnose then reads the trials
    rows (an index array, or the wrong ones if rows is None), as many a block.

    Returns per-trial arrays decoded (-1 where unique_superset finds no
    single containing codeword), wrong and tie; rows and _diagnose's arrays
    over them; for the adversarial model cases (trials x N), pattern_i and
    bad."""
    ctx = _context(cb)
    draws = _draw(ctx, model, rng, msgs, N)
    B = msgs.size
    decoded = np.empty(B, dtype=np.intp)
    tie = np.zeros(B, dtype=bool)
    step = _block_rows(ctx, model, dec.rule, route, N) if B > 1 else B
    for r in range(0, B, step):
        blk = slice(r, r + step)
        n_top, first, top = _decide(ctx, route, dec.rule, draws, blk)
        if dec.rule == "unique_superset":
            first[n_top != 1] = -1
        else:
            tie[blk] = n_top > 1
            tied = np.flatnonzero(tie[blk])
            if tied.size:
                # the k-th of a tied row's top codewords is the first column
                # whose running count exceeds k
                k = rng.integers(0, n_top[tied])
                top = top[tied]
                if route == "cover":
                    top = top.astype("<u8").view(np.uint8).reshape(-1, 8)
                    top = np.unpackbits(top, axis=1, bitorder="little")
                first[tied] = np.argmax(np.cumsum(top, axis=1) > k[:, None], axis=1)
        decoded[blk] = first
    wrong = decoded != msgs
    rows = np.flatnonzero(wrong) if rows is None else rows
    parts = [
        _diagnose(ctx, cb, dec, draws, rows[i : i + step], wrong, tie)
        for i in range(0, max(rows.size, 1), step)
    ]
    out = {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
    out.update(decoded=decoded, wrong=wrong, tie=tie, rows=rows)
    if "cases" in draws:
        a, b = model.attack_pair
        head, tail = np.split(draws["cases"], [(N + 1) // 2], axis=1)
        pattern_i = (head == 2).all(axis=1) & (tail == 0).all(axis=1)
        pattern_ii = (head == 0).all(axis=1) & (tail == 1).all(axis=1)
        out["cases"] = draws["cases"]
        out["pattern_i"] = pattern_i
        out["bad"] = np.where(msgs == a, pattern_i, (msgs == b) & pattern_ii)
    return out


def _one_trial(cb, message, model, dec, rng, n_reads) -> TrialOutcome:
    """A batch of one through the kernel on cb, as a TrialOutcome."""
    if n_reads < 1:
        raise DomainError("need at least one read")
    ctx = _context(cb)
    route = _route(ctx, model, dec.rule, n_reads)
    msgs, rows = np.array([message]), np.arange(1)
    batch = _trials(cb, model, dec, rng, msgs, n_reads, route, rows)
    t = {key: column[0] for key, column in batch.items()}
    decoded = int(t["decoded"])
    return TrialOutcome(
        success=not t["wrong"],
        true_message=int(message),
        decoded_message=None if decoded < 0 else decoded,
        distinct_sampled=int(t["distinct"]),
        sequencing_errors=int(t["errors"]),
        guarantee_flags=(
            bool(t["errors_ok"]),
            bool(t["coverage_ok"]),
            bool(cb.max_intersection()[0] < (ctx.r0 + dec.epsilon) * ctx.M),
        ),
        failure_cause=FAILURE_CAUSES[t["cause"]],
        tie_broken=bool(t["tie"]),
        attack_cases=tuple(int(c) for c in t["cases"]) if "cases" in t else None,
        attack_bad_event=bool(t["bad"]) if "bad" in t else None,
    )


def _check_attack_pair(model: SequencingErrorModel, J: int) -> None:
    if model.kind == "adversarial" and not all(0 <= m < J for m in model.attack_pair):
        raise DomainError("attack_pair out of range")


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
    _check_attack_pair(model, ctx.J)
    n = ctx.N if n_reads is None else n_reads
    rng = np.random.Generator(np.random.Philox(key=int(seed) & _KEY_MASK))
    return _one_trial(cb, message, model, dec, rng, n)


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
    return _one_trial(cb, message, model, dec, rng, ctx.N if N is None else N)


def _chunk_size(J: int) -> int:
    return max(256, min(1 << 14, (1 << 22) // max(J, 1)))


def _estimate_chunk(spec):
    """Error, cause and attack tallies of one chunk of uniform-message trials."""
    cb, model, dec, route, master_seed, chunk_index, size = spec
    ctx = _context(cb)
    rng = chunk_rng(master_seed, chunk_index)
    msgs = rng.integers(0, ctx.J, size=size)
    # the kernel diagnoses the wrong trials, whose causes are tallied
    t = _trials(cb, model, dec, rng, msgs, ctx.N, route)
    errors = int(np.count_nonzero(t["wrong"]))
    cause_counts = np.bincount(t["cause"], minlength=len(FAILURE_CAUSES))
    cause_counts[0] = size - errors
    attack = None
    if "bad" in t:
        bad = t["bad"]
        attack = int(t["pattern_i"].sum()), int(bad.sum()), int((bad & t["wrong"]).sum())
    return errors, cause_counts, attack


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
    ctx = _context(cb)
    _check_attack_pair(model, ctx.J)
    start = time.perf_counter()
    if dec.rule == "unique_superset":
        cb.max_intersection()  # scan once; workers receive it with the codebook
    route = _route(ctx, model, dec.rule, ctx.N)
    head = (cb, model, dec, route, master_seed)
    parts = map_chunks(_estimate_chunk, head, trials, _chunk_size(ctx.J), workers)
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
        failure_causes=dict(zip(FAILURE_CAUSES, map(int, cause_counts))),
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
