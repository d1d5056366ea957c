"""Outer-codebook constructions, exact pairwise separation analysis, and
evaluators for the intersection bounds that govern low-rate error behavior.

Molecules are abstract integer identifiers in [0, inner_size); a codeword is
a multiset of M of them.  A Codebook stores its J codewords as arrays: row j
of the J x S int64 arrays ``molecules`` and ``mults`` holds codeword j's
pairs, molecules increasing, in its first ``sizes[j]`` columns, padded with
-1 and 0.  Construction, file input and output, validation and the
separation scan (sum_m deg(m)^2 pair updates over the inverted index from
molecules to codewords, in bounded row blocks, instead of J^2 M or J^2
inner) work on the arrays; ``Codeword`` objects are built only on request.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ._files import atomic_open, load_json
from .balls_bins import DEFAULT_CELL_CAP, _half_up
from .errors import CapacityError, DomainError, ShortfallError
from .params import ScalingParams

CODEBOOK_FORMAT_VERSION = 1

# guards float noise when a bound lands exactly on an integer
_ROUND_GUARD = 1e-9

# cells per block of the separation scan: its rows x J counts and updates
_SCAN_CELLS = 1 << 19


@dataclass(frozen=True)
class Codeword:
    """A size-M multiset of molecule identifiers in canonical form:
    pairs (molecule, multiplicity) sorted by molecule."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = -1
        for mol, mult in self.pairs:
            if mol <= prev:
                raise DomainError("molecules must be strictly increasing")
            if mult < 1:
                raise DomainError("multiplicities must be positive")
            prev = mol

    @classmethod
    def from_molecules(cls, molecules) -> "Codeword":
        counts = Counter(int(m) for m in molecules)
        return cls(tuple(sorted(counts.items())))

    @property
    def size(self) -> int:
        return sum(mult for _, mult in self.pairs)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(mol for mol, _ in self.pairs)

    def expand(self) -> np.ndarray:
        """All molecules with multiplicity, as a flat array."""
        return np.repeat(
            [mol for mol, _ in self.pairs], [mult for _, mult in self.pairs]
        )

    def intersection_size(self, other: "Codeword") -> int:
        """Multiset intersection: sum over molecules of min multiplicity."""
        return sum((Counter(dict(self.pairs)) & Counter(dict(other.pairs))).values())


def _arrays(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stored (molecules, mults, sizes) of codewords given as sequences
    of (molecule, multiplicity) pairs."""
    sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(rows)), dtype=np.int64)
    if flat.size != 2 * sizes.sum():
        raise DomainError("codeword pairs must be [molecule, multiplicity]")
    mask = np.arange(sizes.max(initial=0)) < sizes[:, None]
    molecules, mults = np.full(mask.shape, -1), np.zeros(mask.shape, dtype=np.int64)
    molecules[mask], mults[mask] = flat.reshape(-1, 2).T
    return molecules, mults, sizes


@dataclass(init=False, eq=False)
class Codebook:
    """An ordered collection of codewords plus its scaling metadata.

    index_based marks codebooks that take exactly one molecule from each of
    M equal contiguous groups of the inner codebook (group g covers
    [g*group_size, (g+1)*group_size)).  Treated as immutable once built.
    Built from Codeword objects, or from the stored arrays (molecules=,
    mults=, sizes=), as dataclasses.replace does.
    """

    scaling: ScalingParams
    index_based: bool
    group_size: int | None
    validate_distinct: bool
    molecules: np.ndarray = field(repr=False)
    mults: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)
    _max_intersection: tuple[int, tuple[int, int]] | None = field(repr=False)

    def __init__(self, scaling: ScalingParams, codewords=None, index_based=False,
                 group_size=None, validate_distinct=True, _max_intersection=None,
                 *, molecules=None, mults=None, sizes=None):
        if codewords is not None:
            codewords = tuple(codewords)
            molecules, mults, sizes = _arrays([cw.pairs for cw in codewords])
        self.scaling, self.index_based, self.group_size = scaling, index_based, group_size
        self.validate_distinct, self._max_intersection = validate_distinct, _max_intersection
        self.molecules, self.mults, self.sizes = molecules, mults, sizes
        self._codewords = codewords
        # J x S: the columns of each row that hold a pair
        self.support_mask = mask = np.arange(molecules.shape[1]) < sizes[:, None]
        M, inner = scaling.M, scaling.inner_size
        if (mults[mask] < 1).any():
            raise DomainError("multiplicities must be positive")
        if ((np.diff(molecules, axis=1) <= 0) & mask[:, 1:]).any():
            raise DomainError("molecules must be strictly increasing")
        row_sizes = (mults * mask).sum(axis=1)
        if (row_sizes != M).any():
            raise DomainError(f"codeword size {row_sizes[row_sizes != M][0]} != M = {M}")
        if mask.any() and (molecules[mask].min() < 0 or molecules.max() >= inner):
            raise DomainError("molecule identifier out of range")
        if index_based:
            if group_size is None or group_size * M != inner:
                raise DomainError("index-based codebooks need group_size = inner/M")
            # rows of M pairs: all multiplicities 1 and no padding
            if (mults != 1).any():
                raise DomainError("index-based codewords must hold M distinct molecules")
            off = np.argwhere(molecules // group_size != np.arange(M))
            if off.size:
                j, g = off[0]
                raise DomainError(
                    f"molecule {molecules[j, g]} is not in group {g} "
                    f"(group_size {group_size})"
                )
        rows = np.concatenate([molecules, mults], axis=1)
        if validate_distinct and len(np.unique(rows, axis=0)) != len(rows):
            raise DomainError("codewords must be distinct")

    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def codewords(self) -> tuple[Codeword, ...]:
        """The codewords as Codeword objects, built on first use."""
        if self._codewords is None:
            self._codewords = tuple(Codeword(tuple(zip(*row))) for row in self._rows())
        return self._codewords

    def _rows(self) -> list[tuple[list[int], list[int]]]:
        """Each codeword's molecules and multiplicities, as lists of ints."""
        arrays = self.molecules.tolist(), self.mults.tolist(), self.sizes.tolist()
        return [(m[:s], u[:s]) for m, u, s in zip(*arrays)]

    @functools.cached_property
    def inverted_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(ptr, order): the pairs order[ptr[m]:ptr[m + 1]] of molecules[
        support_mask] hold molecule m, in codeword order; the erasure
        sentinel m = inner_size holds none."""
        if self.scaling.inner_size + 2 > DEFAULT_CELL_CAP:
            raise CapacityError(
                f"an index over {self.scaling.inner_size} molecules is above the "
                f"cap of {DEFAULT_CELL_CAP} cells"
            )
        mols = self.molecules[self.support_mask]
        ptr = np.zeros(self.scaling.inner_size + 2, dtype=np.int64)
        np.cumsum(np.bincount(mols, minlength=self.scaling.inner_size + 1), out=ptr[1:])
        return ptr, np.argsort(mols, kind="stable")

    def max_intersection(self) -> tuple[int, tuple[int, int]]:
        """Cached exact maximum pairwise intersection; 0 for size < 2."""
        if self._max_intersection is None:
            if len(self) < 2:
                self._max_intersection = (0, (0, 0))
            else:
                self._max_intersection = max_pairwise_intersection(self)
        return self._max_intersection


def max_pairwise_intersection(cb: Codebook) -> tuple[int, tuple[int, int]]:
    """Exact max multiset intersection over all unordered codeword pairs,
    with the lexicographically smallest attaining pair.

    Codewords i < j that share molecule m add min(mult_i, mult_j), one
    update per pair in m's inverted-index list.  Row blocks whose counts
    against all J codewords and updates fit in about _SCAN_CELLS cells take
    one weighted bincount each.  The best pair changes only on a strictly
    larger row maximum, at its smallest j; the scan stops at M.
    """
    J = len(cb)
    if J < 2:
        raise DomainError("need at least 2 codewords")
    row, mults = np.nonzero(cb.support_mask)[0], cb.mults[cb.support_mask]
    ptr, order = cb.inverted_index
    rank = np.empty_like(order)  # each pair's place in the index
    rank[order] = np.arange(order.size)
    # per pair: the later codewords holding its molecule, next in its list
    later = ptr[cb.molecules[cb.support_mask] + 1] - rank - 1
    cost = np.cumsum(np.bincount(row, later, minlength=J) + J)
    cuts = np.searchsorted(cost, np.arange(0, cost[-1], _SCAN_CELLS), "right")
    edges = np.unique(np.append(cuts, J)).tolist()
    first = np.concatenate(([0], np.cumsum(cb.sizes)))
    best, pair = -1, (0, 1)
    for i0, i1 in zip(edges[:-1], edges[1:]):
        a, b = first[i0], first[i1]
        lens = later[a:b]
        ends = np.cumsum(lens)
        # the later entries rank+1 .. rank+lens of each pair, end to end
        partner = order[np.arange(ends[-1]) + np.repeat(rank[a:b] + 1 - ends + lens, lens)]
        keys = np.repeat((row[a:b] - i0) * J, lens) + row[partner]
        weight = np.minimum(np.repeat(mults[a:b], lens), mults[partner])
        counts = np.bincount(keys, weight, minlength=(i1 - i0) * J).reshape(-1, J)
        counts[np.arange(J) <= np.arange(i0, i1)[:, None]] = -1  # only j > i count
        top = counts.max(axis=1)
        k = int(np.argmax(top))
        if top[k] > best:
            best, pair = int(top[k]), (i0 + k, int(np.argmax(counts[k])))
            if best == cb.scaling.M:
                break
    return best, pair


def greedy_index_codebook(
    scaling: ScalingParams,
    intersection_cap: int,
    target_J: int,
    seed: int,
    attempt_budget: int,
) -> Codebook:
    """Randomized-greedy index-based construction: sample candidate codewords
    (one uniform molecule per group) and reject any whose intersection with
    an accepted codeword exceeds intersection_cap.

    Duplicates of accepted codewords are always rejected, so the effective
    cap is min(intersection_cap, M-1).  Raises ShortfallError carrying the
    partial codebook if the budget runs out first.
    """
    M, inner = scaling.M, scaling.inner_size
    if inner % M != 0:
        raise DomainError(
            f"inner_size {inner} is not divisible into {M} equal groups"
        )
    if intersection_cap < 0:
        raise DomainError("intersection_cap must be non-negative")
    if target_J < 1:
        raise DomainError("target_J must be positive")
    if attempt_budget < target_J:
        raise DomainError("attempt_budget must be at least target_J")
    if not 0 <= seed < 1 << 128:
        raise DomainError(f"seed must lie in [0, 2**128): {seed}")
    # the codewords, and the inverted index over inner that every reader builds
    if max(target_J * M, inner + 2) > DEFAULT_CELL_CAP:
        raise CapacityError(
            f"{target_J} codewords of {M} molecules out of {inner} are above the "
            f"cap of {DEFAULT_CELL_CAP} cells"
        )
    group_size = inner // M
    offsets = np.arange(M, dtype=np.int64) * group_size
    effective_cap = min(intersection_cap, M - 1)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    chosen = np.empty((target_J, M), dtype=np.int64)
    n = 0
    for _ in range(attempt_budget):
        cand = offsets + rng.integers(0, group_size, size=M)
        if n and (chosen[:n] == cand).sum(axis=1).max() > effective_cap:
            continue
        chosen[n] = cand
        n += 1
        if n == target_J:
            break
    cb = Codebook(
        scaling,
        index_based=True,
        group_size=group_size,
        molecules=chosen[:n],
        mults=np.ones((n, M), dtype=np.int64),
        sizes=np.full(n, M, dtype=np.int64),
    )
    if n < target_J:
        raise ShortfallError(
            f"greedy construction reached {n} of {target_J} codewords within "
            f"{attempt_budget} attempts",
            achieved=n,
            target=target_J,
            partial=cb,
        )
    return cb


def repetition_codebook(
    scaling: ScalingParams,
    t: float,
    target_J: int,
    seed: int = 0,
    attempt_budget: int | None = None,
    intersection_cap: int | None = None,
) -> Codebook:
    """Multiset construction for the very-low-rate regime: pick M' = round(M^t)
    distinct molecules via the greedy index construction on the reduced
    parameters (M', alpha' = alpha/t), then repeat them to total size M.

    Multiplicities are floor(M/M') each, with the remainder added one at a
    time starting from the lowest molecule identifier.
    """
    if not 0.0 < t < 1.0:
        raise DomainError("t must lie in (0, 1)")
    M, inner = scaling.M, scaling.inner_size
    m_prime = max(1, _half_up(M**t))
    if m_prime < 2:
        raise DomainError("repetition support needs at least 2 distinct molecules")
    if inner % m_prime != 0:
        raise DomainError(
            f"inner_size {inner} is not divisible into {m_prime} equal groups"
        )
    reduced = ScalingParams(
        M=m_prime,
        inner_size=inner,
        N=scaling.N,
        J=target_J,
        p_seq=scaling.p_seq,
    )
    if intersection_cap is None:
        intersection_cap = min(
            m_prime,
            k1_upper_bound(
                m_prime, max(target_J, 2), reduced.alpha, 1.0 / math.log(m_prime)
            ),
        )
    if attempt_budget is None:
        attempt_budget = max(100 * target_J, 10_000)

    def expand_support(support_cb: Codebook) -> Codebook:
        base, rem = divmod(M, m_prime)
        mults = base + (np.arange(m_prime) < rem)
        return Codebook(
            scaling,
            index_based=m_prime == M,
            group_size=inner // M if m_prime == M else None,
            molecules=support_cb.molecules,
            mults=np.tile(mults, (len(support_cb), 1)),
            sizes=support_cb.sizes,
        )

    try:
        support_cb = greedy_index_codebook(
            reduced, intersection_cap, target_J, seed, attempt_budget
        )
    except ShortfallError as exc:
        raise ShortfallError(
            str(exc),
            achieved=exc.achieved,
            target=exc.target,
            partial=expand_support(exc.partial),
        ) from exc
    return expand_support(support_cb)


def k1_upper_bound(M: int, J, alpha: float, c_prime: float) -> int:
    """Separation achievable by some codebook of J no-multiset codewords:
    ceil(max(log(J)/(c' log M), e * M^(2 - alpha + c')))."""
    if M < 2:
        raise DomainError("M must be at least 2")
    if J < 1:
        raise DomainError("J must be positive")
    if not alpha > 1:
        raise DomainError("alpha must exceed 1")
    if not c_prime > 0:
        raise DomainError("c_prime must be positive")
    term1 = math.log(J) / (c_prime * math.log(M))
    term2 = math.e * math.exp((2.0 - alpha + c_prime) * math.log(M))
    return math.ceil(max(term1, term2) - _ROUND_GUARD)


def k2_lower_bound(M: int, J, alpha: float) -> int:
    """Separation forced on every codebook of J/2 multiset codewords:
    floor((1/alpha) * log(J/2) / log(M)).  Requires J <= 2 * M^(alpha*M)."""
    if M < 2:
        raise DomainError("M must be at least 2")
    if J < 2:
        raise DomainError("J must be at least 2")
    if not alpha > 1:
        raise DomainError("alpha must exceed 1")
    log_half_j = math.log(J) - math.log(2.0)
    if log_half_j > alpha * M * math.log(M) + _ROUND_GUARD:
        raise DomainError("hypothesis J <= 2 * M^(alpha*M) violated")
    return math.floor(log_half_j / (alpha * math.log(M)) + _ROUND_GUARD)


def k3_lower_bound(M: int, J, alpha: float) -> float:
    """Separation forced on every codebook of J/2 distinct no-multiset
    codewords: M^(2-alpha) - M/(J/2 - 1), by an averaging argument.

    The averaging needs only J/2 >= 2 codewords; alpha in (1, 2) keeps the
    leading term meaningful.  May be fractional; callers compare integer
    intersections against its ceiling.
    """
    if M < 2:
        raise DomainError("M must be at least 2")
    if not 1.0 < alpha < 2.0:
        raise DomainError("alpha must lie in (1, 2)")
    if not J >= 4:
        raise DomainError("need J >= 4 (at least two codewords in play)")
    return math.exp((2.0 - alpha) * math.log(M)) - M / (J / 2.0 - 1.0)


@dataclass(frozen=True)
class SeparationBounds:
    """K1/K2/K3 bound values for one parameter point, with the hypotheses
    that failed recorded instead of a value."""

    M: int
    alpha: float
    J: int
    c_prime: float
    K1_upper: int | None
    K2_lower: int | None
    K3_lower: float | None
    notes: tuple[str, ...]


def compute_separation_bounds(
    M: int, J: int, alpha: float, c_prime: float | None = None
) -> SeparationBounds:
    if c_prime is None:
        c_prime = 1.0 / math.log(M)
    notes = []
    k1 = k2 = k3 = None
    try:
        k1 = k1_upper_bound(M, J, alpha, c_prime)
    except DomainError as exc:
        notes.append(f"K1: {exc}")
    try:
        k2 = k2_lower_bound(M, J, alpha)
    except DomainError as exc:
        notes.append(f"K2: {exc}")
    try:
        k3 = k3_lower_bound(M, J, alpha)
    except DomainError as exc:
        notes.append(f"K3: {exc}")
    return SeparationBounds(M, alpha, J, c_prime, k1, k2, k3, tuple(notes))


@dataclass(frozen=True)
class MultisetSeparationReport:
    """Outcome of checking a codebook against the multiset separation bound."""

    bound: float
    branch_low_mult: float  # light-multiplicity branch, (log2 M + 1)^-2 scale
    branch_high_mult: float  # heavy-multiplicity branch, 1/(2 alpha) scale
    observed: int
    witness: tuple[int, int]
    passed: bool
    s: float
    M: int
    J: int
    alpha: float


def verify_multiset_k2(cb: Codebook) -> MultisetSeparationReport:
    """Check that a codebook built at J = exp(M^s) messages exhibits the
    forced multiset intersection min(M^(1+(s-alpha)/2)/(log2 M + 1)^2 - M/(J/2-1),
    M^(1+(s-alpha)/2) / (2 alpha (log2 M + 1))).

    Requires the declared message count to satisfy J > 2 M^alpha (log2 M + 1).
    """
    scaling = cb.scaling
    if scaling.J is None:
        raise DomainError("verify_multiset_k2 needs an explicit message count J")
    M, J, alpha = scaling.M, scaling.J, scaling.alpha
    log2m1 = math.log2(M) + 1.0
    if not J > 2.0 * M**alpha * log2m1:
        raise DomainError(
            f"hypothesis J > 2 M^alpha (log2 M + 1) violated: "
            f"J = {J}, threshold = {2.0 * M ** alpha * log2m1}"
        )
    s = math.log(math.log(J)) / math.log(M)
    base = math.exp((1.0 + (s - alpha) / 2.0) * math.log(M))
    branch_low = base / log2m1**2 - M / (J / 2.0 - 1.0)
    branch_high = base / (2.0 * alpha * log2m1)
    bound = min(branch_low, branch_high)
    observed, witness = max_pairwise_intersection(cb)
    return MultisetSeparationReport(
        bound=bound,
        branch_low_mult=branch_low,
        branch_high_mult=branch_high,
        observed=observed,
        witness=witness,
        passed=observed + _ROUND_GUARD >= bound,
        s=s,
        M=M,
        J=J,
        alpha=alpha,
    )


def codebook_to_dict(cb: Codebook) -> dict:
    return {
        "format_version": CODEBOOK_FORMAT_VERSION,
        "scaling": cb.scaling.to_dict(),
        "index_based": cb.index_based,
        "group_size": cb.group_size,
        "codewords": [[[m, u] for m, u in zip(*row)] for row in cb._rows()],
    }


def codebook_from_dict(d: dict) -> Codebook:
    if not isinstance(d, dict):
        raise DomainError("a codebook must be a JSON object")
    version = d.get("format_version")
    if version != CODEBOOK_FORMAT_VERSION:
        raise DomainError(f"unsupported codebook format version {version!r}")
    try:
        molecules, mults, sizes = _arrays(d["codewords"])
        scaling = ScalingParams.from_dict(d["scaling"])
        index_based = bool(d["index_based"])
        group_size = None if d.get("group_size") is None else int(d["group_size"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed codebook: {type(exc).__name__}: {exc}") from exc
    return Codebook(
        scaling=scaling, index_based=index_based, group_size=group_size,
        molecules=molecules, mults=mults, sizes=sizes,
    )


def save_codebook(cb: Codebook, path) -> None:
    """Write cb to path, whole or not at all (a previous file survives a
    failed write): the bytes of json.dump(codebook_to_dict(cb),
    sort_keys=True, indent=2) and a newline.  The codewords, one number a
    line, skip the indenting encoder, which is pure Python."""
    d = codebook_to_dict(cb)
    head = json.dumps({**d, "codewords": None}, sort_keys=True, indent=2)
    pair = "\n      [\n        %d,\n        %d\n      ]"
    rows = [
        "\n    [" + ",".join([pair] * len(cw)) % tuple(chain.from_iterable(cw)) + "\n    ]"
        for cw in d["codewords"]
    ]
    text = "[" + ",".join(rows) + "\n  ]" if rows else "[]"
    with atomic_open(path) as fh:
        fh.write(head.replace('"codewords": null', '"codewords": ' + text, 1) + "\n")


def load_codebook(path) -> Codebook:
    return codebook_from_dict(load_json(path, "codebook file"))
