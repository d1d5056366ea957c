"""Outer-codebook constructions, exact pairwise separation analysis, and
evaluators for the intersection bounds that govern low-rate error behavior.

Molecules are abstract integer identifiers in [0, inner_size); a codeword is
a multiset of M of them.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._files import atomic_open
from .errors import DomainError, ShortfallError
from .params import ScalingParams

CODEBOOK_FORMAT_VERSION = 1

# guards float noise when a bound lands exactly on an integer
_ROUND_GUARD = 1e-9

# largest dense count matrix (codewords x inner_size) the pairwise scan builds
_DENSE_SCAN_CELLS = 50_000_000


def _half_up(x: float) -> int:
    return math.floor(x + 0.5)


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
        total = 0
        i, j = 0, 0
        a, b = self.pairs, other.pairs
        while i < len(a) and j < len(b):
            if a[i][0] == b[j][0]:
                total += min(a[i][1], b[j][1])
                i += 1
                j += 1
            elif a[i][0] < b[j][0]:
                i += 1
            else:
                j += 1
        return total


@dataclass(eq=False)
class Codebook:
    """An ordered collection of codewords plus its scaling metadata.

    index_based marks codebooks that take exactly one molecule from each of
    M equal contiguous groups of the inner codebook (group g covers
    [g*group_size, (g+1)*group_size)).  Treated as immutable once built.
    """

    scaling: ScalingParams
    codewords: tuple[Codeword, ...]
    index_based: bool
    group_size: int | None = None
    validate_distinct: bool = True
    _max_intersection: tuple[int, tuple[int, int]] | None = field(
        default=None, repr=False
    )

    def __post_init__(self):
        M, inner = self.scaling.M, self.scaling.inner_size
        for cw in self.codewords:
            if cw.size != M:
                raise DomainError(f"codeword size {cw.size} != M = {M}")
            if cw.pairs and (cw.pairs[0][0] < 0 or cw.pairs[-1][0] >= inner):
                raise DomainError("molecule identifier out of range")
        if self.index_based:
            if self.group_size is None or self.group_size * M != inner:
                raise DomainError("index-based codebooks need group_size = inner/M")
            for cw in self.codewords:
                if len(cw.pairs) != M or any(m != 1 for _, m in cw.pairs):
                    raise DomainError(
                        "index-based codewords must hold M distinct molecules"
                    )
                for g, (mol, _) in enumerate(cw.pairs):
                    if not g * self.group_size <= mol < (g + 1) * self.group_size:
                        raise DomainError(
                            f"molecule {mol} is not in group {g} "
                            f"(group_size {self.group_size})"
                        )
        if self.validate_distinct and len(set(self.codewords)) != len(self.codewords):
            raise DomainError("codewords must be distinct")

    def __len__(self) -> int:
        return len(self.codewords)

    def max_intersection(self) -> tuple[int, tuple[int, int]]:
        """Cached exact maximum pairwise intersection; 0 for size < 2."""
        if self._max_intersection is None:
            if len(self.codewords) < 2:
                self._max_intersection = (0, (0, 0))
            else:
                self._max_intersection = max_pairwise_intersection(self)
        return self._max_intersection


def max_pairwise_intersection(cb: Codebook) -> tuple[int, tuple[int, int]]:
    """Exact max multiset intersection over all unordered codeword pairs,
    with the lexicographically smallest attaining pair.

    Index-based codebooks hold one molecule per group in group order, so the
    intersection of two codewords is the number of positions where their
    supports agree: the scan compares rows of the J x M support matrix,
    O(J^2 M) time and O(J M) memory.  Other codebooks take a min-scan over a
    dense J x inner count matrix, O(J^2 inner) time and O(J inner) memory,
    or, above _DENSE_SCAN_CELLS cells, a pure-Python merge of every pair.
    """
    J = len(cb.codewords)
    if J < 2:
        raise DomainError("need at least 2 codewords")
    M = cb.scaling.M
    inner = cb.scaling.inner_size
    # later(i): intersections of codeword i with codewords i+1..J-1
    if cb.index_based:
        rows = np.array([cw.support for cw in cb.codewords], dtype=np.int64)

        def later(i):
            return (rows[i] == rows[i + 1 :]).sum(axis=1)

    elif J * inner <= _DENSE_SCAN_CELLS:
        counts = np.zeros((J, inner), dtype=np.int32)
        for i, cw in enumerate(cb.codewords):
            for mol, mult in cw.pairs:
                counts[i, mol] = mult

        def later(i):
            return np.minimum(counts[i], counts[i + 1 :]).sum(axis=1)

    else:

        def later(i):
            a = cb.codewords[i]
            return np.array([a.intersection_size(b) for b in cb.codewords[i + 1 :]])

    best = -1
    pair = (0, 1)
    for i in range(J - 1):
        vals = later(i)
        row_best = int(vals.max())
        if row_best > best:
            best = row_best
            pair = (i, i + 1 + int(np.argmax(vals)))
            if best == M:
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
    cap is min(intersection_cap, M-1).  The codebook carries the exact
    max_intersection() result, kept while accepting codewords, so it is
    never rescanned.  Raises ShortfallError carrying the partial codebook if
    the budget runs out first.
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
    group_size = inner // M
    offsets = np.arange(M, dtype=np.int64) * group_size
    effective_cap = min(intersection_cap, M - 1)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    chosen = np.empty((target_J, M), dtype=np.int64)
    n = 0
    # the separation scan's result, kept as codewords are accepted: the
    # largest agreement and its lexicographically smallest pair
    best, pair = -1, (0, 1)
    for _ in range(attempt_budget):
        cand = offsets + rng.integers(0, group_size, size=M)
        if n:
            agree = (chosen[:n] == cand).sum(axis=1)
            top = int(agree.max())
            if top > effective_cap:
                continue
            first = int(np.argmax(agree))
            if top > best or (top == best and first < pair[0]):
                best, pair = top, (first, n)
        chosen[n] = cand
        n += 1
        if n == target_J:
            break
    codewords = tuple(Codeword.from_molecules(row) for row in chosen[:n])
    cb = Codebook(
        scaling,
        codewords,
        index_based=True,
        group_size=group_size,
        _max_intersection=(best, pair) if n >= 2 else None,
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
        codewords = []
        for cw in support_cb.codewords:
            pairs = tuple(
                (mol, base + (1 if k < rem else 0))
                for k, (mol, _) in enumerate(cw.pairs)
            )
            codewords.append(Codeword(pairs))
        if m_prime == M:
            return Codebook(
                scaling, tuple(codewords), index_based=True, group_size=inner // M
            )
        return Codebook(scaling, tuple(codewords), index_based=False)

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
        "codewords": [[[mol, mult] for mol, mult in cw.pairs] for cw in cb.codewords],
    }


def codebook_from_dict(d: dict) -> Codebook:
    version = d.get("format_version")
    if version != CODEBOOK_FORMAT_VERSION:
        raise DomainError(f"unsupported codebook format version {version!r}")
    codewords = tuple(
        Codeword(tuple((int(mol), int(mult)) for mol, mult in pairs))
        for pairs in d["codewords"]
    )
    return Codebook(
        scaling=ScalingParams.from_dict(d["scaling"]),
        codewords=codewords,
        index_based=bool(d["index_based"]),
        group_size=None if d.get("group_size") is None else int(d["group_size"]),
    )


def save_codebook(cb: Codebook, path) -> None:
    """Write cb to path, whole or not at all (a previous file survives a
    failed write)."""
    with atomic_open(path) as fh:
        json.dump(codebook_to_dict(cb), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_codebook(path) -> Codebook:
    with open(path) as fh:
        return codebook_from_dict(json.load(fh))
