"""Product-order words and the replacement antichain.

A carpet word splits into a block of digit pairs and a column tail.
Comparing the two blocks by prefix separately, instead of through the
geometric refinement order, yields a coarser partial order in which two
stopping words can nest even though their carpet cylinders never do.
``build_antichain`` repairs those nestings: working up a short ladder of
lengths, it removes each offending sibling family and inserts an
equal-mass family obtained by interchanging the last pair's column
digit with the last tail digit.  Family masses and word lengths are
preserved exactly at every step, so the result is a maximal antichain
carrying the same length-weighted mass as the stopping set it replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .measure import DerivedParams
from .summation import KahanSum
from .words import CarpetWord, WordColumns, WordError, decode_word, ell


__all__ = [
    "AntichainInvariantError",
    "AntichainCollisionError",
    "StageLog",
    "Antichain",
    "AntichainReport",
    "coding_predecessor",
    "is_descendant",
    "comparable",
    "naive_comparable_pairs",
    "xi_sequence",
    "swap_tail",
    "raw_coding_antichain",
    "build_antichain",
    "verify_maximal_antichain",
]


class AntichainInvariantError(RuntimeError):
    """A structural guarantee of the replacement construction failed."""


class AntichainCollisionError(AntichainInvariantError):
    """Two replacement families produced the same word."""


def coding_predecessor(params: DerivedParams, w: CarpetWord) -> CarpetWord:
    """Blockwise parent: drop the last tail digit, or the last pair when
    ``ell`` stepped."""
    total = len(w)
    if total < 2:
        raise WordError("length-1 words have no predecessor")
    if ell(params, total) == ell(params, total - 1):
        return CarpetWord(w.pairs, w.tail[:-1])
    return CarpetWord(w.pairs[:-1], w.tail)


def is_descendant(a: CarpetWord, b: CarpetWord) -> bool:
    """True iff both blocks of ``a`` are prefixes of those of ``b``."""
    return (len(a.pairs) <= len(b.pairs)
            and len(a.tail) <= len(b.tail)
            and a.pairs == b.pairs[:len(a.pairs)]
            and a.tail == b.tail[:len(a.tail)])


def comparable(a: CarpetWord, b: CarpetWord) -> bool:
    return is_descendant(a, b) or is_descendant(b, a)


def naive_comparable_pairs(words) -> list[tuple[int, int]]:
    """All-pairs blockwise comparability scan; a slow oracle for small sets."""
    words = list(words)
    if len(words) > 10_000:
        raise ValueError("all-pairs scan refused above 10^4 words")
    hits = []
    for x in range(len(words)):
        for y in range(x + 1, len(words)):
            if comparable(words[x], words[y]):
                hits.append((x, y))
    return hits


def xi_sequence(partition) -> tuple[int, ...]:
    """The ladder of lengths at which the pair block grows.

    Starts at the shortest word length; each later entry is the first
    length in the window with one more pair than its predecessor.  The
    entry count always equals the pair-count spread plus one.
    """
    params = partition.params
    lo, hi = partition.xi_min, partition.xi_max
    seq = [lo]
    cur = lo
    while ell(params, cur) < ell(params, hi):
        h = cur + 1
        while ell(params, h) != ell(params, cur) + 1:
            h += 1
        seq.append(h)
        cur = h
    if len(seq) != ell(params, hi) - ell(params, lo) + 1:
        raise AntichainInvariantError("length ladder miscounted")
    return tuple(seq)


def swap_tail(params: DerivedParams, w: CarpetWord, i: int) -> CarpetWord:
    """Interchange the last pair's column digit with the last tail digit.

    The last pair (i_l, j_l) becomes (i, j_t) where j_t is the final
    tail digit, and the final tail digit becomes j_l.  Total length and
    block lengths are unchanged, so the result is again a valid word;
    its mass differs only through the swapped pair weight.
    """
    if not w.pairs or not w.tail:
        raise WordError("swap needs both a pair block and a tail")
    j_l = w.pairs[-1][1]
    j_t = w.tail[-1]
    if i not in params.gx[j_t]:
        raise WordError(f"digit {i} does not occupy column {j_t}")
    return CarpetWord(w.pairs[:-1] + ((i, j_t),), w.tail[:-1] + (j_l,))


@dataclass(frozen=True)
class StageLog:
    """Summary of one replacement stage."""

    stage: int                # 2-based, matching the ladder position
    target_length: int
    family_count: int
    removed_count: int        # words taken out at the target length
    inserted_count: int       # words put back in their place
    removed_mass: Fraction    # total mass exchanged (equal both ways)
    removed_entropy: float    # sum of mass*log(mass) over removed words
    inserted_entropy: float
    max_family_gap: float     # max over families of |entropy gap| / mass
    families: Optional[tuple] = None  # (removed words, inserted words) pairs

    @property
    def entropy_shift(self) -> float:
        return self.inserted_entropy - self.removed_entropy


class Antichain(WordColumns):
    """A finite set of words, blockwise incomparable, with stage history.

    Words are stored per length like a partition's: ``encode_word``
    bytes and a scaled integer mass per word (denominator L**length,
    where L clears all weight denominators), each block sorted by
    encoding.  ``base_*`` aggregates describe the stopping set the
    construction started from.
    """

    def __init__(self, params: DerivedParams, k: int, blocks: dict, *,
                 xi_stages: tuple[int, ...], entropy_sum: float,
                 base_size: int, base_entropy_sum: float,
                 base_mass_len_total: Fraction,
                 stage_logs: tuple[StageLog, ...]):
        super().__init__(params, blocks)
        self.k = k
        self.xi_stages = xi_stages
        self.entropy_sum = entropy_sum
        self.base_size = base_size
        self.base_entropy_sum = base_entropy_sum
        self.base_mass_len_total = base_mass_len_total
        self.stage_logs = stage_logs


# Words are keyed by their ``encode_word`` bytes: 2 * ell(h) pair bytes,
# then h - ell(h) tail bytes.  The blockwise ancestor of such a word at a
# shorter length h' keeps the first 2 * ell(h') pair bytes and the first
# h' - ell(h') tail bytes; both block lengths are nondecreasing in the
# word length, so neither prefix overruns its block.  All words of one
# length share the pair width, so sorting encodings orders them by pair
# block, then tail.

def _ancestor_cuts(params: DerivedParams, h: int) -> tuple[int, int]:
    # (pair bytes, tail bytes) that a length-h ancestor keeps.
    l = ell(params, h)
    return 2 * l, h - l


def _ancestor_key(enc: bytes, split: int, cut: tuple[int, int]) -> bytes:
    # ``split`` is where the tail of ``enc`` starts.
    pair_cut, tail_len = cut
    if pair_cut == split:
        return enc[:split + tail_len]
    return enc[:pair_cut] + enc[split:split + tail_len]


def _bucketize(partition) -> dict[int, dict[bytes, int]]:
    # length -> {encoding -> scaled mass}, in partition order
    return {h: dict(zip(encs, nus))
            for h, (encs, nus) in partition.blocks.items()}


def _columns(params, k, buckets, xi_stages, base, stage_logs):
    # Deterministic blocks: each length's words sorted by encoding, with
    # the entropy summed in that order.
    log_l = math.log(params.denom_lcm)
    blocks = {}
    entropy = KahanSum()
    for h in sorted(buckets):
        bucket = buckets[h]
        encs = sorted(bucket)
        nus = [bucket[enc] for enc in encs]
        for nu in nus:
            log_mass = math.log(nu) - h * log_l
            entropy.add(math.exp(log_mass) * log_mass)
        blocks[h] = (encs, nus)
    base_size, base_entropy, base_mass_len = base
    return Antichain(
        params, k, blocks,
        xi_stages=xi_stages,
        entropy_sum=entropy.total,
        base_size=base_size,
        base_entropy_sum=base_entropy,
        base_mass_len_total=base_mass_len,
        stage_logs=tuple(stage_logs),
    )


def raw_coding_antichain(partition) -> Antichain:
    """The stopping set reinterpreted blockwise, with no replacements.

    This is the construction's starting point.  It conserves mass but
    may contain nested pairs under the blockwise order; feed it to
    ``verify_maximal_antichain`` to surface them.
    """
    params = partition.params
    buckets = _bucketize(partition)
    base = (partition.phi_k, partition.entropy_sum, partition.mass_len_total)
    return _columns(params, partition.k, buckets, (partition.xi_min,),
                    base, ())


def build_antichain(partition, *, keep_stage_words: Optional[bool] = None
                    ) -> Antichain:
    """Rebuild a stopping set into a maximal antichain, stage by stage.

    Stage l+1 targets the ladder length xi_{l+1}.  Words of that length
    with a blockwise ancestor among the shorter survivors are grouped
    into sibling families (same word up to the x digit of the final
    pair); each family is swapped for the equal-mass family produced by
    ``swap_tail`` on its smallest-x representative.  All mass identities
    are checked in exact integers as the stages run:

    * each family is complete (one sibling per occupant of its column);
    * removed and inserted family masses agree exactly;
    * every inserted word sits strictly below the stopping threshold
      while its predecessor sits at or above it;
    * no inserted word collides with a survivor or another insertion.

    ``keep_stage_words`` attaches full word-level family logs (default:
    only when k <= 4).
    """
    params = partition.params
    k = partition.k
    if keep_stage_words is None:
        keep_stage_words = k <= 4
    L = params.denom_lcm
    log_l = math.log(L)
    a = {ij: int(w * L)
         for ij, w in zip(params.spec.digits, params.spec.weights)}
    b = {j: int(params.q[j] * L) for j in params.gy}
    eta_k = params.eta ** k
    eta_num_k, eta_den_k = eta_k.numerator, eta_k.denominator

    buckets = _bucketize(partition)
    base = (partition.phi_k, partition.entropy_sum, partition.mass_len_total)
    xi_stages = xi_sequence(partition)
    xi_1 = xi_stages[0]
    stage_logs: list[StageLog] = []

    def entropy_of(nu: int, h: int) -> float:
        log_mass = math.log(nu) - h * log_l
        return math.exp(log_mass) * log_mass

    for pos in range(1, len(xi_stages)):
        target = xi_stages[pos]
        bucket = buckets.get(target, {})
        split = 2 * ell(params, target)
        # Words at the target length whose blockwise ancestor survived at
        # some shorter length.
        ancestors = [(buckets[h], _ancestor_cuts(params, h))
                     for h in range(xi_1, target) if buckets.get(h)]
        flagged = [enc for enc in bucket
                   if any(_ancestor_key(enc, split, cut) in sub
                          for sub, cut in ancestors)]
        if not flagged:
            stage_logs.append(StageLog(
                stage=pos + 1, target_length=target, family_count=0,
                removed_count=0, inserted_count=0,
                removed_mass=Fraction(0), removed_entropy=0.0,
                inserted_entropy=0.0, max_family_gap=0.0,
                families=() if keep_stage_words else None))
            continue

        # (pairs before the last, last pair's column, tail) -> x digits
        families: dict[tuple[bytes, int, bytes], list] = {}
        for enc in flagged:
            families.setdefault(
                (enc[:split - 2], enc[split - 1], enc[split:]), []
            ).append(enc[split - 2])

        removed_count = 0
        inserted_count = 0
        removed_nu = 0
        removed_entropy = KahanSum()
        inserted_entropy = KahanSum()
        max_gap = 0.0
        logged_families = [] if keep_stage_words else None
        inserts: list[tuple[bytes, int]] = []
        h_scale = L ** target

        for (stem, j_l, rb), xs in sorted(families.items()):
            if not rb:
                raise AntichainInvariantError(
                    "replacement family with an empty tail")
            # Completeness: one sibling per occupant of column j_l.
            if sorted(xs) != list(params.gx[j_l]):
                raise AntichainInvariantError(
                    f"family over column {j_l} is missing siblings")
            j_t = rb[-1]
            rep_i = min(xs)
            nu_rep = bucket[stem + bytes((rep_i, j_l)) + rb]
            stem_nu, rem = divmod(nu_rep, a[(rep_i, j_l)] * b[j_t])
            if rem:
                raise AntichainInvariantError("family mass not factorable")

            fam_nu = 0
            fam_removed_e = 0.0
            removed_keys = [stem + bytes((i, j_l)) + rb for i in xs]
            for key in removed_keys:
                nu = bucket.pop(key)
                fam_nu += nu
                e = entropy_of(nu, target)
                fam_removed_e += e
                removed_entropy.add(e)
                removed_count += 1
            removed_nu += fam_nu

            swapped_tail = rb[:-1] + bytes((j_l,))
            fam_g_nu = 0
            fam_inserted_e = 0.0
            g_keys = []
            for i in params.gx[j_t]:
                nu_g = stem_nu * a[(i, j_t)] * b[j_l]
                gkey = stem + bytes((i, j_t)) + swapped_tail
                if nu_g * eta_den_k >= eta_num_k * h_scale:
                    raise AntichainInvariantError(
                        "inserted word at or above the stopping threshold")
                nu_pred = nu_g // a[(i, j_t)]
                if nu_pred * eta_den_k * L < eta_num_k * h_scale:
                    raise AntichainInvariantError(
                        "inserted word's predecessor below the threshold")
                fam_g_nu += nu_g
                e = entropy_of(nu_g, target)
                fam_inserted_e += e
                inserted_entropy.add(e)
                inserts.append((gkey, nu_g))
                g_keys.append(gkey)
                inserted_count += 1
            if fam_g_nu != fam_nu:
                raise AntichainInvariantError("family mass not conserved")
            gap = abs(fam_inserted_e - fam_removed_e) / (fam_nu / h_scale)
            max_gap = max(max_gap, gap)
            if keep_stage_words:
                logged_families.append((
                    tuple(decode_word(params, key, target)
                          for key in removed_keys),
                    tuple(decode_word(params, key, target) for key in g_keys),
                ))

        for gkey, nu_g in inserts:
            if gkey in bucket:
                raise AntichainCollisionError(
                    f"replacement collision at length {target}")
            bucket[gkey] = nu_g

        stage_logs.append(StageLog(
            stage=pos + 1,
            target_length=target,
            family_count=len(families),
            removed_count=removed_count,
            inserted_count=inserted_count,
            removed_mass=Fraction(removed_nu, h_scale),
            removed_entropy=removed_entropy.total,
            inserted_entropy=inserted_entropy.total,
            max_family_gap=max_gap,
            families=tuple(logged_families) if keep_stage_words else None,
        ))

    return _columns(params, k, buckets, xi_stages, base, stage_logs)


@dataclass(frozen=True)
class AntichainReport:
    """Maximality certificate: exact mass plus pairwise incomparability."""

    k: int
    size: int
    mass_total: Fraction
    mass_exact: bool
    comparable_pairs: tuple[tuple[int, int], ...]
    below_threshold: bool     # every mass < eta^k
    l_min: int
    l_max: int

    @property
    def ok(self) -> bool:
        return self.mass_exact and not self.comparable_pairs


def verify_maximal_antichain(antichain: Antichain) -> AntichainReport:
    """Certify maximality from scratch.

    Masses are resummed exactly from the stored integers, not read from
    the store's aggregates.  For the incomparability scan, each word's
    unique candidate ancestor at every shorter occupied length is looked
    up in a per-length hash index, so the scan is linear in the word
    count times the length spread.
    Exact mass one plus pairwise incomparability certify that the
    cylinders tile the whole product space.
    """
    params = antichain.params
    L = params.denom_lcm
    eta_k = params.eta ** antichain.k
    eta_num_k, eta_den_k = eta_k.numerator, eta_k.denominator

    offsets = antichain.offsets
    index: dict[int, dict[bytes, int]] = {}
    nu_by_len: dict[int, int] = {}
    below = True
    for h, (encs, nus) in antichain.blocks.items():
        index[h] = dict(zip(encs, range(offsets[h], offsets[h] + len(encs))))
        nu_by_len[h] = sum(nus)
        bound = eta_num_k * L ** h
        if any(nu * eta_den_k >= bound for nu in nus):
            below = False
    mass_total = sum(
        (Fraction(nu, L ** h) for h, nu in nu_by_len.items()), Fraction(0))

    violations: list[tuple[int, int]] = []
    for h, (encs, _) in antichain.blocks.items():
        split = 2 * ell(params, h)
        shorter = [(index[hp], _ancestor_cuts(params, hp))
                   for hp in index if hp < h]
        for idx, enc in enumerate(encs, offsets[h]):
            for sub, cut in shorter:
                anc = sub.get(_ancestor_key(enc, split, cut))
                if anc is not None:
                    violations.append((anc, idx))
    return AntichainReport(
        k=antichain.k,
        size=antichain.size,
        mass_total=mass_total,
        mass_exact=mass_total == 1,
        comparable_pairs=tuple(violations),
        below_threshold=below,
        l_min=antichain.l_min,
        l_max=antichain.l_max,
    )
