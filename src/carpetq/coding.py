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

import numpy as np

from .measure import DerivedParams
from .summation import KahanSum
from .words import (
    CarpetWord, RowIndex, WordColumns, WordError, decode_word, ell, row_keys,
)


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

    Words are stored per length like a partition's: a uint8 matrix of
    encoded digit rows and a scaled integer mass per word (denominator
    L**length, where L clears all weight denominators), each block
    sorted by its rows' bytes.  ``base_*`` aggregates describe the
    stopping set the construction started from.
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


def _ancestor_columns(params: DerivedParams, h: int, hp: int) -> list[int]:
    # Columns of a length-h row that spell its blockwise ancestor at
    # length hp <= h: the first ell(hp) pairs and the first hp - ell(hp)
    # tail digits.  Both block lengths are nondecreasing in the word
    # length, so neither cut overruns its block.
    l, lp = ell(params, h), ell(params, hp)
    return list(range(2 * lp)) + list(range(2 * l, 2 * l + hp - lp))


def _columns(params, k, blocks, indexes, xi_stages, base, stage_logs):
    # Deterministic blocks: each length's rows sorted by their bytes,
    # with the entropy summed in that order.  ``indexes`` holds the
    # row indexes already built for some of ``blocks``.
    log_l = math.log(params.denom_lcm)
    out = {}
    entropy = KahanSum()
    for h in sorted(blocks):
        rows, nus = blocks[h]
        order = (indexes.get(h) or RowIndex(rows)).order
        nus = [nus[i] for i in order.tolist()]
        # Words of one length share few masses: one term per distinct nu.
        terms = {}
        for nu in set(nus):
            log_mass = math.log(nu) - h * log_l
            terms[nu] = math.exp(log_mass) * log_mass
        for nu in nus:
            entropy.add(terms[nu])
        out[h] = (rows[order], nus)
    base_size, base_entropy, base_mass_len = base
    return Antichain(
        params, k, out,
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
    base = (partition.phi_k, partition.entropy_sum, partition.mass_len_total)
    return _columns(partition.params, partition.k, partition.blocks, {},
                    (partition.xi_min,), base, ())


def build_antichain(partition, *, keep_stage_words: Optional[bool] = None
                    ) -> Antichain:
    """Rebuild a stopping set into a maximal antichain, stage by stage.

    Stage l+1 targets the ladder length xi_{l+1}.  Words of that length
    with a blockwise ancestor among the shorter survivors are grouped
    into sibling families (same word up to the x digit of the final
    pair); each family is swapped for the equal-mass family produced by
    ``swap_tail`` on its smallest-x representative.  Ancestors are found
    by binary search in each shorter length's sorted rows; families are
    taken in sorted order, with their members in walk order.  All mass
    identities are checked in exact integers as the stages run:

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
    gx = {j: list(params.gx[j]) for j in params.gy}
    eta_k = params.eta ** k
    eta_num_k, eta_den_k = eta_k.numerator, eta_k.denominator

    # Ladder lengths get new blocks as their stages run; every length
    # below the current target is final, so its index is built once.
    blocks = dict(partition.blocks)
    indexes: dict[int, RowIndex] = {}
    base = (partition.phi_k, partition.entropy_sum, partition.mass_len_total)
    xi_stages = xi_sequence(partition)
    stage_logs: list[StageLog] = []

    def entropy_of(nu: int, h: int) -> float:
        log_mass = math.log(nu) - h * log_l
        return math.exp(log_mass) * log_mass

    def decoded(rows: np.ndarray, h: int) -> tuple[CarpetWord, ...]:
        data, width = rows.tobytes(), rows.shape[1]
        return tuple(decode_word(params, data[t:t + width], h)
                     for t in range(0, len(data), width))

    for pos in range(1, len(xi_stages)):
        target = xi_stages[pos]
        split = 2 * ell(params, target)
        width = target + split // 2
        rows, nus = blocks.get(target, (np.empty((0, width), np.uint8), []))
        # Words at the target length whose blockwise ancestor survived at
        # some shorter length.
        flags = np.zeros(len(nus), dtype=bool)
        for h in blocks:
            if h < target:
                if h not in indexes:
                    indexes[h] = RowIndex(blocks[h][0])
                flags |= indexes[h].contains(
                    row_keys(rows[:, _ancestor_columns(params, target, h)]))
        flagged = np.flatnonzero(flags)
        if not len(flagged):
            stage_logs.append(StageLog(
                stage=pos + 1, target_length=target, family_count=0,
                removed_count=0, inserted_count=0,
                removed_mass=Fraction(0), removed_entropy=0.0,
                inserted_entropy=0.0, max_family_gap=0.0,
                families=() if keep_stage_words else None))
            continue
        if split == width:
            raise AntichainInvariantError(
                "replacement family with an empty tail")

        # Families share every column but the last pair's x digit; a
        # stable sort on that key keeps walk order inside each family.
        stem_cols = [c for c in range(width) if c != split - 2]
        fam_rows = rows[flagged]
        fam_keys = row_keys(fam_rows[:, stem_cols])
        order = np.argsort(fam_keys, kind="stable")
        fam_rows, fam_keys = fam_rows[order], fam_keys[order]
        fam_nus = [nus[i] for i in flagged[order].tolist()]
        starts = np.flatnonzero(np.concatenate(
            ([True], fam_keys[1:] != fam_keys[:-1]))).tolist()
        ends = starts[1:] + [len(fam_nus)]
        xs_all = fam_rows[:, split - 2].tolist()
        jl_all = fam_rows[:, split - 1].tolist()
        jt_all = fam_rows[:, -1].tolist()

        removed_nu = 0
        removed_entropy = KahanSum()
        inserted_entropy = KahanSum()
        max_gap = 0.0
        h_scale = L ** target
        bound = eta_num_k * h_scale
        # (family's first sorted row, new x digit, scaled mass) per insert
        ins_src: list[int] = []
        ins_x: list[int] = []
        ins_nus: list[int] = []

        for s, e in zip(starts, ends):
            xs = xs_all[s:e]
            j_l, j_t = jl_all[s], jt_all[s]
            # Completeness: one sibling per occupant of column j_l.
            if sorted(xs) != gx[j_l]:
                raise AntichainInvariantError(
                    f"family over column {j_l} is missing siblings")
            rep_i = min(xs)
            stem_nu, rem = divmod(fam_nus[s + xs.index(rep_i)],
                                  a[(rep_i, j_l)] * b[j_t])
            if rem:
                raise AntichainInvariantError("family mass not factorable")

            fam_nu = 0
            fam_removed_e = 0.0
            for nu in fam_nus[s:e]:
                fam_nu += nu
                ent = entropy_of(nu, target)
                fam_removed_e += ent
                removed_entropy.add(ent)
            removed_nu += fam_nu

            fam_g_nu = 0
            fam_inserted_e = 0.0
            for i in gx[j_t]:
                fa = a[(i, j_t)]
                nu_g = stem_nu * fa * b[j_l]
                if nu_g * eta_den_k >= bound:
                    raise AntichainInvariantError(
                        "inserted word at or above the stopping threshold")
                if nu_g // fa * eta_den_k * L < bound:
                    raise AntichainInvariantError(
                        "inserted word's predecessor below the threshold")
                fam_g_nu += nu_g
                ent = entropy_of(nu_g, target)
                fam_inserted_e += ent
                inserted_entropy.add(ent)
                ins_src.append(s)
                ins_x.append(i)
                ins_nus.append(nu_g)
            if fam_g_nu != fam_nu:
                raise AntichainInvariantError("family mass not conserved")
            gap = abs(fam_inserted_e - fam_removed_e) / (fam_nu / h_scale)
            max_gap = max(max_gap, gap)

        # Inserted rows: the family's row with the last pair's column
        # digit and the last tail digit interchanged, and a new x digit.
        inserted = fam_rows[ins_src]
        j_l_col = inserted[:, split - 1].copy()
        inserted[:, split - 2] = ins_x
        inserted[:, split - 1] = inserted[:, -1]
        inserted[:, -1] = j_l_col

        keep = np.flatnonzero(~flags)
        new_rows = np.concatenate([rows[keep], inserted])
        index = RowIndex(new_rows)
        if any(b_idx >= len(keep) for _, b_idx in index.duplicates()):
            raise AntichainCollisionError(
                f"replacement collision at length {target}")
        blocks[target] = (new_rows, [nus[i] for i in keep.tolist()] + ins_nus)
        indexes[target] = index

        logged_families = None
        if keep_stage_words:
            removed_words = decoded(fam_rows, target)
            inserted_words = decoded(inserted, target)
            ins_starts = np.searchsorted(ins_src, starts).tolist()
            ins_ends = ins_starts[1:] + [len(ins_src)]
            logged_families = tuple(
                (removed_words[s:e], inserted_words[p:q])
                for s, e, p, q in zip(starts, ends, ins_starts, ins_ends))

        stage_logs.append(StageLog(
            stage=pos + 1,
            target_length=target,
            family_count=len(starts),
            removed_count=len(flagged),
            inserted_count=len(ins_nus),
            removed_mass=Fraction(removed_nu, h_scale),
            removed_entropy=removed_entropy.total,
            inserted_entropy=inserted_entropy.total,
            max_family_gap=max_gap,
            families=logged_families,
        ))

    return _columns(params, k, blocks, indexes, xi_stages, base, stage_logs)


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
    up by binary search in that length's sorted rows, and equal rows
    within a length are caught by the same sort.  Comparable pairs are
    sorted index pairs (a, b) with a < b.
    Exact mass one plus pairwise incomparability certify that the
    cylinders tile the whole product space.
    """
    params = antichain.params
    L = params.denom_lcm
    eta_k = params.eta ** antichain.k
    eta_num_k, eta_den_k = eta_k.numerator, eta_k.denominator

    nu_by_len: dict[int, int] = {}
    below = True
    for h, (_, nus) in antichain.blocks.items():
        nu_by_len[h] = sum(nus)
        if max(nus) * eta_den_k >= eta_num_k * L ** h:
            below = False
    mass_total = sum(
        (Fraction(nu, L ** h) for h, nu in nu_by_len.items()), Fraction(0))
    violations = antichain.matching_pairs(
        lambda h, hp: _ancestor_columns(params, h, hp))
    return AntichainReport(
        k=antichain.k,
        size=antichain.size,
        mass_total=mass_total,
        mass_exact=mass_total == 1,
        comparable_pairs=violations,
        below_threshold=below,
        l_min=antichain.l_min,
        l_max=antichain.l_max,
    )
