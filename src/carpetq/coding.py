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

import numpy as np

from .measure import DerivedParams
from .words import RowIndex, WordColumns, ell, entropy_terms, row_keys


__all__ = [
    "AntichainInvariantError",
    "AntichainCollisionError",
    "StageLog",
    "Antichain",
    "AntichainReport",
    "xi_sequence",
    "build_antichain",
    "verify_maximal_antichain",
]


class AntichainInvariantError(RuntimeError):
    """A structural guarantee of the replacement construction failed."""


class AntichainCollisionError(AntichainInvariantError):
    """Two replacement families produced the same word."""


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

    @property
    def entropy_shift(self) -> float:
        return self.inserted_entropy - self.removed_entropy


class Antichain(WordColumns):
    """A finite set of words, blockwise incomparable, with stage history.

    Words are stored per length like a partition's, as rows, class ids
    and a table of scaled integer masses (denominator L**length, where
    L clears all weight denominators); a block no stage touched is the
    partition's own.  The entropy sum is the exact total of the
    per-length sums, rounded once.  ``base_*`` aggregates describe
    ``partition``, the stopping set the construction started from.
    """

    def __init__(self, partition, blocks: dict, *,
                 xi_stages: tuple[int, ...], stage_logs: tuple[StageLog, ...]):
        super().__init__(partition.params, blocks)
        self.k = partition.k
        self.xi_stages = xi_stages
        self.entropy_sum = float(
            sum(self.length_entropy_sums.values(), Fraction(0)))
        self.base_size = partition.phi_k
        self.base_entropy_sum = partition.entropy_sum
        self.base_mass_len_total = partition.mass_len_total
        self.stage_logs = stage_logs


def _ancestor_columns(params: DerivedParams, h: int, hp: int) -> list[int]:
    # Columns of a length-h row that spell its blockwise ancestor at
    # length hp <= h: the first ell(hp) pairs and the first hp - ell(hp)
    # tail digits.  Both block lengths are nondecreasing in the word
    # length, so neither cut overruns its block.
    l, lp = ell(params, h), ell(params, hp)
    return list(range(2 * lp)) + list(range(2 * l, 2 * l + hp - lp))


def build_antichain(partition) -> Antichain:
    """Rebuild a stopping set into a maximal antichain, stage by stage.

    Stage l+1 targets the ladder length xi_{l+1}.  Words of that length
    with a blockwise ancestor among the shorter survivors are grouped
    into sibling families (same word up to the x digit of the final
    pair); each family is swapped for the equal-mass family obtained from
    its smallest-x representative by interchanging the last pair's column
    digit with the last tail digit, one word per x digit of the new
    column.  Ancestors are found by binary search in each shorter
    length's sorted rows; families are taken in sorted order, with their
    members in walk order.  All mass identities are checked in exact
    integers as the stages run:

    * each family is complete (one sibling per occupant of its column);
    * removed and inserted family masses agree exactly;
    * every inserted word sits strictly below the stopping threshold
      while its predecessor sits at or above it;
    * no inserted word collides with a survivor or another insertion.
    """
    params = partition.params
    L = params.denom_lcm
    a, b = params._scaled
    gx = {j: list(params.gx[j]) for j in params.gy}
    eta_k = params.eta ** partition.k
    eta_num_k, eta_den_k = eta_k.numerator, eta_k.denominator

    # Ladder lengths get new blocks as their stages run; every length
    # below the current target is final, so its index is built once.
    blocks = dict(partition.blocks)
    indexes: dict[int, RowIndex] = {}
    xi_stages = xi_sequence(partition)
    stage_logs: list[StageLog] = []

    for pos in range(1, len(xi_stages)):
        target = xi_stages[pos]
        split = 2 * ell(params, target)
        width = target + split // 2
        rows, ids, nus = blocks.get(
            target, (np.empty((0, width), np.uint8), np.empty(0, np.uint8), []))
        # Words at the target length whose blockwise ancestor survived at
        # some shorter length.
        flags = np.zeros(len(ids), dtype=bool)
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
                inserted_entropy=0.0, max_family_gap=0.0))
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
        fam_ids = ids[flagged[order]].tolist()
        starts = np.flatnonzero(np.concatenate(
            ([True], fam_keys[1:] != fam_keys[:-1]))).tolist()
        ends = starts[1:] + [len(fam_ids)]
        xs_all = fam_rows[:, split - 2].tolist()
        jl_all = fam_rows[:, split - 1].tolist()
        jt_all = fam_rows[:, -1].tolist()

        removed_nu = 0
        max_gap = 0.0
        h_scale = L ** target
        bound = eta_num_k * h_scale
        # An inserted mass not yet in the length's table gets a new class.
        table = list(nus)
        class_of = {nu: c for c, nu in enumerate(table)}
        terms = entropy_terms(table, target, L)
        # (family's first sorted row, new x digit, class) per insert
        ins_src: list[int] = []
        ins_x: list[int] = []
        ins_ids: list[int] = []

        for s, e in zip(starts, ends):
            xs = xs_all[s:e]
            j_l, j_t = jl_all[s], jt_all[s]
            # Completeness: one sibling per occupant of column j_l.
            if sorted(xs) != gx[j_l]:
                raise AntichainInvariantError(
                    f"family over column {j_l} is missing siblings")
            rep_i = min(xs)
            stem_nu, rem = divmod(table[fam_ids[s + xs.index(rep_i)]],
                                  a[(rep_i, j_l)] * b[j_t])
            if rem:
                raise AntichainInvariantError("family mass not factorable")

            fam_nu = 0
            fam_removed_e = 0.0
            for c in fam_ids[s:e]:
                fam_nu += table[c]
                fam_removed_e += terms[c]
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
                c = class_of.setdefault(nu_g, len(table))
                if c == len(table):
                    table.append(nu_g)
                    terms += entropy_terms([nu_g], target, L)
                fam_inserted_e += terms[c]
                ins_src.append(s)
                ins_x.append(i)
                ins_ids.append(c)
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
        new_ids = np.append(ids[keep], ins_ids).astype(
            np.min_scalar_type(len(table)))
        blocks[target] = (new_rows, new_ids, table)
        indexes[target] = index

        stage_logs.append(StageLog(
            stage=pos + 1,
            target_length=target,
            family_count=len(starts),
            removed_count=len(flagged),
            inserted_count=len(ins_ids),
            removed_mass=Fraction(removed_nu, h_scale),
            removed_entropy=math.fsum(map(terms.__getitem__, fam_ids)),
            inserted_entropy=math.fsum(map(terms.__getitem__, ins_ids)),
            max_family_gap=max_gap,
        ))

    return Antichain(partition, blocks, xi_stages=xi_stages,
                     stage_logs=tuple(stage_logs))


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

    Masses are resummed exactly from each length's class counts and
    mass table, not read from the store's aggregates.  For the
    incomparability scan, each word's unique candidate ancestor at every
    shorter occupied length is looked up by binary search in that
    length's sorted rows, and equal rows within a length are caught by
    the same sort.  Comparable pairs are sorted index pairs (a, b), a < b.
    Exact mass one plus pairwise incomparability certify that the
    cylinders tile the whole product space.
    """
    params = antichain.params
    L = params.denom_lcm
    eta_k = params.eta ** antichain.k
    eta_num_k, eta_den_k = eta_k.numerator, eta_k.denominator

    nu_by_len: dict[int, int] = {}
    below = True
    for h, (_, ids, nus) in antichain.blocks.items():
        used = [(c, nu) for c, nu in zip(np.bincount(ids).tolist(), nus)
                if c]
        nu_by_len[h] = sum(c * nu for c, nu in used)
        if max(nu for _, nu in used) * eta_den_k >= eta_num_k * L ** h:
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
