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
from .words import (
    RowIndex, WordColumns, cut_keys, ell, entropy_terms, row_keys,
)


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

    Starts at the shortest word length; each later entry is a length in
    the window with one more pair than its predecessor.  Since n >= m,
    the pair count grows by at most one per length, so the entry count
    is the pair-count spread plus one.
    """
    params = partition.params
    lo, hi = partition.xi_min, partition.xi_max
    return (lo,) + tuple(h for h in range(lo + 1, hi + 1)
                         if ell(params, h) > ell(params, h - 1))


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
        self.stage_logs = stage_logs


def _ancestor_columns(params: DerivedParams, h: int, hp: int) -> list[int]:
    # Columns of a length-h row that spell its blockwise ancestor at
    # length hp <= h: the first ell(hp) pairs and the first hp - ell(hp)
    # tail digits.  Both block lengths are nondecreasing in the word
    # length, so neither cut overruns its block.
    l, lp = ell(params, h), ell(params, hp)
    return list(range(2 * lp)) + list(range(2 * l, 2 * l + hp - lp))


def _swap_families(params: DerivedParams, k: int, stage: int, target: int,
                   rows: np.ndarray, ids: np.ndarray, nus: list[int],
                   flagged: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, list[int], StageLog]:
    """Swap the families that the ``flagged`` rows of a target length form.

    Returns the inserted rows, their class ids, the length's mass table
    with any new classes appended, and the stage's log.
    """
    L = params.denom_lcm
    a, b = params._scaled
    gx = {j: list(params.gx[j]) for j in params.gy}
    eta_k = params.eta ** k
    eta_num_k, eta_den_k = eta_k.numerator, eta_k.denominator
    l = ell(params, target)
    split = 2 * l

    # Families share every column but the last pair's x digit; a
    # stable sort on that stem keeps walk order inside each family.
    stem_cols = [c for c in range(rows.shape[1]) if c != split - 2]
    fam_keys = np.concatenate([keys for _, (keys,) in cut_keys(
        params, rows[flagged], l, [(stem_cols, l - 1)])])
    order = np.argsort(fam_keys, kind="stable")
    fam = flagged[order]
    fam_rows, fam_keys, fam_ids = rows[fam], fam_keys[order], ids[fam]
    starts = np.flatnonzero(np.concatenate(
        ([True], fam_keys[1:] != fam_keys[:-1])))
    sizes = np.diff(np.append(starts, len(fam_ids)))

    # A family's checks and swap read only its signature: j_l, j_t and
    # its members' (x digit, class) in family order.  Each distinct
    # signature runs once, in order of first occurrence, so new classes
    # and the first error come out as in family order.
    span = int(sizes.max())
    slot = np.arange(len(fam_ids)) - np.repeat(starts, sizes)
    member = np.repeat(np.arange(len(starts)), sizes)
    sig = np.zeros((len(starts), 3 + 2 * span),
                   np.min_scalar_type(max(255, len(nus), span)))
    sig[:, 0] = sizes
    sig[:, 1] = fam_rows[starts, split - 1]
    sig[:, 2] = fam_rows[starts, -1]
    sig[member, 3 + slot] = fam_rows[:, split - 2]
    sig[member, 3 + span + slot] = fam_ids
    _, first, sig_of = np.unique(
        sig.view(np.dtype((np.void, sig.itemsize * sig.shape[1]))).ravel(),
        return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    sig_of = np.argsort(by_first)[sig_of]

    max_gap = 0.0
    h_scale = L ** target
    bound = eta_num_k * h_scale
    # An inserted mass not yet in the length's table gets a new class.
    table = list(nus)
    class_of = {nu: c for c, nu in enumerate(table)}
    terms = entropy_terms(table, target, L)
    # (new x digit, class) per insert, signature by signature
    sig_x: list[list[int]] = []
    sig_ids: list[list[int]] = []

    for f in first[by_first].tolist():
        s, e = int(starts[f]), int(starts[f] + sizes[f])
        xs = fam_rows[s:e, split - 2].tolist()
        members = fam_ids[s:e].tolist()
        j_l, j_t = int(fam_rows[s, split - 1]), int(fam_rows[s, -1])
        # Completeness: one sibling per occupant of column j_l.
        if sorted(xs) != gx[j_l]:
            raise AntichainInvariantError(
                f"family over column {j_l} is missing siblings")
        rep_i = min(xs)
        stem_nu, rem = divmod(table[members[xs.index(rep_i)]],
                              a[(rep_i, j_l)] * b[j_t])
        if rem:
            raise AntichainInvariantError("family mass not factorable")

        fam_nu = 0
        fam_removed_e = 0.0
        for c in members:
            fam_nu += table[c]
            fam_removed_e += terms[c]

        fam_g_nu = 0
        fam_inserted_e = 0.0
        xs_new, ids_new = [], []
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
            xs_new.append(i)
            ids_new.append(c)
        if fam_g_nu != fam_nu:
            raise AntichainInvariantError("family mass not conserved")
        gap = abs(fam_inserted_e - fam_removed_e) / (fam_nu / h_scale)
        max_gap = max(max_gap, gap)
        sig_x.append(xs_new)
        sig_ids.append(ids_new)

    # Each family inserts its signature's words, gathered in family
    # order: the family's first row with the last pair's column digit
    # and the last tail digit interchanged, and a new x digit.
    lens = np.array([len(x) for x in sig_x])
    counts = lens[sig_of]
    at = np.arange(counts.sum()) + np.repeat(
        (np.cumsum(lens) - lens)[sig_of] - (np.cumsum(counts) - counts),
        counts)
    inserted = fam_rows[np.repeat(starts, counts)]
    j_l_col = inserted[:, split - 1].copy()
    inserted[:, split - 2] = np.concatenate(sig_x)[at]
    inserted[:, split - 1] = inserted[:, -1]
    inserted[:, -1] = j_l_col
    ins_ids = np.concatenate(sig_ids)[at]

    terms = np.array(terms)
    return inserted, ins_ids, table, StageLog(
        stage=stage,
        target_length=target,
        family_count=len(starts),
        removed_count=len(flagged),
        inserted_count=len(ins_ids),
        removed_mass=Fraction(
            sum(c * nu for c, nu in zip(np.bincount(fam_ids).tolist(), table)),
            h_scale),
        removed_entropy=math.fsum(terms[fam_ids].tolist()),
        inserted_entropy=math.fsum(terms[ins_ids].tolist()),
        max_family_gap=max_gap,
    )


def build_antichain(partition) -> Antichain:
    """Rebuild a stopping set into a maximal antichain, stage by stage.

    Stage l+1 targets the ladder length xi_{l+1}.  Words of that length
    with a blockwise ancestor among the shorter survivors are grouped
    into sibling families (same word up to the x digit of the final
    pair); each family is swapped for the equal-mass family obtained from
    its smallest-x representative by interchanging the last pair's column
    digit with the last tail digit, one word per x digit of the new
    column.  Ancestors are found by binary search in each shorter
    length's sorted row keys; families are taken in sorted order, with
    their members in walk order.  Families with one signature (column
    digits j_l and j_t, and each member's x digit and mass class) pass
    or fail the checks alike, so each distinct signature is checked
    once, at its first family.  All mass identities are checked in exact
    integers as the stages run:

    * each family is complete (one sibling per occupant of its column);
    * removed and inserted family masses agree exactly;
    * every inserted word sits strictly below the stopping threshold
      while its predecessor sits at or above it;
    * no inserted word collides with a survivor or another insertion.
    """
    params = partition.params

    # Ladder lengths get new blocks as their stages run; every length
    # below the current target is final, so its index is built once.
    blocks = dict(partition.blocks)
    indexes: dict[int, RowIndex] = {}
    xi_stages = xi_sequence(partition)
    stage_logs: list[StageLog] = []

    for pos in range(1, len(xi_stages)):
        target = xi_stages[pos]
        l = ell(params, target)
        width = target + l
        rows, ids, nus = blocks.get(
            target, (np.empty((0, width), np.uint8), np.empty(0, np.uint8), []))
        # Words at the target length whose blockwise ancestor survived at
        # some shorter length.
        shorter = [h for h in blocks if h < target]
        for h in shorter:
            if h not in indexes:
                indexes[h] = RowIndex(
                    row_keys(params, blocks[h][0], ell(params, h)))
        flags = np.zeros(len(ids), dtype=bool)
        for lo, queries in cut_keys(
                params, rows, l,
                [(_ancestor_columns(params, target, h), ell(params, h))
                 for h in shorter]):
            for h, query in zip(shorter, queries):
                flags[lo:lo + len(query)] |= indexes[h].contains(query)
        flagged = np.flatnonzero(flags)
        if not len(flagged):
            stage_logs.append(StageLog(
                stage=pos + 1, target_length=target, family_count=0,
                removed_count=0, inserted_count=0,
                removed_mass=Fraction(0), removed_entropy=0.0,
                inserted_entropy=0.0, max_family_gap=0.0))
            continue
        if 2 * l == width:
            raise AntichainInvariantError(
                "replacement family with an empty tail")
        inserted, ins_ids, table, log = _swap_families(
            params, partition.k, pos + 1, target, rows, ids, nus, flagged)

        # Survivors, then inserts, written once into the new block
        # (mode "clip" writes into ``out`` without a buffer copy).
        kept = np.flatnonzero(~flags)
        new_rows = np.empty((len(kept) + len(inserted), width), np.uint8)
        np.take(rows, kept, axis=0, out=new_rows[:len(kept)], mode="clip")
        new_rows[len(kept):] = inserted
        index = RowIndex(row_keys(params, new_rows, l))
        if any(b_idx >= len(kept) for _, b_idx in index.duplicates()):
            raise AntichainCollisionError(
                f"replacement collision at length {target}")
        new_ids = np.append(ids[kept], ins_ids).astype(
            np.min_scalar_type(len(table)))
        blocks[target] = (new_rows, new_ids, table)
        indexes[target] = index
        stage_logs.append(log)

    return Antichain(partition, blocks, xi_stages=xi_stages,
                     stage_logs=tuple(stage_logs))


@dataclass(frozen=True)
class AntichainReport:
    """Maximality certificate: exact mass plus pairwise incomparability."""

    size: int
    mass_total: Fraction
    mass_exact: bool
    comparable_pairs: tuple[tuple[int, int], ...]
    below_threshold: bool     # every mass < eta^k

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
        size=antichain.size,
        mass_total=mass_total,
        mass_exact=mass_total == 1,
        comparable_pairs=violations,
        below_threshold=below,
    )
