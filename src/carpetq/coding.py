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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .measure import DerivedParams
from .words import (
    KeySet, WordColumns, block_predecessor, class_counts, class_entropy, ell,
    entropy_terms, family_stems, member, predecessor_member, stem_columns,
    swap_tail,
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

_CHUNK = 1 << 14            # words copied at once: bounds the scratch


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


class Antichain(WordColumns):
    """A finite set of words, blockwise incomparable, with stage history.

    Words are stored per length like a partition's, as integer keys,
    class ids and a table of scaled integer masses (denominator
    L**length, where L clears all weight denominators); a block no stage
    touched is the partition's own.  The entropy sum is the exact total
    of the per-length sums, rounded once.  ``base_*`` aggregates
    describe ``partition``, the stopping set the construction started
    from.
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


def _swap_families(params: DerivedParams, k: int, stage: int, target: int,
                   keys: np.ndarray, ids: np.ndarray, nus: list[int],
                   flags: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, list[int], StageLog]:
    """Swap the families that the ``flags``-marked words of a target
    length form.

    Works on the marked words only: their family stems (the keys less
    the last cell's x digit) and ``uint8`` x digits and class ids in
    family order, and per family its first index (``int32``), its
    stem, and its last cell's column j_l and last tail digit j_t
    (``uint8``).  Returns the inserted keys, their class ids, the
    length's mass table with any new classes appended, and the stage's
    log.
    """
    L = params.denom_lcm
    a, b = params.scaled
    gx = {j: list(params.gx[j]) for j in params.gy}
    eta_k = params.eta ** k
    eta_num_k, eta_den_k = eta_k.numerator, eta_k.denominator

    # Families share every digit but the last cell's x digit; a stable
    # sort on that stem keeps walk order inside each family.
    stems, fam_x = family_stems(params, target, keys[flags])
    order = np.argsort(stems, kind="stable")
    stems, fam_x, fam_ids = stems[order], fam_x[order], ids[flags][order]
    del order
    starts = np.flatnonzero(np.concatenate(
        ([True], stems[1:] != stems[:-1]))).astype(np.int32)
    stems = stems[starts]
    sizes = np.diff(starts, append=np.int32(len(fam_ids)))
    fam_j_l, fam_j_t = stem_columns(params, target, stems)

    # A family's checks and swap read only its signature: j_l, j_t and
    # its members' (x digit, class) in family order.  Each distinct
    # signature runs once, in order of first occurrence, so new classes
    # and the first error come out as in family order.
    span = int(sizes.max())
    sig = np.zeros((len(starts), 3 + 2 * span),
                   np.min_scalar_type(max(255, len(nus), span)))
    sig[:, 0] = sizes
    sig[:, 1] = fam_j_l
    sig[:, 2] = fam_j_t
    slot = np.arange(len(fam_ids), dtype=np.int32)
    slot -= np.repeat(starts, sizes)
    slot += 3
    owner = np.repeat(np.arange(len(starts), dtype=np.int32), sizes)
    sig[owner, slot] = fam_x
    slot += span
    sig[owner, slot] = fam_ids
    del slot, owner
    _, first, sig_of = np.unique(
        sig.view(np.dtype((np.void, sig.itemsize * sig.shape[1]))).ravel(),
        return_index=True, return_inverse=True)
    del sig
    by_first = np.argsort(first)
    sig_of = np.argsort(by_first)[sig_of]

    max_gap = 0.0
    h_scale = L ** target
    bound = eta_num_k * h_scale
    # An inserted mass not yet in the length's table gets a new class.
    table = list(nus)
    class_of = {nu: c for c, nu in enumerate(table)}
    terms = entropy_terms(table, target, L)
    # The class of each insert, signature by signature
    sig_ids: list[list[int]] = []

    for f in first[by_first].tolist():
        s, e = int(starts[f]), int(starts[f] + sizes[f])
        xs = fam_x[s:e].tolist()
        members = fam_ids[s:e].tolist()
        j_l, j_t = int(fam_j_l[f]), int(fam_j_t[f])
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
        ids_new = []
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
            ids_new.append(c)
        if fam_g_nu != fam_nu:
            raise AntichainInvariantError("family mass not conserved")
        gap = abs(fam_inserted_e - fam_removed_e) / (fam_nu / h_scale)
        max_gap = max(max_gap, gap)
        sig_ids.append(ids_new)

    # Each family inserts one word per x digit of its column j_t, in
    # family order: its stem with the last cell's column digit and the
    # last tail digit interchanged, that x digit, and its signature's
    # class.  Rows of x digits (by column) and of classes (by
    # signature) are padded to a common width; ``used`` marks their
    # real entries.
    width = max(map(len, gx.values()))
    col_x = np.zeros((params.m, width), np.uint8)
    col_len = np.zeros(params.m, np.intp)
    for j, column in gx.items():
        col_x[j, :len(column)] = column
        col_len[j] = len(column)
    new_ids = np.zeros((len(sig_ids), width), np.min_scalar_type(len(table)))
    for row, ids_new in enumerate(sig_ids):
        new_ids[row, :len(ids_new)] = ids_new
    lens = col_len[fam_j_t]
    used = np.arange(width) < lens[:, None]
    inserted = swap_tail(params, target, np.repeat(stems, lens),
                         col_x[fam_j_t][used])
    ins_ids = new_ids[sig_of][used]

    removed = class_counts(fam_ids, len(table))
    return inserted, ins_ids, table, StageLog(
        stage=stage,
        target_length=target,
        family_count=len(starts),
        removed_count=len(fam_ids),
        inserted_count=len(ins_ids),
        removed_mass=Fraction(
            sum(c * nu for c, nu in zip(removed, table)), h_scale),
        removed_entropy=float(class_entropy(removed, terms)),
        inserted_entropy=float(class_entropy(
            class_counts(ins_ids, len(table)), terms)),
        max_family_gap=max_gap,
    )


def _kept(values: np.ndarray, keep: np.ndarray, tail: np.ndarray,
          dtype) -> np.ndarray:
    # ``values[keep]`` then ``tail``, copied a ``_CHUNK`` at a time, so
    # no array of the kept values is made beside the result.
    out = np.empty(np.count_nonzero(keep) + len(tail), dtype)
    at = 0
    for lo in range(0, len(values), _CHUNK):
        got = values[lo:lo + _CHUNK][keep[lo:lo + _CHUNK]]
        out[at:at + len(got)] = got
        at += len(got)
    out[at:] = tail
    return out


def _covered(params: DerivedParams, h: int, keys: np.ndarray,
             extra: np.ndarray) -> KeySet:
    # The covered keys of length h: its words' ``keys`` and the
    # ascending pool keys ``extra`` whose predecessor is covered.
    covered = KeySet(params, h, len(keys) + len(extra))
    covered.add(keys)
    covered.add(extra, ascending=True)
    return covered


def build_antichain(partition) -> Antichain:
    """Rebuild a stopping set into a maximal antichain, stage by stage.

    Stage l+1 targets the ladder length xi_{l+1}.  Words of that length
    with a blockwise ancestor among the shorter survivors are grouped
    into sibling families (same word up to the x digit of the final
    pair); each family is swapped for the equal-mass family obtained from
    its smallest-x representative by interchanging the last pair's column
    digit with the last tail digit, one word per x digit of the new
    column.  A key is covered when it or a blockwise ancestor of it is a
    current word.  Going up from the shortest length, a length's covered
    keys (one ``KeySet``) are its words and those keys of its pool (the
    distinct ancestors there of longer words, ``WordColumns.ancestors``)
    whose blockwise predecessor is covered; a target word is flagged
    when its predecessor is covered.  Families are taken in sorted
    order, with their members in walk order.  Families with one
    signature (column digits j_l and j_t,
    and each member's x digit and mass class) pass or fail the checks
    alike, so each distinct signature is checked once, at its first
    family.  All mass identities are checked in exact integers as the
    stages run:

    * each family is complete (one sibling per occupant of its column);
    * removed and inserted family masses agree exactly;
    * every inserted word sits strictly below the stopping threshold
      while its predecessor sits at or above it;
    * no inserted word collides with a survivor or another insertion.
    """
    params = partition.params

    # Ladder lengths get new blocks as their stages run.  ``covered``
    # holds the length below's covered keys.
    blocks = dict(partition.blocks)
    xi_stages = xi_sequence(partition)
    stage_logs: list[StageLog] = []
    pools = dict(partition.ancestors(block_predecessor, xi_stages[0] + 1))
    first = blocks[xi_stages[0]][0]
    covered = _covered(params, xi_stages[0], first, first[:0])

    for h in range(xi_stages[0] + 1, xi_stages[-1] + 1):
        pool = pools.pop(h)
        keys, ids, nus = blocks.get(h, (pool[:0], np.empty(0, np.uint8), []))
        extra = pool[predecessor_member(params, h, pool, covered)]
        del pool
        if h not in xi_stages:
            covered = _covered(params, h, keys, extra)
            continue
        # Target words with a surviving blockwise ancestor.
        flags = predecessor_member(params, h, keys, covered)
        stage = xi_stages.index(h) + 1
        if not flags.any():
            covered = _covered(params, h, keys, extra)
            stage_logs.append(StageLog(
                stage=stage, target_length=h, family_count=0,
                removed_count=0, inserted_count=0,
                removed_mass=Fraction(0), removed_entropy=0.0,
                inserted_entropy=0.0, max_family_gap=0.0))
            continue
        covered = None                  # freed before the family pass
        if ell(params, h) == h:
            raise AntichainInvariantError(
                "replacement family with an empty tail")
        inserted, ins_ids, table, log = _swap_families(
            params, partition.k, stage, h, keys, ids, nus, flags)

        # Survivors, then inserts.  An insert collides when its key
        # occurs twice in the new block, which is read before ``extra``
        # joins it; only a block with a repeated key is sorted to see
        # whether an insert is one.
        keep = np.logical_not(flags, out=flags)
        new_keys = _kept(keys, keep, inserted, keys.dtype)
        new_ids = _kept(ids, keep, ins_ids, np.min_scalar_type(len(table)))
        del keep, flags, inserted, ins_ids
        covered = KeySet(params, h, len(new_keys) + len(extra))
        covered.add(new_keys)
        if covered.repeats:
            index = np.sort(new_keys)
            same = index[1:] == index[:-1]
            if member(index[1:][same],
                      new_keys[len(new_keys) - log.inserted_count:]).any():
                raise AntichainCollisionError(
                    f"replacement collision at length {h}")
            del index, same
        covered.add(extra, ascending=True)
        blocks[h] = (new_keys, new_ids, table)
        stage_logs.append(log)

    return Antichain(partition, blocks, xi_stages=xi_stages,
                     stage_logs=tuple(stage_logs))


@dataclass(frozen=True)
class AntichainReport:
    """Certificate of a level's antichain: maximal (exact mass plus
    pairwise incomparability) and every word below eta^k."""

    size: int
    mass_total: Fraction
    mass_exact: bool
    comparable_pairs: tuple[tuple[int, int], ...]
    below_threshold: bool     # every mass < eta^k

    @property
    def maximal(self) -> bool:
        return self.mass_exact and not self.comparable_pairs

    @property
    def ok(self) -> bool:
        return self.maximal and self.below_threshold


def verify_maximal_antichain(antichain: Antichain) -> AntichainReport:
    """Certify maximality from scratch.

    Masses are resummed exactly from each length's class counts and
    mass table, not read from the store's aggregates.  A word's only
    candidate ancestor at a shorter length is its blockwise predecessor
    there, so the incomparability scan is one level-synchronous walk
    (``WordColumns.matching_pairs``): all words go down together, one
    blockwise step per length for the distinct ancestors, which are
    looked up in a ``KeySet`` of each length's keys, and equal words
    within a length are caught by the same key set.  Comparable pairs
    are sorted index pairs (a, b), a < b.
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
        used = [(c, nu) for c, nu in zip(class_counts(ids, len(nus)), nus)
                if c]
        nu_by_len[h] = sum(c * nu for c, nu in used)
        if max(nu for _, nu in used) * eta_den_k >= eta_num_k * L ** h:
            below = False
    mass_total = sum(
        (Fraction(nu, L ** h) for h, nu in nu_by_len.items()), Fraction(0))
    violations = antichain.matching_pairs(block_predecessor)
    return AntichainReport(
        size=antichain.size,
        mass_total=mass_total,
        mass_exact=mass_total == 1,
        comparable_pairs=violations,
        below_threshold=below,
    )
