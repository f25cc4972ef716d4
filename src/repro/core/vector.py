"""Array-backed kernels for the vectorized simulation path.

The scalar path resolves one name and drains one request at a time;
these kernels do the same work on whole batches so the engine's
vectorized client path (:mod:`repro.engine.vector_driver`) can advance
request cohorts per tuning interval instead of per event.

Three kernels, each a direct vectorization of an existing scalar
routine (and tested for agreement with it):

* :class:`SegmentTable` — an :class:`~repro.core.interval.IntervalLayout`
  flattened to sorted segment arrays; ``locate`` is
  :meth:`IntervalLayout.owner_at` over an offset batch via one
  ``searchsorted``.
* :class:`ProbeMatrix` — the probe sequences of
  :class:`~repro.core.hashing.HashFamily`, held per round and digested
  sparsely: round ``r`` is hashed only for the names a lookup actually
  carries to round ``r``, and a reconfiguration that pushes a name
  deeper extends it on demand. Offsets are pure in
  ``(seed, name, round)``, so each is digested once and reused across
  every reconfiguration epoch.
* :func:`batched_locate` — the ANU re-hash loop ("re-hash until the
  offset lands in a mapped region") run round-by-round over the
  unresolved remainder of the batch.
* :func:`fifo_drain` — the FIFO service recurrence of every
  :class:`~repro.cluster.server.FileServer` queue, evaluated per server
  segment with a prefix-sum + running-max identity.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, LookupExhaustedError
from .hashing import HashFamily
from .interval import IntervalLayout

__all__ = [
    "SegmentTable",
    "ProbeMatrix",
    "DrainedCohort",
    "batched_locate",
    "fifo_drain",
    "segment_delta",
]


class SegmentTable:
    """A frozen array view of one layout epoch for batched ownership tests.

    The layout's mapped regions are flattened to disjoint, sorted
    ``[start, end)`` segments with an owner *slot* (an integer index
    into a fixed server order) per segment. Ownership of a batch of
    offsets is a grid lookup plus a short downward walk — O(1) per
    offset instead of the O(log k) binary search, which matters when a
    reconfiguration re-resolves a million names against the table.
    """

    __slots__ = ("starts", "ends", "owners", "n_servers", "_grid_shift", "_grid_hi")

    def __init__(
        self, starts: np.ndarray, ends: np.ndarray, owners: np.ndarray, n_servers: int
    ) -> None:
        self.starts = starts
        self.ends = ends
        self.owners = owners
        self.n_servers = int(n_servers)
        # Grid accelerator: 2^g cells over [0, 1), ~4 cells per segment.
        # Powers of two make the cell computation exact (offset * 2^g is
        # a pure exponent shift, so floor() never misclassifies a cell),
        # which keeps locate() bit-identical to the searchsorted form.
        g = max(8, int(max(1, starts.size * 4) - 1).bit_length())
        self._grid_shift = min(g, 16)
        cells = 1 << self._grid_shift
        if starts.size:
            edges = np.arange(1, cells + 1, dtype=np.float64) / cells
            # _grid_hi[c]: largest segment index whose start is < the
            # cell's right edge — an upper bound for every offset that
            # floors into cell c.
            self._grid_hi = np.searchsorted(starts, edges, side="left") - 1
        else:
            self._grid_hi = np.full(cells, -1, dtype=np.int64)

    @classmethod
    def from_layout(
        cls, layout: IntervalLayout, server_slots: Mapping[object, int]
    ) -> "SegmentTable":
        """Flatten ``layout`` using ``server_slots`` (server id -> slot)."""
        segs = []
        for sid, spans in layout.segments().items():
            slot = server_slots[sid]
            for start, end in spans:
                segs.append((start, end, slot))
        if not segs:
            empty = np.empty(0, dtype=np.float64)
            return cls(empty, empty, np.empty(0, dtype=np.int64), len(server_slots))
        segs.sort()
        arr = np.asarray(segs, dtype=np.float64)
        return cls(
            np.ascontiguousarray(arr[:, 0]),
            np.ascontiguousarray(arr[:, 1]),
            arr[:, 2].astype(np.int64),
            len(server_slots),
        )

    @classmethod
    def patched(
        cls,
        base: "SegmentTable",
        changed: Mapping[int, Sequence[Tuple[float, float]]],
    ) -> "SegmentTable":
        """A new table with the given slots' spans replaced — the
        incremental constructor for epoch-delta relocation.

        ``changed`` maps owner *slot* → its new ``[start, end)`` spans
        (an empty sequence evicts the slot from the table). Segments of
        untouched slots are carried over by a vectorized mask + merge
        insert into the sorted arrays, so building the new epoch's table
        costs O(changed segments + log) instead of re-flattening every
        server's region through the :meth:`from_layout` Python loop.

        The result is bit-identical to a :meth:`from_layout` rebuild of
        the same layout: spans are disjoint with nonzero length, so
        sorting by ``start`` alone reproduces the tuple-sort order
        (pinned by a hypothesis test).
        """
        if not changed:
            return base
        changed_slots = np.fromiter(changed, dtype=np.int64, count=len(changed))
        keep = ~np.isin(base.owners, changed_slots)
        kept_starts = base.starts[keep]
        kept_ends = base.ends[keep]
        kept_owners = base.owners[keep]
        add = sorted(
            (start, end, slot)
            for slot, spans in changed.items()
            for start, end in spans
        )
        if not add:
            return cls(kept_starts, kept_ends, kept_owners, base.n_servers)
        arr = np.asarray(add, dtype=np.float64)
        add_starts = np.ascontiguousarray(arr[:, 0])
        pos = np.searchsorted(kept_starts, add_starts, side="left")
        return cls(
            np.insert(kept_starts, pos, add_starts),
            np.insert(kept_ends, pos, np.ascontiguousarray(arr[:, 1])),
            np.insert(kept_owners, pos, arr[:, 2].astype(np.int64)),
            base.n_servers,
        )

    def locate(self, offsets: np.ndarray) -> np.ndarray:
        """Owner slot per offset; ``-1`` where the offset is unmapped.

        Matches :meth:`IntervalLayout.owner_at` exactly: an offset is
        owned when it falls in ``[start, end)`` of some segment. The
        grid gives ``idx <= _grid_hi[cell]`` and the walk lowers ``idx``
        until ``starts[idx] <= offset`` — the same index
        ``searchsorted(starts, offsets, 'right') - 1`` computes, found
        in O(cell occupancy) instead of O(log k).
        """
        if self.starts.size == 0:
            return np.full(offsets.shape, -1, dtype=np.int64)
        cells = (offsets * (1 << self._grid_shift)).astype(np.int64)
        idx = self._grid_hi[cells]
        # Walk down on the (quickly shrinking) subset whose candidate
        # segment starts past the offset. ~4 cells per segment means
        # almost everything settles in zero or one step.
        over = np.flatnonzero((idx >= 0) & (self.starts[np.maximum(idx, 0)] > offsets))
        while over.size:
            idx[over] -= 1
            sub = idx[over]
            over = over[(sub >= 0) & (self.starts[np.maximum(sub, 0)] > offsets[over])]
        clipped = np.maximum(idx, 0)
        hit = (idx >= 0) & (offsets < self.ends[clipped])
        return np.where(hit, self.owners[clipped], -1)


class ProbeMatrix:
    """Probe offsets for a fixed name list, digested only where read.

    ANU re-hashes a name at round ``r`` only when its round ``r - 1``
    probe missed every mapped region, so at half occupancy about
    ``n / 2^r`` names ever reach round ``r``. The matrix mirrors that:
    row ``i`` holds ``h_r(names[i])`` for rounds ``0 .. depth[i] - 1``
    and nothing deeper. :meth:`column` digests a row's missing rounds
    the first time a caller gathers it — :func:`batched_locate` gathers
    round ``r`` only for the names still unresolved after rounds
    ``< r`` — and every ``(name, round)`` pair is digested at most once,
    through :meth:`HashFamily.batch_offsets` (values bit-identical to
    :meth:`HashFamily.offset`). Offsets are pure in
    ``(seed, name, round)``, so a digested value stays valid for every
    later epoch.

    Depth is a prefix: a row digested at round ``r`` was digested at
    every earlier round (a name only reaches round ``r`` through them).
    Each round's storage is one ``8 * len(names)``-byte array read only
    where ``depth > r``; most pages of a deep, sparsely hashed round
    are never touched.
    """

    __slots__ = ("names", "family", "_depth", "_rounds", "_sorted")

    def __init__(self, names: Sequence[str], family: HashFamily) -> None:
        self.names = list(names)
        self.family = family
        self._depth = np.zeros(len(self.names), dtype=np.int64)
        # _rounds[r][i] is valid iff _depth[i] > r.
        self._rounds: List[np.ndarray] = []
        self._sorted: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.names)

    @property
    def depth(self) -> np.ndarray:
        """Rounds digested per name (read-only view)."""
        view = self._depth.view()
        view.flags.writeable = False
        return view

    @property
    def rounds_materialized(self) -> int:
        """Deepest round any name has been digested at, plus one."""
        return len(self._rounds)

    def _digest(self, rows: np.ndarray, round_: int) -> None:
        """Digest ``round_`` for ``rows`` (distinct, each at depth ``round_``)."""
        if round_ == len(self._rounds):
            self._rounds.append(np.empty(len(self.names), dtype=np.float64))
        names = self.names
        if rows.size < len(names):
            names = [names[i] for i in rows.tolist()]
        vals = self.family.batch_offsets(names, round_)
        self._rounds[round_][rows] = vals
        self._depth[rows] = round_ + 1
        entry = self._sorted.get(round_)
        if entry is not None:
            # The round is indexed already: merge the new rows in.
            order = np.argsort(vals, kind="stable")
            vals = vals[order]
            pos = np.searchsorted(entry[0], vals, side="right")
            self._sorted[round_] = (
                np.insert(entry[0], pos, vals),
                np.insert(entry[1], pos, rows[order]),
            )

    def column(self, round_: int, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Round-``round_`` offsets of ``rows`` (default: every name).

        Rows not yet digested that deep are extended first — through
        every round they are missing, keeping depth a prefix — so the
        result is aligned with ``rows`` and bit-identical to
        :meth:`HashFamily.offset`. With ``rows=None`` the round's whole
        backing array is returned (and cached: a second call digests
        nothing and returns the same object).
        """
        if not 0 <= round_ < self.family.max_probes:
            raise ConfigurationError(
                f"round {round_} outside probe budget [0, {self.family.max_probes})"
            )
        full = rows is None
        idx = np.arange(len(self.names)) if full else np.asarray(rows, dtype=np.int64)
        need = idx[self._depth[idx] <= round_]
        if need.size:
            # Deduplicate (a row is digested once per round). Stable
            # sort is a timsort on int64: linear on the already-sorted
            # rows batched_locate gathers.
            need = np.sort(need, kind="stable")
            need = need[np.r_[True, need[1:] != need[:-1]]]
            depth = self._depth
            for r in range(int(depth[need].min()), round_ + 1):
                at = need[depth[need] == r]
                if at.size:
                    self._digest(at, r)
        if round_ >= len(self._rounds):  # no rows asked for, none digested
            return np.empty(idx.size, dtype=np.float64)
        col = self._rounds[round_]
        return col if full else col[idx]

    def sorted_column(self, round_: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(sorted offsets, name indices)`` over the names digested at
        ``round_``.

        Covers exactly the rows with ``depth > round_`` — a superset of
        the names that inspected round ``round_`` under the current
        epoch, which is all the delta scan of incremental relocation
        reads (it finds the names whose round-``r`` probe falls inside
        a changed interval with two ``searchsorted`` calls per delta
        interval — work proportional to the moved mass, not the
        catalog). Built once by a stable argsort; rows digested at this
        round afterwards (a reconfiguration pushed them deeper) are
        merge-inserted as they are digested, so the index holds the same
        ``(offset, name)`` entries as a fresh stable argsort over the
        digested rows.
        """
        entry = self._sorted.get(round_)
        if entry is None:
            rows = np.flatnonzero(self._depth > round_)
            vals = self._rounds[round_][rows] if rows.size else np.empty(0)
            order = np.argsort(vals, kind="stable")
            entry = self._sorted[round_] = (vals[order], rows[order])
        return entry


def batched_locate(
    probes: ProbeMatrix,
    table: SegmentTable,
    blocked: Optional[np.ndarray] = None,
    subset: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve every name in ``probes`` against ``table``.

    Runs the ANU probe loop breadth-first: round ``r`` re-hashes only
    the names still unresolved after rounds ``< r`` — and gathers, so
    digests, round ``r`` of ``probes`` only for those rows. Returns
    ``(owner_slot, probes_used)`` arrays (``probes_used`` counts hash
    evaluations, 1-based, matching ``ANUManager.lookup``'s accounting).

    ``blocked`` is an optional boolean mask over server slots: a probe
    landing in a blocked slot's region is treated as unmapped and the
    name continues to the next round — the alive-mask guarantee of the
    chaos path ("never route to a dead server"), enforced in the
    kernel regardless of whether the layout was already updated.

    ``subset`` restricts resolution to the given distinct name indices (the
    epoch-delta relocation path re-resolves only invalidated names);
    the returned arrays then align with ``subset`` — ``owner[j]`` is
    the resolution of name ``subset[j]``. Resolution of a name depends
    only on its own probe sequence, so a subset resolution is
    bit-identical to the corresponding entries of a full one.

    Raises :class:`LookupExhaustedError` if any name exhausts the
    family's probe budget — same failure mode as the scalar lookup.
    """
    if subset is None:
        n = len(probes)
        idx = None
    else:
        idx = np.asarray(subset, dtype=np.int64)
        n = idx.size
    owner = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=np.int64)
    if n == 0:
        return owner, used
    if blocked is not None and not blocked.any():
        blocked = None
    unresolved = np.arange(n)
    for round_ in range(probes.family.max_probes):
        gather = unresolved if idx is None else idx[unresolved]
        slots = table.locate(probes.column(round_, gather))
        hit = slots >= 0
        if blocked is not None:
            hit &= ~blocked[np.maximum(slots, 0)]
        hit_idx = unresolved[hit]
        owner[hit_idx] = slots[hit]
        used[hit_idx] = round_ + 1
        unresolved = unresolved[~hit]
        if unresolved.size == 0:
            return owner, used
    raise LookupExhaustedError(
        f"{unresolved.size} of {n} names found no mapped region in "
        f"{probes.family.max_probes} probes"
    )


class DrainedCohort(NamedTuple):
    """One cohort's drain result, grouped by server slot.

    All five arrays are in the grouped order: requests of slot
    ``server[bounds[i]]`` occupy positions ``bounds[i]:bounds[i+1]``,
    FIFO (arrival) order within each group. ``order`` maps grouped
    position → input index, so input order is recovered with
    ``out[order] = grouped``.
    """

    order: np.ndarray
    bounds: np.ndarray
    server: np.ndarray
    arrival: np.ndarray
    service: np.ndarray
    completion: np.ndarray

    def completion_in_input_order(self) -> np.ndarray:
        out = np.empty(self.completion.shape[0], dtype=np.float64)
        out[self.order] = self.completion
        return out


def fifo_drain(
    arrival: np.ndarray,
    service: np.ndarray,
    server_idx: np.ndarray,
    free_at: np.ndarray,
    *,
    power: Optional[np.ndarray] = None,
) -> DrainedCohort:
    """Completion times for a cohort of requests across FIFO servers.

    Vectorizes the per-server recurrence
    ``completion_i = max(arrival_i, completion_{i-1}) + service_i``
    using the identity ``c_i = P_i + max_{j<=i}(a_j - P_{j-1})`` over
    each server's segment, where ``P`` is the prefix sum of service
    times within the segment.

    Parameters
    ----------
    arrival:
        Request arrival times, nondecreasing (the cohort is drained in
        schedule order, like the scalar driver submits it).
    service:
        Per-request service time (work / server power) — or raw work
        when ``power`` is given.
    server_idx:
        Assigned server slot per request.
    free_at:
        Per-slot time the server's queue drains empty. **Mutated in
        place** so consecutive cohorts chain their backlogs.
    power:
        Optional per-slot processing power. When given, ``service`` is
        raw work and each request's service time is
        ``work / power[slot]``, divided in place *after* the grouping
        gather — the division is per segment (power is constant within
        a segment), so no full-size temporaries are materialized. The
        quotients are bit-identical to dividing up front.

    Returns
    -------
    A :class:`DrainedCohort` — results stay grouped by server so the
    caller can flush per-server batches without re-sorting.
    """
    n = arrival.shape[0]
    if n == 0:
        empty = np.empty(0, dtype=np.float64)
        idx = np.empty(0, dtype=np.int64)
        return DrainedCohort(idx, np.zeros(1, dtype=np.int64), idx, empty, empty, empty)
    if n != service.shape[0] or n != server_idx.shape[0]:
        raise ConfigurationError(
            f"cohort arrays disagree: {n}, {service.shape[0]}, {server_idx.shape[0]}"
        )
    # Stable sort groups each server's requests while preserving the
    # FIFO (arrival) order within the group — exactly the order the
    # scalar driver fills each server's queue. Narrowing the key dtype
    # matters: NumPy's stable integer sort is a radix sort, and int16
    # keys take a quarter of the passes of int64 (7x on 2M elements).
    key = server_idx
    if free_at.shape[0] <= np.iinfo(np.int16).max and key.dtype != np.int16:
        key = key.astype(np.int16)
    order = np.argsort(key, kind="stable")
    srv = key[order]
    arr = arrival[order]
    svc = service[order]
    seg_start = np.flatnonzero(np.r_[True, srv[1:] != srv[:-1]])
    bounds = np.r_[seg_start, n]
    heads = srv[seg_start]
    # The whole recurrence runs segment-fused: every pass (division,
    # prefix sum, slack, running max, final add) operates on one
    # server's slice while it is still cache-hot, instead of streaming
    # multi-megabyte cohort arrays through each pass in turn. Segment
    # count is bounded by the server count, so the Python loop is O(k);
    # the two full-size buffers are the only allocations.
    cum = np.empty(n, dtype=np.float64)
    completion = np.empty(n, dtype=np.float64)
    for i in range(seg_start.size):
        lo, hi = bounds[i], bounds[i + 1]
        head = heads[i]
        s = svc[lo:hi]
        if power is not None:
            np.divide(s, power[head], out=s)
        p = cum[lo:hi]
        np.cumsum(s, out=p)  # P_i within the segment
        b = completion[lo:hi]
        np.subtract(p, s, out=b)  # P_{i-1}
        np.subtract(arr[lo:hi], b, out=b)  # slack a_i - P_{i-1}
        if b[0] < free_at[head]:
            b[0] = free_at[head]
        np.maximum.accumulate(b, out=b)
        np.add(p, b, out=b)  # completion P_i + max slack
        free_at[head] = b[-1]
    return DrainedCohort(order, bounds, srv, arr, svc, completion)


def segment_delta(
    old: SegmentTable,
    new: SegmentTable,
    old_blocked: Optional[np.ndarray] = None,
    new_blocked: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Intervals of [0, 1) whose *effective* owner differs between epochs.

    The effective owner of an offset is its segment's owner slot with
    the epoch's blocked mask applied (a blocked owner counts as
    unmapped, ``-1``) — exactly what :func:`batched_locate` sees. The
    returned ``(starts, ends)`` arrays are the merged, sorted, disjoint
    intervals where old and new disagree; a name resolution can only be
    invalidated by the epoch change if one of its probe offsets at
    rounds ``<= used`` lands inside one of them:

    * at the resolving round, a delta hit means the owner changed or
      the region shrank/was blocked from under the name;
    * at any earlier round the old effective owner was ``-1`` (that is
      why probing continued), so a delta hit there means the offset is
      newly mapped — a *grown* region — and the name may now resolve
      earlier.

    Computed exactly by sweeping the union of both tables' segment
    endpoints: within each elementary interval both tables are
    constant, so locating the left endpoints (vectorized) classifies
    the whole interval. O(total segments) per reconfiguration — the
    tables are O(servers), not O(names).
    """
    pts = np.unique(
        np.concatenate(
            (old.starts, old.ends, new.starts, new.ends, np.array([0.0]))
        )
    )
    lefts = pts[pts < 1.0]
    rights = np.append(lefts[1:], 1.0)
    old_eff = old.locate(lefts)
    new_eff = new.locate(lefts)
    if old_blocked is not None and old_blocked.any():
        old_eff = np.where(old_blocked[np.maximum(old_eff, 0)] & (old_eff >= 0), -1, old_eff)
    if new_blocked is not None and new_blocked.any():
        new_eff = np.where(new_blocked[np.maximum(new_eff, 0)] & (new_eff >= 0), -1, new_eff)
    diff = old_eff != new_eff
    if not diff.any():
        empty = np.empty(0, dtype=np.float64)
        return empty, empty.copy()
    run_start = diff & np.r_[True, ~diff[:-1]]
    run_end = diff & np.r_[~diff[1:], True]
    return lefts[run_start], rights[run_end]
