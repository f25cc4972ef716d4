"""ANU randomization with array-backed assignment — the at-scale policy.

:class:`VectorANU` runs the same control loop as
:class:`~repro.policies.anu.ANURandomization` — the identical
:class:`repro.control.Controller` tuning rule over the identical
:class:`~repro.core.interval.IntervalLayout` geometry (the scalar/
vector parity tests pin this per controller) — but
keeps the file-set → server assignment as one integer array instead of
a dict, and re-resolves it per reconfiguration with the batched
kernels of :mod:`repro.core.vector`.

Reconfigurations are **incremental by default** (epoch-delta
relocation): each round patches the :class:`SegmentTable` from the
changed servers' spans, computes the exact set of intervals whose
effective owner differs between the epochs
(:func:`~repro.core.vector.segment_delta`), and re-resolves only the
names whose inspected probes (rounds ``< used``) intersect
that delta — every other name provably keeps its ``(owner, used)``
resolution, so per-round work is proportional to the *moved mass*
instead of the catalog. ``REPRO_VECTOR_RELOCATE=full`` (or
``relocate_mode="full"``) restores whole-catalog re-resolution; the
two modes are pinned bit-for-bit equivalent (assignments, sheds,
moves, chaos fingerprints) by hypothesis and golden tests.

Differences from the scalar adapter, by design:

* ``emit_moves=False`` skips materializing :class:`Move` objects on
  rebalance (at planet scale an early round can shed hundreds of
  thousands of file sets; building the objects costs more than the
  round). Shed *counts* are still tracked in :attr:`total_sheds`.
* No incompetence detector (report-driven diagnostics stay on the
  scalar path).
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster.fileset import FileSetCatalog
from ..control import as_controller
from ..core.hashing import HashFamily
from ..core.interval import IntervalLayout
from ..core.layout import LayoutEngine
from ..core.tuning import TuningPolicy
from ..core.vector import ProbeMatrix, SegmentTable, batched_locate, segment_delta
from ..knobs import env_choice, register_knob
from .base import (
    LoadManager,
    Move,
    PrescientKnowledge,
    RebalanceContext,
    RelocationStats,
)

__all__ = ["VectorANU", "RELOCATE_MODES", "relocate_mode_from_env"]

#: Valid values of ``REPRO_VECTOR_RELOCATE`` / ``relocate_mode=``.
RELOCATE_MODES: Tuple[str, ...] = ("incremental", "full")

register_knob(
    "REPRO_VECTOR_RELOCATE",
    kind="choice",
    default="incremental",
    help="relocation strategy for the vectorized ANU path",
    choices=RELOCATE_MODES,
)


def relocate_mode_from_env() -> str:
    """Relocation mode from ``REPRO_VECTOR_RELOCATE`` (default incremental).

    The variable must name a known mode; anything else raises a
    :class:`ValueError` naming the variable and the offending value — a
    silently ignored typo here would quietly change what every sweep
    measures.
    """
    mode = env_choice("REPRO_VECTOR_RELOCATE", RELOCATE_MODES, default="incremental")
    assert mode is not None  # default is non-None
    return mode


class VectorANU(RelocationStats, LoadManager):
    """Adaptive non-uniform randomization over array assignments."""

    name = "anu"

    def __init__(
        self,
        server_ids: List[object],
        hash_family: Optional[HashFamily] = None,
        policy: Optional[object] = None,
        n_partitions: Optional[int] = None,
        emit_moves: bool = True,
        controller: Optional[object] = None,
        relocate_mode: Optional[str] = None,
    ) -> None:
        self.server_ids = list(server_ids)
        self.hash_family = hash_family or HashFamily()
        self.controller = as_controller(
            controller if controller is not None else policy
        )
        #: Back-compat view: the wrapped TuningPolicy when the rule is
        #: the multiplicative one, else ``None``.
        self.policy: Optional[TuningPolicy] = getattr(
            self.controller, "policy", None
        )
        self.engine = LayoutEngine(floor_length=self.controller.floor_length)
        self.layout = IntervalLayout.initial(list(self.server_ids), n_partitions)
        self.emit_moves = bool(emit_moves)
        self._slot: Dict[object, int] = {
            sid: i for i, sid in enumerate(self.server_ids)
        }
        self._names: List[str] = []
        self._probes: Optional[ProbeMatrix] = None
        self._assign: Optional[np.ndarray] = None
        self._index: Optional[Dict[str, int]] = None
        #: Reconfiguration epoch (bumps on every rebalance/churn).
        self.epoch = 0
        self._vector_cache: Optional[Tuple[int, np.ndarray]] = None
        #: Slots currently evicted from the layout (churn); probes are
        #: blocked from resolving into them even transiently.
        self._blocked = np.zeros(len(self.server_ids), dtype=bool)
        self.total_sheds = 0
        self.total_lookups = 0
        self.total_probes = 0
        if relocate_mode is None:
            relocate_mode = relocate_mode_from_env()
        elif relocate_mode not in RELOCATE_MODES:
            raise ValueError(
                f"relocate_mode must be one of {RELOCATE_MODES}, got {relocate_mode!r}"
            )
        self.relocate_mode = relocate_mode
        self._init_relocation_stats()
        # Snapshots of the epoch the current assignment was resolved
        # against — the baseline an incremental round diffs from.
        self._table: Optional[SegmentTable] = None
        self._table_blocked: Optional[np.ndarray] = None
        self._table_partitions = 0
        self._used: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def initial_placement(
        self, catalog: FileSetCatalog, knowledge: Optional[PrescientKnowledge]
    ) -> Dict[str, object]:
        """Equal regions + batched hashing; the oracle is unused."""
        self._names = list(catalog.names)
        self._probes = ProbeMatrix(self._names, self.hash_family)
        self._index = None
        self._relocate()
        if self.relocate_mode == "incremental" and self._used.size:
            # The delta scan reads the sorted index of every round some
            # name inspected; build them now, while still in setup, so
            # an argsort over the catalog never lands inside the first
            # reconfiguration's timing. Deeper rounds are neither
            # hashed nor sorted until a reconfiguration pushes a name
            # there — then only that name is digested and merged in.
            for round_ in range(int(self._used.max())):
                self._probes.sorted_column(round_)
        return {}

    def _relocate(self) -> None:
        """Full re-resolution of the catalog (initial placement, and
        every round in ``full`` mode)."""
        table = SegmentTable.from_layout(self.layout, self._slot)
        blocked_mask = self._blocked.copy()
        blocked = blocked_mask if blocked_mask.any() else None
        self._assign, self._used = batched_locate(self._probes, table, blocked=blocked)
        self._table = table
        self._table_blocked = blocked_mask
        self._table_partitions = self.layout.n_partitions
        self.total_lookups += len(self._names)
        self.total_probes += int(self._used.sum())

    def _relocate_delta(
        self, changed_sids: Optional[Sequence[object]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Incremental re-resolution against the epoch delta.

        Patches the segment table from the changed servers' spans,
        sweeps the exact set of intervals whose effective owner changed
        (:func:`segment_delta`), and re-resolves only the names with an
        inspected probe (rounds ``< used``) inside those intervals.
        Returns ``(invalidated indices, their old owners)`` — everything
        else provably resolves identically: at rounds before its
        resolving probe a kept name's offsets were effectively unmapped
        and still are (no delta hit), and at the resolving round its
        owner is unchanged.
        """
        old_table = self._table
        old_blocked = self._table_blocked
        new_blocked = self._blocked.copy()
        if changed_sids is None or self.layout.n_partitions != self._table_partitions:
            # Unknown change set, or a repartition rewrote every
            # region's representation: rebuild the table, keep the
            # delta-based invalidation (it diffs tables, not layouts).
            new_table = SegmentTable.from_layout(self.layout, self._slot)
        else:
            members = set(self.layout.server_ids)
            n_partitions = self.layout.n_partitions
            changed = {
                self._slot[sid]: (
                    self.layout.region(sid).segments(n_partitions)
                    if sid in members
                    else []
                )
                for sid in changed_sids
            }
            new_table = SegmentTable.patched(old_table, changed)
        d_starts, d_ends = segment_delta(
            old_table, new_table, old_blocked, new_blocked
        )
        invalid: np.ndarray
        if d_starts.size == 0:
            invalid = np.empty(0, dtype=np.int64)
        else:
            used = self._used
            max_used = int(used.max()) if used.size else 0
            chunks = []
            for round_ in range(max_used):
                vals, order = self._probes.sorted_column(round_)
                lo = np.searchsorted(vals, d_starts, side="left")
                hi = np.searchsorted(vals, d_ends, side="left")
                hits = [order[a:b] for a, b in zip(lo, hi) if b > a]
                if not hits:
                    continue
                cand = np.concatenate(hits)
                cand = cand[used[cand] >= round_ + 1]
                if cand.size:
                    chunks.append(cand)
            invalid = (
                np.unique(np.concatenate(chunks))
                if chunks
                else np.empty(0, dtype=np.int64)
            )
        old_owner = self._assign[invalid].copy()
        if invalid.size:
            blocked = new_blocked if new_blocked.any() else None
            owner_sub, used_sub = batched_locate(
                self._probes, new_table, blocked=blocked, subset=invalid
            )
            self._assign[invalid] = owner_sub
            self._used[invalid] = used_sub
            self.total_lookups += int(invalid.size)
            self.total_probes += int(used_sub.sum())
        self._table = new_table
        self._table_blocked = new_blocked
        self._table_partitions = self.layout.n_partitions
        return invalid, old_owner

    # ------------------------------------------------------------------ #
    def locate(self, fileset: str) -> object:
        if self._index is None:
            self._index = {name: i for i, name in enumerate(self._names)}
        return self.server_ids[self._assign[self._index[fileset]]]

    def assignment_vector(self, server_slots: Mapping[object, int]) -> np.ndarray:
        """Current assignment as driver-slot indices (cached per epoch)."""
        cache = self._vector_cache
        if cache is not None and cache[0] == self.epoch:
            return cache[1]
        translate = np.array(
            [server_slots[sid] for sid in self.server_ids], dtype=np.int64
        )
        vec = translate[self._assign]
        self._vector_cache = (self.epoch, vec)
        return vec

    # ------------------------------------------------------------------ #
    def rebalance(self, ctx: RebalanceContext) -> List[Move]:
        """One tuning round: scale regions, re-resolve the catalog."""
        before = self.layout.lengths()
        members = set(self.layout.server_ids)
        # Under churn a partition-evicted server keeps reporting (its
        # data plane is up) — the controller only understands layout
        # members, so filter rather than raise mid-run.
        reports = [r for r in ctx.reports if r.server_id in members]
        targets = self.controller.observe(before, reports)
        self.engine.apply_targets(self.layout, targets)
        # apply_targets only touches servers with a non-trivial delta,
        # and a touched server's mapped length always changes — so the
        # length diff is exactly the changed-region set.
        after = self.layout.lengths()
        changed_sids = [sid for sid, length in after.items() if before[sid] != length]
        return self._reshuffle("tune", changed_sids)

    def use_controller(self, controller: object) -> None:
        """Swap the tuning rule in at assembly time (see ANUManager)."""
        self.controller = as_controller(controller)
        self.policy = getattr(self.controller, "policy", None)
        self.engine = LayoutEngine(floor_length=self.controller.floor_length)

    def _reshuffle(
        self,
        kind: str = "tune",
        changed_sids: Optional[Sequence[object]] = None,
    ) -> List[Move]:
        """Re-resolve the catalog against the current layout.

        ``changed_sids`` is the set of servers whose regions the caller
        just touched (``None`` = unknown → table rebuild); ``kind``
        labels the round in the relocation counters. Both modes produce
        identical assignments, shed counts, and :class:`Move` lists —
        the incremental path just skips re-resolving names the epoch
        delta cannot invalidate.
        """
        old = self._assign
        self.epoch += 1
        self._vector_cache = None
        start = time.perf_counter()
        if self.relocate_mode == "incremental" and self._table is not None:
            invalid, old_owner = self._relocate_delta(changed_sids)
            moved = self._assign[invalid] != old_owner
            changed = invalid[moved]
            changed_old = old_owner[moved]
            relocated = int(invalid.size)
        else:
            self._relocate()
            changed = np.flatnonzero(old != self._assign)
            changed_old = old[changed]
            relocated = len(self._names)
        seconds = time.perf_counter() - start
        self._note_relocation(kind, relocated, len(self._names), seconds)
        self.total_sheds += int(changed.size)
        if not self.emit_moves or changed.size == 0:
            return []
        names = self._names
        sids = self.server_ids
        new = self._assign
        return [
            Move(names[i], sids[o], sids[new[i]])
            for i, o in zip(changed, changed_old)
        ]

    # ------------------------------------------------------------------ #
    # churn (vectorized chaos path)
    # ------------------------------------------------------------------ #
    def server_failed(self, server_id: object) -> List[Move]:
        """Evict a declared-failed server and re-resolve its regions.

        The survivors' regions rescale proportionally (no full
        rebuild); only file sets that probed into the victim's regions
        move, which is what the movement-on-churn metric measures.
        """
        if server_id not in self.layout.server_ids or self.layout.n_servers <= 1:
            return []
        self.engine.evict(self.layout, server_id)
        self._blocked[self._slot[server_id]] = True
        # Eviction rescales every survivor and empties the victim.
        changed_sids = list(self.layout.server_ids) + [server_id]
        return self._reshuffle("fail", changed_sids)

    def server_added(self, server_id: object, power_hint=None) -> List[Move]:
        """Re-admit a recovered server with a fresh default region."""
        if server_id in self.layout.server_ids:
            return []
        self.engine.admit(self.layout, server_id)
        self._blocked[self._slot[server_id]] = False
        # Admission rescales every incumbent to make room; a triggered
        # repartition is caught by the partition-count snapshot.
        return self._reshuffle("recover", list(self.layout.server_ids))

    # ------------------------------------------------------------------ #
    def shared_state_entries(self) -> int:
        """O(k) region descriptors, identical to the scalar adapter."""
        return self.layout.shared_state_entries()

    @property
    def mean_probes(self) -> float:
        """Observed mean probes per resolution (≈ 2 at half occupancy)."""
        return (
            self.total_probes / self.total_lookups
            if self.total_lookups
            else float("nan")
        )

    @property
    def region_lengths(self) -> Dict[object, float]:
        """Current mapped-region length per server (diagnostics)."""
        return self.layout.lengths()
