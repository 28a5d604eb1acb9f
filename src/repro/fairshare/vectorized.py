"""The max-min water-filling kernel, as array operations.

Progressive filling raises every unfrozen demand's rate in proportion to
its weight until a resource saturates or a demand reaches its cap (see
:mod:`repro.fairshare.maxmin`).  One filling step here is a fixed
sequence of array operations —

* per-resource active weight sums via ``np.bincount`` over a CSR-style
  (demand, resource) incidence entry list,
* the uniform increment ``theta`` as a masked min over
  ``remaining / weight_sum`` and capped-flow headroom,
* rate/remaining updates and saturation detection as element-wise kernels
  over only the unfrozen demands and still-pressured resources —

and the answers are **bit-identical** to the pure-Python filling loop
this kernel replaced, because every float operation is performed by the
same IEEE-754 rule in the same order that loop used:

* ``np.bincount`` accumulates ``out[id[i]] += w[i]`` sequentially in entry
  order, and the entry list is laid out in (demand order, position) order
  — exactly the order the loop added weights.  Masked (frozen) entries
  contribute ``+0.0``, which never changes the bits of a running sum of
  positive weights;
* rebuilding every weight sum per step is bitwise identical to the loop's
  incremental maintenance (that was the loop's own documented invariant
  vs the full rebuild);
* ``min`` reductions are order-insensitive for the NaN-free operands that
  can occur here, divisions/multiplications are element-wise IEEE doubles,
  and the eager per-step rate update performs the same multiply-add
  sequence the loop's deferred rate replay performed;
* multi-saturation bottleneck attribution orders resources by their first
  active incidence entry, which equals the loop's rebuilt-pressure-index
  order (entry order **is** (demand order, position) lexicographic order).

The frozen loop lives on as the differential oracle in
``tests/core/_oracle_flow.py``; ``tests/fairshare/test_vectorized_maxmin.py``
fuzzes exact equality — rates, bottlenecks, residuals, iteration counts —
against it on adversarial demand sets.
"""

from __future__ import annotations

from typing import Hashable, Mapping

import numpy as np

from repro.util.errors import ConfigurationError

#: Kernel runs, exported through ``Remos.telemetry()`` and the
#: ``remos_vectorized_solves_total`` gauge.
counters = {"vectorized_solves": 0}


class KeySpace:
    """A growable resource-key ↔ integer-id interning table.

    Shared across the problems of one epoch (see
    :class:`repro.core.snaparrays.SnapshotArrays`) so route→resource rows
    can be materialised once as id arrays and reused by every scenario's
    :class:`DemandArrays` without re-hashing the keys.
    """

    __slots__ = ("index", "keys")

    def __init__(self) -> None:
        self.index: dict[Hashable, int] = {}
        self.keys: list[Hashable] = []

    def intern(self, key: Hashable) -> int:
        """The stable id for *key*, allocating one on first sight."""
        ident = self.index.get(key)
        if ident is None:
            ident = len(self.keys)
            self.index[key] = ident
            self.keys.append(key)
        return ident

    def intern_row(self, resources: tuple) -> "np.ndarray":
        """An int64 id array for a resource tuple (one entry per occurrence)."""
        intern = self.intern
        return np.array([intern(key) for key in resources], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.keys)


class DemandArrays:
    """The frozen array form of one demand set (one allocation stage).

    Built once per flow set and reused across every capacity snapshot it
    is solved against.  *weights*/*caps* are float columns, *rows* one
    interned-id array per demand (ids from *keyspace*).

    The incidence entry list pairs ``ent_dem[i]`` (demand index) with
    ``ent_res[i]`` (interned resource id), laid out in (demand order,
    position-within-row) order — one entry per occurrence.
    """

    __slots__ = (
        "n",
        "weights",
        "caps",
        "init_active",
        "capped_mask",
        "ent_dem",
        "ent_res",
        "res_ids",
        "res_keys",
        "ent_local",
        "dem_indptr",
        "init_w_active",
        "init_ent_weights",
        "n_init_active",
    )

    def __init__(self, weights, caps, rows, keyspace: KeySpace):
        self._build(
            np.asarray(weights, dtype=np.float64),
            np.asarray(caps, dtype=np.float64),
            rows,
            keyspace,
        )

    def _build(self, weights, caps, rows, keyspace: KeySpace) -> None:
        from repro.fairshare.maxmin import _RATE_FLOOR

        n = len(weights)
        self.n = n
        self.weights = weights
        self.caps = caps
        self.init_active = caps > _RATE_FLOOR
        self.capped_mask = self.init_active & (caps != np.inf)

        counts = np.fromiter((len(row) for row in rows), dtype=np.int64, count=n)
        self.dem_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.dem_indptr[1:])
        self.ent_dem = np.repeat(np.arange(n, dtype=np.int64), counts)
        self.ent_res = (
            np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        )
        # Compress the referenced ids to a local 0..R-1 space; ``res_ids``
        # ascends, so ``res_keys`` is deterministic given the keyspace.
        self.res_ids, self.ent_local = np.unique(self.ent_res, return_inverse=True)
        keys = keyspace.keys
        self.res_keys = [keys[int(ident)] for ident in self.res_ids]
        # Pre-masked initial state, copied (not rebuilt) by every fill.
        self.init_w_active = np.where(self.init_active, weights, 0.0)
        self.init_ent_weights = self.init_w_active[self.ent_dem]
        self.n_init_active = int(np.count_nonzero(self.init_active))


def fill(arrays: DemandArrays, remaining, present, thresholds):
    """One progressive-filling run over stage-local resource arrays.

    *remaining* (stage-local, drained **in place**), *present* (which
    local resources are capacity-constrained) and *thresholds* (the
    entry-clamped relative saturation cutoffs) index ``arrays.res_ids``
    positionally.  Returns ``(rates, bottleneck, iterations)`` where
    ``bottleneck[i]`` is the local resource index that froze demand *i*
    (−1 = demand-limited).  See the module docstring for why the answers
    are bit-identical to the pure-Python loop.
    """
    from repro.fairshare.maxmin import _EPS

    counters["vectorized_solves"] += 1
    n = arrays.n
    R = len(arrays.res_ids)

    rates = np.zeros(n, dtype=np.float64)
    bottleneck = np.full(n, -1, dtype=np.int64)
    active = arrays.init_active.copy()
    capped_mask = arrays.capped_mask
    ent_dem = arrays.ent_dem
    ent_local = arrays.ent_local
    weights = arrays.weights
    caps = arrays.caps
    dem_indptr = arrays.dem_indptr
    iterations = 0
    step_frozen = np.zeros(n, dtype=bool)

    # Masked views maintained incrementally: when a demand freezes, its
    # weight slot and incidence entries are zeroed once instead of
    # rebuilding the full ``np.where`` mask every step.  Frozen slots
    # contribute +0.0 either way, so the accumulation bits are identical.
    w_active = arrays.init_w_active.copy()
    ent_weights = arrays.init_ent_weights.copy()
    n_active = arrays.n_init_active

    while n_active:
        iterations += 1

        # Per-resource pressure: active crossers' weights summed in entry
        # order (bincount accumulates sequentially; frozen entries add
        # +0.0, which cannot perturb a running sum of positive weights).
        wsum = np.bincount(ent_local, weights=ent_weights, minlength=R)
        live = present & (wsum > 0.0)

        theta = float("inf")
        if live.any():
            theta = float((remaining[live] / wsum[live]).min())
        capped_active = capped_mask & active
        if capped_active.any():
            headroom = (
                (caps[capped_active] - rates[capped_active])
                / weights[capped_active]
            ).min()
            theta = min(theta, float(headroom))

        if theta == float("inf"):
            # Only uncapped flows over unconstrained resources remain.
            rates[active] = np.inf
            break

        theta = max(0.0, theta)

        # Eager rate update, full-vector: frozen demands add
        # ``theta * +0.0`` to a rate that is never -0.0 — a bit-preserving
        # no-op — while active demands see the same multiply-add sequence
        # as the pure-Python loop (eager for capped, deferred-replay for
        # uncapped — the replay performed these exact operations).
        rates += theta * w_active

        # Drain resources, full-vector: unpressured resources lose
        # ``x - theta*(+0.0) == x`` bitwise (subtracting +0.0 preserves
        # every float, including -0.0); resources outside ``present`` may
        # drift but are never read.  Saturation stays live-masked.
        remaining -= theta * wsum
        sat = np.flatnonzero(live & (remaining <= thresholds))
        if sat.size:
            remaining[sat] = np.maximum(0.0, remaining[sat])
            is_sat = np.zeros(R, dtype=bool)
            is_sat[sat] = True
            # Entries of still-active demands crossing a saturated
            # resource (``ent_weights > 0`` identifies active entries:
            # weights are strictly positive and frozen slots are zeroed).
            hit_ent = np.flatnonzero((ent_weights > 0.0) & is_sat[ent_local])
            sat_dem = ent_dem[hit_ent]
            if sat.size == 1:
                bottleneck[sat_dem] = sat[0]
            else:
                # Attribute each demand to the saturated resource whose
                # first active incidence entry comes earliest == the
                # rebuilt-pressure-index order (entry order is
                # (demand, position) lexicographic order); the demand's
                # first-processed resource wins, exactly as an in-order
                # freeze does.
                sat_res = ent_local[hit_ent]
                uniq_res, first_pos = np.unique(sat_res, return_index=True)
                firsts = np.empty(R, dtype=np.int64)
                firsts[uniq_res] = hit_ent[first_pos]
                ranks = firsts[sat_res]
                best = np.full(n, ent_dem.shape[0], dtype=np.int64)
                np.minimum.at(best, sat_dem, ranks)
                win = ranks == best[sat_dem]
                bottleneck[sat_dem[win]] = sat_res[win]
            step_frozen[sat_dem] = True

        # Freeze flows that reached their cap (bottleneck stays None).
        cap_ready = capped_active & ~step_frozen
        if cap_ready.any():
            hit = cap_ready & (rates >= caps * (1.0 - _EPS))
            if hit.any():
                rates[hit] = caps[hit]
                step_frozen[hit] = True

        frozen_ids = np.flatnonzero(step_frozen)
        if not frozen_ids.size:  # pragma: no cover - FP stagnation guard
            raise ConfigurationError(
                "max-min allocation failed to make progress; "
                "check for zero-capacity resources with active flows"
            )

        n_active -= int(frozen_ids.size)
        if not n_active:
            break
        active &= ~step_frozen
        step_frozen[:] = False
        w_active[frozen_ids] = 0.0
        if frozen_ids.size > 8:
            # Mass freeze: one gather beats per-demand slice zeroing
            # (both produce exact copies of the same w_active values).
            ent_weights = w_active[ent_dem]
        else:
            for d in frozen_ids:
                ent_weights[dem_indptr[d] : dem_indptr[d + 1]] = 0.0

    return rates, bottleneck, iterations


def solve_arrays(arrays: DemandArrays, demands, capacities: Mapping):
    """Progressive filling of one :class:`MaxMinProblem` against *capacities*.

    *demands* is the problem's demand list (for flow ids in original
    order).  Returns a :class:`~repro.fairshare.maxmin.MaxMinResult`.
    """
    from repro.fairshare.maxmin import _EPS, MaxMinResult

    R = len(arrays.res_ids)

    # Entry clamp of every capacity, with Python ``max(0.0, float(cap))``
    # NaN semantics (NaN clamps to 0.0).
    residual = {key: max(0.0, float(cap)) for key, cap in capacities.items()}

    # Gather the constrained subset of this problem's resources.
    remaining = np.zeros(R, dtype=np.float64)
    present = np.zeros(R, dtype=bool)
    for j, key in enumerate(arrays.res_keys):
        if key in residual:
            present[j] = True
            remaining[j] = residual[key]
    # Saturation thresholds are relative to the entry-clamped limits.
    thresholds = _EPS * np.maximum(remaining, 1.0)

    rates, bottleneck, iterations = fill(arrays, remaining, present, thresholds)

    result = MaxMinResult(iterations=iterations)
    res_keys = arrays.res_keys
    for i, demand in enumerate(demands):
        result.rates[demand.flow_id] = float(rates[i])
        r = bottleneck[i]
        result.bottlenecks[demand.flow_id] = None if r < 0 else res_keys[r]
    for j in np.flatnonzero(present):
        residual[res_keys[j]] = float(remaining[j])
    result.residual_capacity = residual
    return result
