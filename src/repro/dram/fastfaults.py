"""Array-backed device model: the one constructor of the VRD model.

The *specification* of the device is ``ReferenceRow`` in
``tests/differential/harness.py``: row at a time, one ``Trap`` object per
trap, with a scalar constructor, scalar condition factors and a one-shot
series sampler. Every float produced here is **bit-identical** to it,
because both consume the same ``numpy.random.Generator`` streams draw for
draw.

:class:`BankVrdState` draws the parameters of many rows once and packs
them into flat arrays, then serves whole-bank latent-series queries (what
``module_campaign``, the Fig. 3-7 histograms/ACF, and the Fig. 25 scatter
consume) and the batched ``guess_RDT`` probe of row selection;
:class:`~repro.dram.faults.RowVrdProcess` takes one row's parameters from
a one-row state. The per-row series is generated by a mirror of
``traps.sample_occupancy_series``: short series replay numpy's geometric
sampler value by value, longer ones feed the one sampler
(``traps.fill_occupancy``) with run lengths resolved by a cumulative
run-length table and one ``np.searchsorted`` per sub-draw, and take the
blocked product (``traps.latent_blocks``).

The stream-mirror rule
----------------------

Anything the reference row draws from a ``Generator`` in its constructor
or ``latent_series`` MUST be drawn here in the exact same order;
:class:`BankVrdState` is the only place in ``src/`` that draws the
``vrd-row`` stream. The sequential chain (``_state`` /
``begin_measurement`` / ``trial_flips``) lives on ``RowVrdProcess``, as
the reference's does, and its per-row state carries over between
callers. Its batched walks (``threshold_series`` /
``trial_flip_series``) take each block of per-step draws from
:func:`repro.rng.step_draws`, which resolves ``random`` and
``standard_normal`` from raw PCG64 words. numpy Generators consume their
bit stream element-sequentially, so a run of scalar draws equals one
array draw of the same distributions, and vice versa. The mirrors used
here are:

* ``Generator(PCG64(SeedSequence words))`` for ``derive``'s
  ``Generator(PCG64(seed))``: :func:`repro.rng.generators` hashes every
  row's seed into its four PCG64 state words in one array pass (numpy's
  own SeedSequence below a few seeds), reproducing numpy's SeedSequence
  arithmetic, and hands them to PCG64 through numpy's public
  ``ISeedSequence`` interface (both the ``vrd-row`` constructor streams
  and the ``vrd-series``/``guess`` streams);
* ``standard_normal(k) * sigmas`` for a run of ``normal(0, sigma_i)``
  draws (``loc + scale * z`` with ``loc == 0``), in the constructor and
  for a short series' residual normals;
* ``standard_exponential(k) * scale`` for ``exponential(scale, k)``
  (the weak-cell margin gaps);
* for ``rng.geometric(p)`` in short series (``n <= 16``, which one batch
  always covers): numpy's own algorithm, value by value — one uniform and
  the search recurrence for ``p >= 1/3``, one standard exponential and
  ``ceil(-e / log1p(-p))`` below it (see :func:`_short_column`); a trap
  with both leave probabilities on the search branch draws its
  initial-state uniform and its batch in one ``rng.random(batch + 1)``;
* for ``rng.geometric(p)`` with ``p >= 1/3`` in longer series:
  ``np.searchsorted(T, u, side="left") + 1`` where ``T`` is the
  cumulative table of the search recurrence, built with the same
  sequential IEEE operations by ``np.multiply.accumulate`` /
  ``np.add.accumulate`` (see :func:`_build_run_tables`) on the first
  such query;
* everything else calls the same numpy functions as the reference, with
  identical argument arrays. Elementwise arithmetic (including
  ``np.exp``/``np.log1p``, whose results do not depend on an element's
  position in an array) may run over many rows at once; each row's
  occupancy product stays its own ``(n, traps) @ (traps,)`` call, whose
  BLAS summation order depends on the shape.

Two float paths stay apart on purpose: the series takes its trap terms
from ``np.log1p`` (``traps.log_depth_terms``), the chain from
``math.log1p``/``math.exp``, each as its reference does.

Both geometric mirrors are gated on
:func:`repro.dram.faults.geometric_mirror_ok` (a once-per-process probe of
numpy's private geometric sampler); when the mirror is off, run lengths
come from ``rng.geometric`` itself — slower, still bit-identical.

``tests/dram/test_fastfaults.py`` and the ``fastfaults*``, ``probe`` and
``long-series`` pairs of ``tests/differential`` assert exact equality
with the reference row.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from numpy.random import Generator

from repro import obs
from repro.dram.cells import CellLayout
from repro.dram.faults import (
    PATTERN_VICTIM_BYTE,
    REFERENCE_T_AGG_ON,
    REFERENCE_TEMPERATURE,
    REFERENCE_WORDLINE_VOLTAGE,
    _GEOM_SEARCH_P,
    _INT64_MAX,
    Condition,
    VrdModelParams,
    geometric_mirror_ok,
)
from repro.dram.traps import (
    _MAX_P,
    _MIN_BATCH,
    _MIN_P,
    check_series_length,
    fill_occupancy,
    geometric_runs,
    latent_blocks,
    log_depth_terms,
    new_occupancy,
    trap_outputs,
)
from repro.errors import ConfigurationError
from repro.rng import encode_element, generators, hasher_prefix, seed_from_prefix

#: Uniform length of the precomputed cumulative run-length tables. The
#: search branch only applies for ``p >= 1/3`` (``q <= 2/3``), where the
#: residual tail ``q**K`` drops below one double ULP after at most
#: ``ceil(53 / -log2(2/3)) ~ 91`` terms; 128 leaves generous margin, and a
#: saturation check (below) demotes any table that still fails to cover
#: the largest possible uniform.
_RUN_TABLE_K = 128

#: The largest value ``Generator.random()`` can return (1 - 2**-53). A run
#: table whose final entry reaches this covers every drawable uniform, so
#: ``searchsorted`` can never fall off its end.
_MAX_UNIFORM = 1.0 - 2.0 ** -53

def check_probe_repeats(repeats: int) -> None:
    """The rule every guess probe's ``repeats`` obeys."""
    if repeats < 1:
        raise ConfigurationError(f"probe repeats must be >= 1, got {repeats}")


def _build_run_tables(ps: np.ndarray) -> np.ndarray:
    """Cumulative search-recurrence tables for many probabilities at once.

    For one ``p``, numpy's geometric search branch draws ``u`` and runs
    ``total_p = prod = p; while u > total_p: prod *= q; total_p += prod``.
    Row ``i`` of the result holds exactly the successive ``total_p`` values
    of that recurrence for ``ps[i]``: ``np.multiply.accumulate`` over
    ``[p, q, q, ...]`` reproduces the sequential ``prod`` updates and
    ``np.add.accumulate`` the sequential ``total_p`` sums, in the same IEEE
    order (ufunc accumulation is defined element-sequentially along the
    axis). The drawn value is then
    ``np.searchsorted(table, u, side="left") + 1`` — the index of the
    first ``total_p >= u`` — matching the scalar loop's exit condition
    ``u <= total_p``.
    """
    arr = np.repeat((1.0 - ps)[:, None], _RUN_TABLE_K, axis=1)
    arr[:, 0] = ps
    return np.add.accumulate(np.multiply.accumulate(arr, axis=1), axis=1)


class _TrapPlan:
    """One trap of one row, with its precomputed sampling plan.

    The raw transition probabilities ``p_occupy``/``p_release`` drive the
    sequential chain (``RowVrdProcess.begin_measurement``) and the
    stationary distribution (``Trap.sample_initial`` uses them unclamped);
    the clamped pair ``p_occ``/``p_rel`` feeds run-length sampling,
    mirroring ``sample_occupancy_series``. ``c_occ``/``c_rel`` and
    ``s_occ``/``s_rel`` serve :func:`_short_column`: ``s_*`` tells whether
    the clamped probability is on numpy's geometric search branch, and
    ``c_*`` is then the search recurrence's ``q = 1 - p``, otherwise the
    inversion divisor ``log1p(-p)``; ``both_search`` is whether both are.
    ``table_occ``/``table_rel`` are the searchsorted run tables, or
    ``None`` when this trap must use ``rng.geometric`` directly
    (inversion-branch probability, unsaturated table, or mirror
    disabled).
    """

    __slots__ = (
        "depth", "p_occupy", "p_release", "p_occ", "p_rel", "stationary",
        "mean_run", "c_occ", "c_rel", "s_occ", "s_rel", "both_search",
        "table_occ", "table_rel",
    )

    def __init__(self, depth: float, p_occupy: float, p_release: float):
        self.depth = depth
        self.p_occupy = p_occupy
        self.p_release = p_release
        p_occ = min(max(p_occupy, _MIN_P), _MAX_P)
        p_rel = min(max(p_release, _MIN_P), _MAX_P)
        self.p_occ = p_occ
        self.p_rel = p_rel
        self.stationary = p_occupy / (p_occupy + p_release)
        self.mean_run = 0.5 * (1.0 / p_occ + 1.0 / p_rel)
        self.s_occ = s_occ = p_occ >= _GEOM_SEARCH_P
        self.s_rel = s_rel = p_rel >= _GEOM_SEARCH_P
        self.c_occ = 1.0 - p_occ if s_occ else math.log1p(-p_occ)
        self.c_rel = 1.0 - p_rel if s_rel else math.log1p(-p_rel)
        self.both_search = s_occ and s_rel
        self.table_occ: Optional[np.ndarray] = None
        self.table_rel: Optional[np.ndarray] = None


def _attach_run_tables(plans: Sequence[_TrapPlan]) -> None:
    """Give every eligible plan its searchsorted run tables, in one batch.

    Eligible means both clamped probabilities sit on the geometric search
    branch (``p >= 1/3``) and the process-wide mirror probe passed; a trap
    whose built table does not saturate to :data:`_MAX_UNIFORM` keeps
    ``None`` tables and takes the direct ``rng.geometric`` route.
    """
    if not geometric_mirror_ok():
        return
    eligible = [plan for plan in plans if plan.both_search]
    if not eligible:
        return
    ps = np.empty(2 * len(eligible))
    ps[0::2] = [plan.p_occ for plan in eligible]
    ps[1::2] = [plan.p_rel for plan in eligible]
    tables = _build_run_tables(ps)
    saturated = tables[:, -1] >= _MAX_UNIFORM
    for i, plan in enumerate(eligible):
        if saturated[2 * i] and saturated[2 * i + 1]:
            plan.table_occ = tables[2 * i]
            plan.table_rel = tables[2 * i + 1]


def _table_runs(plan: _TrapPlan, rng: Generator):
    """Run-length drawer for :func:`~repro.dram.traps.fill_occupancy`:
    one bulk uniform array resolved against the plan's run tables, the
    values ``rng.geometric`` draws on the search branch."""

    def draw(state: bool, size: int) -> np.ndarray:
        table_a = plan.table_rel if state else plan.table_occ
        table_b = plan.table_occ if state else plan.table_rel
        u = rng.random(size)
        lengths = np.empty(size, dtype=np.int64)
        lengths[0::2] = np.searchsorted(table_a, u[0::2], side="left")
        lengths[1::2] = np.searchsorted(table_b, u[1::2], side="left")
        lengths += 1
        return lengths

    return draw


def _trap_column(
    plan: _TrapPlan, n: int, rng: Generator, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Mirror of ``traps.sample_occupancy_series`` for one planned trap.

    Same draws in the same order: the initial-state uniform, then per batch
    either bulk uniforms resolved against the run tables (search branch)
    or the reference's own ``rng.geometric`` on the identical alternating
    probability array. Writes ``out`` (a bool array of ``n`` steps unless
    given) and returns it.
    """
    if out is None:
        out = np.empty(n, dtype=bool)
    if n == 0:
        return out
    state = rng.random() < plan.stationary
    if plan.table_occ is not None:
        draw_runs = _table_runs(plan, rng)
    else:
        draw_runs = geometric_runs(rng, plan.p_occ, plan.p_rel)
    fill_occupancy(out, n, bool(state), plan.mean_run, draw_runs)
    return out


def _short_column(plan: _TrapPlan, n: int, rng: Generator) -> List[bool]:
    """Mirror of ``traps.sample_occupancy_series`` for one planned trap,
    replaying numpy's geometric sampler value by value.

    ``rng.geometric(p)`` consumes one uniform and runs the search
    recurrence for ``p >= 1/3``, and otherwise one standard exponential
    ``e`` with value ``ceil(-e / log1p(-p))`` clipped to int64. Each
    batch is drawn whole: when both leave probabilities are on the search
    branch, in one ``rng.random`` call (the first one also carries the
    initial-state uniform), otherwise one scalar draw per value. Run
    lengths are only evaluated until the series is covered. For
    ``n <= _MIN_BATCH`` the first batch always covers it, so this costs a
    few Python operations per run where :func:`_trap_column` pays numpy
    call overhead per batch.
    """
    column: List[bool] = []
    if n == 0:
        return column
    batch = max(_MIN_BATCH, int(n / plan.mean_run * 1.5) + 8)
    if plan.both_search:
        draws = rng.random(batch + 1).tolist()
        state = draws.pop(0) < plan.stationary
    else:
        state = rng.random() < plan.stationary
    occ = (plan.p_occ, plan.c_occ, plan.s_occ)
    rel = (plan.p_rel, plan.c_rel, plan.s_rel)
    samplers = (rng.standard_exponential, rng.random)  # indexed by ``search``
    while True:
        # An occupied trap's first run ends with ``p_rel``.
        pair = (rel, occ) if state else (occ, rel)
        if not plan.both_search:
            calls = (samplers[pair[0][2]], samplers[pair[1][2]]) * ((batch + 1) // 2)
            draws = [call() for call in calls[:batch]]
        occupied = state
        for i, draw in enumerate(draws):
            p, c, search = pair[i & 1]
            if search:
                total = prod = p
                length = 1
                while draw > total:
                    prod *= c
                    total += prod
                    length += 1
            else:
                length = min(math.ceil(-draw / c), _INT64_MAX)
            left = n - len(column)
            if length >= left:
                column.extend([occupied] * left)
                return column
            column.extend([occupied] * length)
            occupied = not occupied
        if batch & 1:  # the next batch opens opposite the last run's state
            state = not state
        batch = max(_MIN_BATCH, int((n - len(column)) / plan.mean_run * 1.5) + 8)
        if plan.both_search:
            draws = rng.random(batch).tolist()


class BankVrdState:
    """Rows of one bank, packed for bulk device-model queries.

    The one constructor of the device model: it draws every row's
    parameters from the row's ``vrd-row`` stream, in the order of the
    reference row's scalar constructor, and stores them columnar: base
    RDTs, residual sigmas, jittered condition-response coefficients,
    weak-cell bit/margin/polarity tables, and per-trap plans. Condition
    factors are then resolved once per canonical condition for every row
    at once (:meth:`_factors`, the one factor routine),
    :meth:`latent_series_bulk` emits a whole bank's series matrix,
    :meth:`latent_blocks` streams one row's, and :meth:`guess_means`
    serves the batched row probe of Algorithm 1's ``guess_RDT``. A
    :class:`~repro.dram.faults.RowVrdProcess` runs its sequential chain
    over a one-row state.

    Rows may repeat (deterministic streams make re-measurement identical);
    ``rows``-keyed lookups resolve to the *last* occurrence.
    """

    def __init__(
        self,
        params: VrdModelParams,
        row_bits: int,
        seed: int,
        module_id: str,
        bank: int,
        rows: Sequence[int],
        cell_layout: Optional[CellLayout] = None,
    ):
        if row_bits < params.weak_cells:
            raise ConfigurationError(
                f"row has {row_bits} bits but model needs {params.weak_cells} weak cells"
            )
        self.params = params
        self.row_bits = row_bits
        self.seed = seed
        self.module_id = module_id
        self.bank = bank
        self.rows: Tuple[int, ...] = tuple(int(row) for row in rows)
        n_rows = len(self.rows)
        self._index_of = {row: index for index, row in enumerate(self.rows)}

        row_prefix = hasher_prefix(seed, "vrd-row", module_id, bank)
        self._series_prefix = hasher_prefix(seed, "vrd-series", module_id, bank)
        self._row_tails = [encode_element(row) for row in self.rows]

        # ---- constants of the per-row constructor mirror
        depth_keys = list(params.pattern_depth)
        rdt_keys = list(params.pattern_rdt)
        # One batched standard_normal covers the constructor's run of
        # scalar normal draws (sigma_resid, pattern depth/rdt jitters,
        # taggon slope, temp coeff): ``standard_normal(k) * sigmas``
        # reproduces ``normal(0, sigma)`` value for value. The weak-cell
        # gaps are standard exponentials, scaled for every row at once.
        normal_sigmas = np.array(
            [0.4] + [0.30] * len(depth_keys) + [0.02] * len(rdt_keys) + [0.01, 0.3]
        )
        i_slope = 1 + len(depth_keys) + len(rdt_keys)
        log_rare_lo = np.log(params.rare_pi_lo)
        log_rare_hi = np.log(params.rare_pi_hi)
        log_big_lo = np.log(0.002)
        log_big_hi = np.log(0.2)
        n_cells = params.weak_cells
        small_scale = params.depth_scale * params.severity

        base_rdt = np.empty(n_rows)
        coupling_col = np.empty(n_rows)
        penalty_col = np.empty(n_rows)
        normals = np.empty((n_rows, len(normal_sigmas)))
        weak_bits = np.empty((n_rows, n_cells), dtype=np.int64)
        gaps = np.empty((n_rows, n_cells))
        row_plans: List[List[_TrapPlan]] = []
        row_rngs = generators(
            [seed_from_prefix(row_prefix, tail) for tail in self._row_tails]
        )

        for index, rng in enumerate(row_rngs):
            # -- the reference row's constructor draws --------------------
            base = float(params.mean_rdt * np.exp(rng.normal(0.0, params.spatial_sigma)))
            coupling = (params.mean_rdt / base) ** params.vulnerability_coupling
            coupling = min(max(coupling, 0.5), 3.0)

            plans: List[_TrapPlan] = []
            n_small = int(rng.poisson(params.trap_count_mean))
            trap_scale = small_scale * coupling
            for _ in range(n_small):
                depth = float(min(max(rng.exponential(trap_scale), 1e-4), 0.5))
                pi = float(rng.beta(2.0, 2.0))
                plans.append(_TrapPlan(depth, max(1e-6, pi), max(1e-6, 1.0 - pi)))
            if rng.random() < params.rare_trap_prob:
                depth = float(min(max(
                    rng.uniform(0.85, 1.15) * params.rare_trap_depth * coupling,
                    5e-3), 0.3))
                pi = float(np.exp(rng.uniform(log_rare_lo, log_rare_hi)))
                speed = float(rng.uniform(0.8, 1.0))
                plans.append(_TrapPlan(
                    depth, max(1e-7, speed * pi), max(1e-7, speed * (1.0 - pi))
                ))
            if rng.random() < params.big_trap_prob:
                depth = float(min(max(
                    rng.uniform(0.5, 1.0) * params.big_trap_depth * params.severity,
                    0.02), 0.8))
                pi = float(np.exp(rng.uniform(log_big_lo, log_big_hi)))
                speed = float(rng.uniform(0.2, 1.0))
                plans.append(_TrapPlan(
                    depth, max(1e-6, speed * pi), max(1e-6, speed * (1.0 - pi))
                ))

            rng.standard_normal(out=normals[index])
            bits = weak_bits[index]
            bits[:] = rng.choice(row_bits, size=n_cells, replace=False)
            bits.sort()
            rng.shuffle(bits)
            rng.standard_exponential(out=gaps[index])
            penalty_col[index] = rng.uniform(0.03, 0.15)
            # -- end of the constructor draws ----------------------------

            base_rdt[index] = base
            coupling_col[index] = coupling
            row_plans.append(plans)

        # The draw-free remainder of the constructor, for every row at
        # once: elementwise numpy ops and row-wise cumulative sums perform
        # the reference's IEEE operations in the reference's order.
        normals *= normal_sigmas
        exp_normals = np.exp(normals)
        self.sigma_resid = params.sigma_resid * coupling_col * exp_normals[:, 0]
        self._pattern_depth = {
            key: params.pattern_depth[key] * exp_normals[:, 1 + j]
            for j, key in enumerate(depth_keys)
        }
        self._pattern_rdt = {
            key: params.pattern_rdt[key] * exp_normals[:, 1 + len(depth_keys) + j]
            for j, key in enumerate(rdt_keys)
        }
        self._taggon_depth_slope = params.taggon_depth_slope + normals[:, i_slope]
        self._temp_depth_coeff = params.temp_depth_coeff * exp_normals[:, i_slope + 1]
        gaps *= params.cell_margin_scale
        gaps *= 2.0 ** np.arange(n_cells)
        gaps[:, 0] = 0.0
        self.weak_cell_margins = np.cumsum(gaps, axis=1)
        self.weak_cell_bits = weak_bits
        # Every row's weak-cell polarities (true cell or not); no layout
        # means all cells are true cells.
        if cell_layout is None:
            self.weak_cell_true = np.ones(weak_bits.shape, dtype=bool)
        else:
            self.weak_cell_true = cell_layout.bits_are_true_cells(
                np.array(self.rows, dtype=np.int64)[:, None], weak_bits
            )

        recorder = obs.active()
        if recorder.enabled:
            recorder.counter_add("fastfaults.states_built")
            recorder.counter_add("fastfaults.rows_packed", n_rows)

        self.base_rdt = base_rdt
        self.uncharged_penalty = penalty_col
        self._row_plans = row_plans
        # Row ``i``'s traps are entries ``_trap_starts[i]:_trap_starts[i + 1]``
        # of the flat per-trap arrays.
        self._trap_counts = np.array([len(plans) for plans in row_plans], dtype=np.intp)
        self._trap_starts = [0] + np.cumsum(self._trap_counts).tolist()
        self._trap_depths = np.array([plan.depth for plans in row_plans for plan in plans])
        self._tables_attached = False
        self._ones = np.ones(n_rows)
        self._factors_cache: Dict[Condition, tuple] = {}
        self._suffix_cache: Dict[Tuple[Condition, str], bytes] = {}

    def _attach_tables(self) -> None:
        """Build the searchsorted run tables of every trap, once, on the
        first series query that :func:`_short_column` does not serve."""
        self._tables_attached = True
        plans = [plan for row in self._row_plans for plan in row]
        _attach_run_tables(plans)
        recorder = obs.active()
        if recorder.enabled:
            mirrored = sum(1 for plan in plans if plan.table_occ is not None)
            recorder.counter_add("fastfaults.traps.mirror", mirrored)
            recorder.counter_add("fastfaults.traps.fallback", len(plans) - mirrored)
            recorder.gauge_set(
                "faults.geometric_mirror", 1.0 if geometric_mirror_ok() else 0.0
            )

    # ------------------------------------------------------------------
    # Condition factors, resolved for every row at once
    # ------------------------------------------------------------------

    def _factors(self, condition: Condition) -> tuple:
        """``(rdt_factor, depth_factor, margins, first_flip_margin, level)``
        arrays for a canonical condition; cached.

        Every operation matches the reference row's scalar ``factors``
        elementwise: the products keep its left-to-right association
        (scalar * array binary ops are applied per element in the same
        order), and ``np.maximum`` equals the scalar ``max`` floor per
        element.
        """
        cached = self._factors_cache.get(condition)
        if cached is not None:
            return cached
        params = self.params
        pattern = condition.pattern

        def g(t: float) -> float:
            return 1.0 / (1.0 + (t / params.taggon_rdt_tau_ns) ** params.taggon_rdt_alpha)

        taggon_rdt_factor = g(condition.t_agg_on) / g(REFERENCE_T_AGG_ON)
        delta_t = condition.temperature - REFERENCE_TEMPERATURE
        undervolt = REFERENCE_WORDLINE_VOLTAGE - condition.wordline_voltage
        temp_rdt_term = max(0.05, 1.0 + params.temp_rdt_coeff * delta_t)
        volt_rdt_term = max(0.05, 1.0 + params.voltage_rdt_coeff * undervolt)
        volt_depth_term = max(0.05, 1.0 + params.voltage_depth_coeff * undervolt)
        decades = math.log10(condition.t_agg_on / REFERENCE_T_AGG_ON)

        pattern_rdt = self._pattern_rdt.get(pattern, self._ones)
        rdt_factor = (
            pattern_rdt * taggon_rdt_factor * temp_rdt_term * volt_rdt_term
        )
        taggon_term = (
            1.0
            + self._taggon_depth_slope * decades
            + params.taggon_depth_quad * decades * decades
        )
        pattern_depth = self._pattern_depth.get(pattern, self._ones)
        depth_factor = (
            pattern_depth
            * np.maximum(0.05, taggon_term)
            * np.maximum(0.05, 1.0 + self._temp_depth_coeff * delta_t)
            * volt_depth_term
        )

        if pattern in PATTERN_VICTIM_BYTE:
            byte = PATTERN_VICTIM_BYTE[pattern]
            bit_values = (byte >> (self.weak_cell_bits % 8)) & 1
            charged = (bit_values == 1) == self.weak_cell_true
        else:
            charged = np.ones_like(self.weak_cell_true)
        margins = self.weak_cell_margins + np.where(
            charged, 0.0, self.uncharged_penalty[:, None]
        )
        first_flip_margin = margins.min(axis=1)
        level = self.base_rdt * rdt_factor * (1.0 + first_flip_margin)
        resolved = (rdt_factor, depth_factor, margins, first_flip_margin, level)
        self._factors_cache[condition] = resolved
        return resolved

    def _series_suffix(self, condition: Condition, stream: str) -> bytes:
        key = (condition, stream)
        suffix = self._suffix_cache.get(key)
        if suffix is None:
            elements = [
                condition.pattern, str(condition.t_agg_on),
                str(condition.temperature), str(condition.wordline_voltage),
                stream,
            ]
            suffix = b"".join(encode_element(element) for element in elements)
            self._suffix_cache[key] = suffix
        return suffix

    def _local_indices(self, rows: Optional[Sequence[int]]) -> Sequence[int]:
        if rows is None:
            return range(len(self.rows))
        return [self._index_of[int(row)] for row in rows]

    # ------------------------------------------------------------------
    # Fast path: bulk latent series
    # ------------------------------------------------------------------

    def _series_inputs(
        self, condition: Condition, n: int, stream: str, indices: Sequence[int]
    ) -> tuple:
        """``(level, log_terms, rngs)`` of a series query over the packed
        rows ``indices``: every row's level, every trap's log multiplier,
        and one series generator per queried row."""
        check_series_length(n)
        condition = condition.canonical()
        _, depth_factor, _, _, level = self._factors(condition)
        suffix = self._series_suffix(condition, stream)
        recorder = obs.active()
        if recorder.enabled:
            recorder.counter_add("fastfaults.series_rows", len(indices))
            recorder.counter_add("fastfaults.series_values", len(indices) * n)
        series_rngs = generators([
            seed_from_prefix(self._series_prefix, self._row_tails[i], suffix)
            for i in indices
        ])
        # Every trap's log multiplier at once: elementwise, each is the
        # reference's ``log_depth_terms`` entry for its row.
        log_terms = log_depth_terms(
            self._trap_depths, np.repeat(depth_factor, self._trap_counts)
        )
        return level, log_terms, series_rngs

    def latent_series_bulk(
        self,
        condition: Condition,
        n: int,
        stream: str = "series",
        rows: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Latent series of every row (or a subset), as an ``(R, n)`` matrix.

        Row ``k`` is bit-identical to the reference row's
        ``latent_series(condition, n, stream)`` for the corresponding
        physical row.
        """
        indices = self._local_indices(rows)
        level, log_terms, series_rngs = self._series_inputs(
            condition, n, stream, indices
        )
        if 0 < n <= _MIN_BATCH and geometric_mirror_ok():
            return self._short_series(indices, level, n, series_rngs, log_terms)
        out = np.empty((len(indices), n))
        for k, (i, srng) in enumerate(zip(indices, series_rngs)):
            blocks = self._row_blocks(i, log_terms, float(level[i]), n, srng)
            for start, values in blocks:
                out[k, start:start + values.size] = values
        return out

    def latent_blocks(
        self, row: int, condition: Condition, n: int, stream: str = "series"
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """One row's :meth:`latent_series_bulk` in blocks: an iterator of
        ``(start, values)`` pairs, one per
        :data:`~repro.dram.traps.SERIES_BLOCK` measurements, so a long
        series never needs more than its bit-packed occupancy and one
        block.

        Every trap's occupancy is drawn before this returns; the residual
        normals are drawn block by block as the iterator is consumed,
        after all traps, so the stream order is that of one
        ``normal(0, sigma, n)`` draw.
        """
        i = self._index_of[int(row)]
        level, log_terms, (srng,) = self._series_inputs(condition, n, stream, [i])
        return self._row_blocks(i, log_terms, float(level[i]), n, srng)

    def guess_means(
        self,
        condition: Condition,
        repeats: int = 10,
        rows: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Guess-stream series means (the ``guess_rdt`` quantity) per row."""
        check_probe_repeats(repeats)
        samples = self.latent_series_bulk(
            condition, repeats, stream="guess", rows=rows
        )
        # A reduction along each row's contiguous axis sums it as
        # ``series.mean()`` sums the row alone.
        return samples.mean(axis=1)

    def _short_series(
        self,
        indices: Sequence[int],
        level: np.ndarray,
        n: int,
        series_rngs: Iterable[Generator],
        log_terms: np.ndarray,
    ) -> np.ndarray:
        """Mirror of ``latent_series`` for ``0 < n <= _MIN_BATCH`` and the
        packed rows ``indices``, as an ``(R, n)`` matrix.

        Each row's stream draws what the reference draws, in its order:
        every trap's column (:func:`_short_column`), then the residual
        normals, as standard normals (``normal(0, sigma)`` is ``sigma *
        z``). Each row's occupancy product is its own ``(n, traps) @
        (traps,)`` call, as the reference makes it; the elementwise rest
        of :func:`~repro.dram.traps.block_values` then runs once for all
        rows.
        """
        starts = self._trap_starts
        sums = np.zeros((len(indices), n))
        normals = np.empty((len(indices), n))
        for k, (i, srng) in enumerate(zip(indices, series_rngs)):
            plans = self._row_plans[i]
            columns: List[bool] = []
            for plan in plans:
                columns += _short_column(plan, n, srng)
            if plans:
                # C-ordered ``(n, traps)`` and a fresh term array: the
                # reference's operand layout, so BLAS sums it the same way.
                occupancy = np.array(columns, dtype=bool).reshape(len(plans), n)
                np.matmul(
                    occupancy.T.copy(), log_terms[starts[i]:starts[i + 1]].copy(),
                    out=sums[k],
                )
            srng.standard_normal(out=normals[k])
        rows = np.array(indices, dtype=np.intp)
        normals *= self.sigma_resid[rows, None]
        values = np.exp(sums)
        values *= level[rows, None]
        values *= np.exp(normals)
        return values

    def _row_blocks(
        self,
        i: int,
        log_terms: np.ndarray,
        level: float,
        n: int,
        srng: Generator,
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Mirror of the reference series for packed row ``i`` (canonical
        condition already folded into ``log_terms``/``level``), as
        :func:`~repro.dram.traps.latent_blocks` yields it: every trap's
        column (:func:`_trap_column`), then the blocked product."""
        if not self._tables_attached:
            self._attach_tables()
        plans = self._row_plans[i]
        occupancy = new_occupancy(len(plans), n)
        for plan, plan_out in zip(plans, trap_outputs(occupancy)):
            _trap_column(plan, n, srng, plan_out)
        row_terms = log_terms[self._trap_starts[i]:self._trap_starts[i + 1]].copy()
        return latent_blocks(
            occupancy, n, row_terms, level, float(self.sigma_resid[i]), srng
        )
