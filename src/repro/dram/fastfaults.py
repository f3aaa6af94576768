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
``traps.sample_occupancy_series``: short series (``n <= 16``, the guess
probe) are resolved from raw PCG64 words for all queried rows at once,
longer ones feed the one sampler (``traps.fill_occupancy``) with run
lengths resolved by a cumulative run-length table and one
``np.searchsorted`` per sub-draw, and take the blocked product
(``traps.latent_blocks``).

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
  draws (``loc + scale * z`` with ``loc == 0``), in the constructor;
* ``standard_exponential(k) * scale`` for ``exponential(scale, k)``
  (the weak-cell margin gaps);
* for a short series (``0 < n <= 16``; one geometric batch always covers
  it), the whole series stream from one block of raw words per row
  (``bit_generator.random_raw``, :func:`_short_columns`): per trap an
  initial-state uniform, a batch of ``rng.geometric(p)`` values, then
  the residual normals. numpy's geometric sampler takes one uniform and
  the search recurrence for ``p >= 1/3``, one standard exponential and
  ``ceil(-e / log1p(-p))`` below it. A uniform is ``(word >> 11) *
  2**-53``; an exponential runs numpy's exponential ziggurat, a normal
  its normal ziggurat (the ``repro.rng`` word mirror). With every draw on
  its ziggurat's fast path each takes one word, so the layout is static
  (:class:`_ShortLayout`); the rare off-path draws that shift it are
  resolved row by row in word order (:func:`_word_shifts`), and the rest
  runs as array operations over rows x traps x draws: initial states,
  run lengths (the search recurrence read off per-trap tables of its
  successive totals), columns from cumulative run ends. Rows are served
  :data:`_PROBE_CHUNK` at a time, so memory stays bounded by the chunk;
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
numpy's private geometric sampler), the short-series route also on
:func:`repro.rng.word_mirror_ok` (a once-per-process probe of the word
mirror of numpy's uniform, normal and exponential samplers). When a gate
is off, a short series takes the general route (:meth:`BankVrdState
._row_blocks`, bit-identical for every ``n``) and run lengths come from
``rng.geometric`` itself — slower, still bit-identical. So does a row
whose draws run past its block of words.

``tests/dram/test_fastfaults.py`` and the ``fastfaults*``, ``probe`` and
``long-series`` pairs of ``tests/differential`` assert exact equality
with the reference row.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
from repro.rng import (
    _ELEVEN,
    _fast_exponentials,
    _fast_normals,
    _normal_at,
    _slow_exponential,
    bit_generators,
    encode_element,
    generators,
    hasher_prefix,
    seed_from_prefix,
    word_mirror_ok,
)

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
    mirroring ``sample_occupancy_series``. ``table_occ``/``table_rel`` are
    the searchsorted run tables, or ``None`` when this trap must use
    ``rng.geometric`` directly (inversion-branch probability, unsaturated
    table, or mirror disabled).
    """

    __slots__ = (
        "depth", "p_occupy", "p_release", "p_occ", "p_rel", "stationary",
        "mean_run", "table_occ", "table_rel",
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
        self.table_occ: Optional[np.ndarray] = None
        self.table_rel: Optional[np.ndarray] = None


def _attach_run_tables(plans: Sequence[_TrapPlan]) -> None:
    """Give every eligible plan its searchsorted run tables, in one batch,
    when the process-wide mirror probe passed (see :func:`_build_tables`)."""
    if geometric_mirror_ok():
        _build_tables(plans)


def _build_tables(plans: Sequence[_TrapPlan]) -> None:
    """Eligible means both clamped probabilities sit on the geometric
    search branch (``p >= 1/3``); a trap whose built table does not
    saturate to :data:`_MAX_UNIFORM` keeps ``None`` tables and takes the
    direct ``rng.geometric`` route."""
    eligible = [
        plan for plan in plans
        if plan.p_occ >= _GEOM_SEARCH_P and plan.p_rel >= _GEOM_SEARCH_P
    ]
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


#: Steps of a short series, and whether each is odd.
_STEPS = np.arange(_MIN_BATCH + 1)
_ODD = _STEPS % 2 == 1

#: Rows the short-series route serves in one pass: its word block and its
#: traps x draws temporaries stay this size, whatever the query.
_PROBE_CHUNK = 256

#: Words each row's block holds beyond its static layout, for the extra
#: words of off-path draws; a row whose draws need more is served by the
#: general route.
_ROW_SLACK = 32

#: ``2**53``: a uniform ``(word >> 11) * 2**-53`` is below ``x`` exactly
#: when ``word >> 11`` is below ``x * 2**53`` (a power-of-two scaling).
_SCALE = 2.0 ** 53


def _short_constants(p_occupy: np.ndarray, p_release: np.ndarray) -> np.ndarray:
    """Per-trap constants of the short-series route, from the raw
    transition probabilities, as one ``(traps, 8)`` array: the stationary
    occupancy scaled by ``2**53``, the mean run length, then for the
    occupy and the release leave probability (clamped) the triple
    ``(p, divisor, search)``. ``search`` (1.0 or 0.0) is whether numpy's
    geometric sampler takes its search branch (``p >= 1/3``), ``divisor``
    its ``q = 1 - p`` there and ``log1p(-p)`` otherwise (``math.log1p``:
    numpy's C code calls ``log1p``, which ``np.log1p`` may not equal in
    the last ULP)."""
    constants = np.empty((p_occupy.size, 8))
    leave = constants[:, 2:].reshape(-1, 2, 3)
    leave[:, 0, 0] = p_occupy
    leave[:, 1, 0] = p_release
    p = leave[:, :, 0]
    np.clip(p, _MIN_P, _MAX_P, out=p)
    search = p >= _GEOM_SEARCH_P
    divisor = 1.0 - p
    divisor[~search] = np.fromiter(map(math.log1p, (-p[~search]).tolist()), np.float64)
    leave[:, :, 1] = divisor
    leave[:, :, 2] = search
    constants[:, 0] = p_occupy / (p_occupy + p_release) * _SCALE
    constants[:, 1] = 0.5 * (1.0 / p[:, 0] + 1.0 / p[:, 1])
    return constants


class _ShortLayout:
    """Where every draw of a short-series query (``0 < n <=
    _MIN_BATCH``) over some rows starts, if each draw takes one word.

    Row ``k`` owns ``counts[k]`` traps, entries ``bounds[k]:bounds[k +
    1]`` of the per-trap arrays, and its block ``base[k]:base[k + 1]``
    of the query's words. A trap draws its initial-state uniform at word
    ``starts[j]``, then its geometric batch (``max(_MIN_BATCH, int(n /
    mean_run * 1.5) + 8)`` values, as ``fill_occupancy`` sizes it; one
    batch always covers ``n`` steps); ``draws`` holds the words of each
    trap's first ``n`` draws. After its traps, at ``ends[k]``, the row
    draws its ``n`` residual normals; :data:`_ROW_SLACK` words follow.
    """

    __slots__ = (
        "n", "bounds", "base", "sizes", "starts", "ends", "draws",
        "stationary", "branch", "tables", "pass_lists",
    )

    def __init__(self, n: int, counts: np.ndarray, constants: np.ndarray):
        self.n = n
        self.bounds = bounds = np.zeros(counts.size + 1, dtype=np.intp)
        np.cumsum(counts, out=bounds[1:])
        batch = (n / constants[:, 1] * 1.5).astype(np.int64)
        batch += 9  # the batch and the initial-state uniform
        np.maximum(batch, _MIN_BATCH + 1, out=batch)
        trap_ends = np.zeros(batch.size + 1, dtype=np.int64)
        np.cumsum(batch, out=trap_ends[1:])
        # Every row's block adds ``n + _ROW_SLACK`` words to its traps'.
        spare = (n + _ROW_SLACK) * np.arange(counts.size + 1)
        self.base = base = trap_ends[bounds] + spare
        self.sizes = np.diff(base).tolist()
        self.ends = base[1:] - (n + _ROW_SLACK)
        self.starts = starts = trap_ends[:-1] + spare[:-1].repeat(counts)
        self.draws = starts[:, None] + _STEPS[1:n + 1]
        self.stationary = constants[:, 0]
        self.branch = constants[:, 2:].reshape(-1, 2, 3)
        # numpy's geometric search branch is ``total = prod = p; while u >
        # total: prod *= q; total += prod``. Row ``[j, leave]`` holds the
        # first ``n - 1`` successive ``total`` values for trap ``j``'s
        # occupy (0) or release (1) probability, scaled by ``2**53``:
        # accumulations along ``[p, q, q, ...]`` in the sequential order,
        # as :func:`_build_run_tables` builds them. As ``total`` never
        # decreases, a draw's value, capped at ``n``, is one plus the count
        # of them below its uniform. (Inversion-branch rows are unused.)
        tables = np.empty((max(n - 1, 1), constants.shape[0], 2))
        tables[0] = self.branch[:, :, 0]
        tables[1:] = self.branch[:, :, 1]
        np.multiply.accumulate(tables, axis=0, out=tables)
        np.add.accumulate(tables, axis=0, out=tables)
        tables *= _SCALE
        self.tables = np.ascontiguousarray(tables[:n - 1].transpose(1, 2, 0))
        # What the per-row pass of :func:`_word_shifts` reads, as lists.
        self.pass_lists = (
            base.tolist(), bounds.tolist(), starts.tolist(), self.ends.tolist(),
            self.stationary.tolist(), self.branch[:, :, 2].ravel().tolist(),
        )


def _short_columns(layout: _ShortLayout, seeds: Sequence[int]) -> tuple:
    """Every trap's occupancy column over ``layout.n`` steps, resolved
    from one block of raw words per row (row ``k`` draws from
    ``PCG64(seeds[k])``), bit for bit what ``traps.sample_occupancy_series``
    draws trap after trap.

    A geometric value is one uniform on the search branch and one
    standard exponential otherwise; :func:`_word_shifts` resolves, row
    by row, the exponentials that leave the ziggurat's fast path and the
    words they shift. The rest is array operations over all traps:
    initial states, the run lengths of each trap's first ``n`` draws
    (those cover the series; the rest of the batch only takes words),
    and the columns from cumulative run ends.

    Returns ``(occupancy, words, used, failed)``: the ``(traps, n)`` bool
    columns, the words, each row's shift past its traps (its normals
    start at ``layout.ends + used``), and the rows whose draws ran past
    their block (their columns are not valid).
    """
    n = layout.n
    words = np.empty(layout.base[-1], dtype=np.uint64)
    base = layout.base
    for k, (bit_generator, size) in enumerate(zip(bit_generators(seeds), layout.sizes)):
        words[base[k]:base[k + 1]] = bit_generator.random_raw(size)
    exponentials, fast = _fast_exponentials(words)
    totals, failed, moved = _word_shifts(words, (~fast).nonzero()[0], layout)
    starts, draws = layout.starts, layout.draws
    if moved[0]:
        # Each draw's word: its laid-out word plus the extra words of the
        # off-path draws before it in its row.
        shifts = np.zeros(words.size + 1, dtype=np.int64)
        shifts[moved[0]] = moved[1]
        shifts[base[1:]] -= totals
        np.cumsum(shifts, out=shifts)
        starts = starts + shifts[starts]
        draws = draws + shifts[draws]

    # Draw ``d`` ends a run opened in the initial state when ``d`` is
    # even: it leaves with the release probability exactly when that
    # state XOR ``d``'s parity is occupied.
    magnitudes = (words >> _ELEVEN).astype(np.float64)
    occupied = magnitudes[starts] < layout.stationary
    release = (occupied[:, None] != _ODD[:n]).view(np.int8)
    traps = np.arange(starts.size)[:, None]
    branch = layout.branch[traps, release]
    # Both branches' lengths for every draw (the other branch's value is
    # discarded): a uniform's on the search branch, an exponential's
    # ``ceil(-e / log1p(-p))`` on the inversion branch.
    searched = np.add.reduce(
        magnitudes[draws][:, :, None] > layout.tables[traps, release], axis=2
    )
    values = exponentials[draws]
    if moved[2]:
        values[moved[2], moved[3]] = moved[4]
    np.negative(values, out=values)
    values /= branch[:, :, 1]
    inverted = np.ceil(values, out=values)
    np.minimum(inverted, n, out=inverted)
    lengths = np.add(searched, 1, out=inverted, where=branch[:, :, 2] != 0)
    if not lengths.all():
        # A zero-length run (an exponential of exactly 0) may leave the
        # series uncovered; its rows take the general route.
        zero = (lengths == 0).any(axis=1).nonzero()[0]
        failed.update((layout.bounds.searchsorted(zero, side="right") - 1).tolist())
    # A new run starts at each run end; the occupancy toggles there.
    ends = np.add.accumulate(lengths, axis=1)
    np.minimum(ends, n, out=ends)
    toggles = np.zeros((starts.size, n + 1), dtype=bool)
    toggles[traps, ends.astype(np.intp)] = True
    occupancy = np.logical_xor.accumulate(toggles[:, :n], axis=1)
    occupancy ^= occupied[:, None]
    return occupancy, words, totals, failed


def _word_shifts(words: np.ndarray, slow: np.ndarray, layout: _ShortLayout) -> tuple:
    """The off-path exponentials of each row's traps, resolved in word
    order: ``(totals, failed, moved)``.

    ``slow`` lists the words off the exponential fast path. A slow word
    is a draw's start when it lies past the last resolved draw; the
    layout tells which trap and draw, and the trap's initial state (read
    from its moved start word) whether the draw is an exponential
    (inversion branch) or a uniform (search branch). An exponential takes
    its wedge or tail words and shifts every later draw of its row.

    ``totals`` is each row's shift past its traps; ``failed`` the set of
    rows whose draws run past their block (their shifts are dropped).
    ``moved`` holds five lists: for every resolved exponential the word
    one past its laid-out word and its extra words, and for those among
    their trap's first ``n`` draws the trap, the draw and the value.
    """
    base, bounds, starts, ends, stationary, search = layout.pass_lists
    n = layout.n
    totals = np.zeros(len(bounds) - 1, dtype=np.int64)
    failed = set()
    moved: Tuple[List[int], ...] = ([], [], [], [], [])
    slow_words = slow.tolist()
    cuts = slow.searchsorted(base).tolist()
    for row, (low, high) in enumerate(zip(cuts, cuts[1:])):
        if low == high:
            continue
        first, last, end = bounds[row], bounds[row + 1], ends[row]
        shift = free = 0
        current = opened = -1
        row_moves = []
        try:
            for word in slow_words[low:high]:
                if word < free:
                    continue
                static = word - shift
                if static >= end:
                    break
                trap = bisect_right(starts, static, first, last) - 1
                draw = static - starts[trap] - 1
                if draw < 0:  # the initial-state uniform
                    continue
                if trap != current:
                    current, opened = trap, shift
                occupied = (int(words[starts[trap] + opened]) >> 11) < stationary[trap]
                if search[2 * trap + (occupied != (draw % 2 == 1))]:
                    continue
                value, free = _slow_exponential(words, word)
                row_moves.append((static + 1, free - word - 1, trap, draw, value))
                shift += free - word - 1
        except IndexError:
            failed.add(row)
            continue
        if end + shift + n > base[row + 1]:
            failed.add(row)
            continue
        totals[row] = shift
        for static, extra, trap, draw, value in row_moves:
            moved[0].append(static)
            moved[1].append(extra)
            if draw < n:
                moved[2].append(trap)
                moved[3].append(draw)
                moved[4].append(value)
    return totals, failed, moved


def _residual_normals(
    words: np.ndarray, layout: _ShortLayout, totals: np.ndarray, failed: set
) -> np.ndarray:
    """Each row's ``n`` residual standard normals, drawn from word
    ``layout.ends[k] + totals[k]`` on, as an ``(R, n)`` array. A row with
    a normal off the fast path draws its normals from the first such one
    on one by one; if they run past its block, the row joins ``failed``."""
    n = layout.n
    starts = layout.ends + totals
    at = starts[:, None] + _STEPS[:n]
    values, fast = _fast_normals(words[at].ravel())
    values = values.reshape(at.shape)
    if fast.all():
        return values
    slow = ~fast.reshape(at.shape)
    for row in slow.any(axis=1).nonzero()[0].tolist():
        if row in failed:
            continue
        first = int(slow[row].argmax())
        position = int(starts[row]) + first
        try:
            for draw in range(first, n):
                values[row, draw], position = _normal_at(words, position)
        except IndexError:
            position = words.size + 1
        if position > layout.base[row + 1]:
            failed.add(row)
    return values


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
        # Every trap's depth and raw transition probabilities, row by row.
        trap_depths, trap_occupy, trap_release = (array("d") for _ in range(3))
        trap_counts = np.empty(n_rows, dtype=np.intp)
        row_rngs = generators(
            [seed_from_prefix(row_prefix, tail) for tail in self._row_tails]
        )

        for index, rng in enumerate(row_rngs):
            # -- the reference row's constructor draws --------------------
            base = float(params.mean_rdt * np.exp(rng.normal(0.0, params.spatial_sigma)))
            coupling = (params.mean_rdt / base) ** params.vulnerability_coupling
            coupling = min(max(coupling, 0.5), 3.0)

            before = len(trap_depths)
            n_small = int(rng.poisson(params.trap_count_mean))
            trap_scale = small_scale * coupling
            for _ in range(n_small):
                trap_depths.append(
                    float(min(max(rng.exponential(trap_scale), 1e-4), 0.5))
                )
                pi = float(rng.beta(2.0, 2.0))
                trap_occupy.append(max(1e-6, pi))
                trap_release.append(max(1e-6, 1.0 - pi))
            if rng.random() < params.rare_trap_prob:
                trap_depths.append(float(min(max(
                    rng.uniform(0.85, 1.15) * params.rare_trap_depth * coupling,
                    5e-3), 0.3)))
                pi = float(np.exp(rng.uniform(log_rare_lo, log_rare_hi)))
                speed = float(rng.uniform(0.8, 1.0))
                trap_occupy.append(max(1e-7, speed * pi))
                trap_release.append(max(1e-7, speed * (1.0 - pi)))
            if rng.random() < params.big_trap_prob:
                trap_depths.append(float(min(max(
                    rng.uniform(0.5, 1.0) * params.big_trap_depth * params.severity,
                    0.02), 0.8)))
                pi = float(np.exp(rng.uniform(log_big_lo, log_big_hi)))
                speed = float(rng.uniform(0.2, 1.0))
                trap_occupy.append(max(1e-6, speed * pi))
                trap_release.append(max(1e-6, speed * (1.0 - pi)))
            trap_counts[index] = len(trap_depths) - before

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
        # Row ``i``'s traps are entries ``_trap_starts[i]:_trap_starts[i + 1]``
        # of the flat per-trap arrays.
        self._trap_counts = trap_counts
        self._trap_starts = [0] + np.cumsum(trap_counts).tolist()
        self._trap_first = np.array(self._trap_starts[:-1], dtype=np.intp)
        self._trap_depths = np.array(trap_depths)
        self._trap_occupy = np.array(trap_occupy)
        self._trap_release = np.array(trap_release)
        self._plans: Optional[List[List[_TrapPlan]]] = None
        self._constants: Optional[np.ndarray] = None
        self._layouts: Dict[int, _ShortLayout] = {}
        self._tables_attached = False
        self._ones = np.ones(n_rows)
        self._factors_cache: Dict[Condition, tuple] = {}
        self._suffix_cache: Dict[Tuple[Condition, str], bytes] = {}

    @property
    def _row_plans(self) -> List[List[_TrapPlan]]:
        """Every row's trap plans, built from the flat trap columns on
        first use: the sequential chain and the long-series route step
        plans, the short-series route reads the columns."""
        if self._plans is None:
            plans = [
                _TrapPlan(*trap) for trap in zip(
                    self._trap_depths.tolist(), self._trap_occupy.tolist(),
                    self._trap_release.tolist(),
                )
            ]
            starts = self._trap_starts
            self._plans = [
                plans[starts[i]:starts[i + 1]] for i in range(len(self.rows))
            ]
        return self._plans

    def _attach_tables(self) -> None:
        """Build the searchsorted run tables of every trap, once, on the
        first series query that the short-series route does not serve."""
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
        """``(level, log_terms, seeds)`` of a series query over the packed
        rows ``indices``: every row's level, every trap's log multiplier,
        and the series stream's seed of every queried row."""
        check_series_length(n)
        condition = condition.canonical()
        _, depth_factor, _, _, level = self._factors(condition)
        suffix = self._series_suffix(condition, stream)
        recorder = obs.active()
        if recorder.enabled:
            recorder.counter_add("fastfaults.series_rows", len(indices))
            recorder.counter_add("fastfaults.series_values", len(indices) * n)
        seeds = [
            seed_from_prefix(self._series_prefix, self._row_tails[i], suffix)
            for i in indices
        ]
        # Every trap's log multiplier at once: elementwise, each is the
        # reference's ``log_depth_terms`` entry for its row.
        log_terms = log_depth_terms(
            self._trap_depths, np.repeat(depth_factor, self._trap_counts)
        )
        return level, log_terms, seeds

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
        level, log_terms, seeds = self._series_inputs(condition, n, stream, indices)
        out = np.empty((len(indices), n))
        if 0 < n <= _MIN_BATCH and word_mirror_ok() and geometric_mirror_ok():
            whole = rows is None and len(seeds) <= _PROBE_CHUNK
            indices = np.asarray(indices, dtype=np.intp)
            for start in range(0, len(seeds), _PROBE_CHUNK):
                stop = start + _PROBE_CHUNK
                out[start:stop] = self._short_chunk(
                    indices[start:stop], seeds[start:stop], n, level, log_terms,
                    whole,
                )
            return out
        for k, (i, srng) in enumerate(zip(indices, generators(seeds))):
            self._fill_row(out[k], i, log_terms, float(level[i]), n, srng)
        return out

    def _fill_row(self, out, i, log_terms, level, n, srng) -> None:
        """Write packed row ``i``'s series into ``out`` from
        :meth:`_row_blocks`."""
        for start, values in self._row_blocks(i, log_terms, level, n, srng):
            out[start:start + values.size] = values

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
        level, log_terms, seeds = self._series_inputs(condition, n, stream, [i])
        srng, = generators(seeds)
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

    # ------------------------------------------------------------------
    # Short series (n <= _MIN_BATCH) from raw words
    # ------------------------------------------------------------------

    def _short_chunk(
        self,
        rows: np.ndarray,
        seeds: Sequence[int],
        n: int,
        level: np.ndarray,
        log_terms: np.ndarray,
        whole: bool = False,
    ) -> np.ndarray:
        """The reference series of the packed rows ``rows`` for ``0 < n <=
        _MIN_BATCH``, as an ``(R, n)`` matrix: every trap's column from
        :func:`_short_columns`, then the residual normals from the words
        after the row's traps. Each row's occupancy product stays its own
        ``(n, traps) @ (traps,)`` call, as the reference makes it; the
        elementwise rest of :func:`~repro.dram.traps.block_values` runs
        once for all rows. A row whose draws run past its block of words
        is served by :meth:`_row_blocks` instead. The layout of a query
        of every row (``whole``: a one-row process, a probe state) is
        kept for the next such query.
        """
        layout = self._layouts.get(n) if whole else None
        if layout is None:
            if self._constants is None:
                self._constants = _short_constants(self._trap_occupy, self._trap_release)
            counts = self._trap_counts[rows]
            # The rows' traps, row by row, as indices into the flat columns.
            offsets = self._trap_first[rows] - counts.cumsum() + counts
            traps = np.arange(counts.sum()) + offsets.repeat(counts)
            layout = _ShortLayout(n, counts, self._constants[traps])
            if whole:
                self._layouts[n] = layout
        occupancy, words, totals, failed = _short_columns(layout, seeds)
        sums = np.zeros((rows.size, n))
        starts = self._trap_starts
        bounds = layout.pass_lists[1]
        for k, i in enumerate(rows.tolist()):
            low, high = bounds[k], bounds[k + 1]
            if low < high:
                # C-ordered ``(n, traps)`` and a fresh term array: the
                # reference's operand layout, so BLAS sums it the same way.
                np.matmul(
                    occupancy[low:high].T.copy(),
                    log_terms[starts[i]:starts[i + 1]].copy(),
                    out=sums[k],
                )
        normals = _residual_normals(words, layout, totals, failed)
        normals *= self.sigma_resid[rows, None]
        out = np.exp(sums)
        out *= level[rows, None]
        out *= np.exp(normals)
        for k in sorted(failed):
            i = int(rows[k])
            srng, = generators([seeds[k]])
            self._fill_row(out[k], i, log_terms, float(level[i]), n, srng)
        return out

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
