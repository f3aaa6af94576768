"""The asyncio campaign service and its embeddable thread harness.

One :class:`CampaignService` owns one shared sqlite
:class:`~repro.store.db.ResultStore` and one ``ProcessPoolExecutor``.
Requests arrive as JSON lines over a local TCP socket; each becomes a
:class:`~repro.service.jobs.JobSpec` and then a :class:`Job`:

* **Store first.** A key already in the store is answered immediately
  (``status: "hit"``) — this is the warm-resubmit path the benchmark
  holds under 10 ms.
* **In-flight dedup.** A second request with the same key while the
  first is computing attaches to the *same* :class:`Job` and replays its
  buffered events — the work runs once, every subscriber gets the full
  stream.
* **Streaming fan-out.** Compute shards through the exact worker entry
  points the :class:`~repro.core.engine.CampaignEngine` uses
  (:func:`~repro.core.engine._measure_units`,
  :func:`~repro.core.engine._adaptive_measure_units`,
  :func:`~repro.memsim.sweep._sweep_cells`), publishing a progress event
  as each shard retires; results are stitched with
  :func:`~repro.core.engine.assemble_partials`, so they are bit-identical
  to a direct engine run, then stored for every future client.

Metrics go to the ambient :mod:`repro.obs` recorder: ``service.jobs``,
``service.deduped``, ``service.store_hits``, ``service.computed``,
``service.errors``, ``service.events_dropped`` counters, the
``service.queue_depth`` gauge, and the ``service.job_ms`` histogram
(p50/p99 job latency in ``python -m repro report``).

Event fan-out is bounded: each job keeps at most
:data:`DEFAULT_EVENT_BUFFER_HIGH_WATER` buffered progress lines (tunable
via ``$VRD_SERVICE_EVENT_BUFFER``), and each subscriber queue is capped
at the same high-water mark, so a slow or stalled ``submit`` client can
lose old *progress* events (counted in ``service.events_dropped``) but
can never grow server memory without bound — and the terminal
result/error line is always retained and always delivered.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional

from repro import obs
from repro.core.engine import (
    CampaignCache,
    _adaptive_measure_units,
    _measure_units,
    assemble_partials,
    plan_units,
    resolve_jobs,
    shard_units,
)
from repro.errors import ConfigurationError
from repro.memsim.sweep import SweepCache, SweepResult, _sweep_cells
from repro.service.jobs import JobSpec, parse_request
from repro.store.db import (
    KIND_ADAPTIVE,
    KIND_CAMPAIGN,
    KIND_SWEEP,
    ResultStore,
)

#: Default bind host — the service is local-only by design.
DEFAULT_HOST = "127.0.0.1"

#: Environment override for the per-job event buffer high-water mark.
EVENT_BUFFER_ENV_VAR = "VRD_SERVICE_EVENT_BUFFER"

#: Per-job bound on buffered and queued event lines. Progress events
#: beyond this are dropped oldest-first; terminal events never are.
DEFAULT_EVENT_BUFFER_HIGH_WATER = 256


def event_buffer_high_water() -> int:
    """The configured high-water mark (``$VRD_SERVICE_EVENT_BUFFER``)."""
    raw = os.environ.get(EVENT_BUFFER_ENV_VAR)
    if not raw:
        return DEFAULT_EVENT_BUFFER_HIGH_WATER
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{EVENT_BUFFER_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    if value < 2:
        raise ConfigurationError(
            f"{EVENT_BUFFER_ENV_VAR} must be >= 2 (room for a progress "
            f"line and the terminal line), got {value}"
        )
    return value


def _encode_event(event: dict, raw_payload: Optional[bytes] = None) -> bytes:
    """One wire line for ``event``, encoded exactly once per job.

    ``raw_payload`` — a payload already in canonical JSON bytes (a store
    blob from :meth:`~repro.store.db.ResultStore.fetch_raw`) — is spliced
    in as the ``payload`` field without a decode/re-encode round trip.
    The wrapper's keys are fixed and its values are hashes, enum strings,
    and numbers, so the placeholder match below is unambiguous.
    """
    if raw_payload is None:
        return json.dumps(event, sort_keys=True).encode("utf-8")
    head = json.dumps(dict(event, payload=None), sort_keys=True)
    return head.encode("utf-8").replace(
        b'"payload": null', b'"payload": ' + raw_payload, 1
    )


class Job:
    """One unit of in-flight work with buffered event fan-out.

    Events are encoded to wire lines once, at publish time; subscribers
    (including deduplicated requests attaching late, which replay the
    buffer) receive ready-to-send bytes — N subscribers cost N socket
    writes, not N JSON serializations. ``None`` on a subscriber queue
    marks end-of-stream.

    Both the replay buffer and every subscriber queue are capped at
    ``high_water`` lines. When a cap is hit the *oldest* line is
    discarded (and ``service.events_dropped`` incremented); because the
    terminal result/error line is always the newest, it is never the
    one evicted, so every subscriber — however slow — still receives
    the job's outcome and the end-of-stream marker.
    """

    def __init__(
        self, job_id: int, spec: JobSpec, high_water: Optional[int] = None
    ):
        self.id = job_id
        self.spec = spec
        self.high_water = (
            high_water if high_water is not None else event_buffer_high_water()
        )
        self.events: List[bytes] = []
        self.events_dropped = 0
        self.done = False
        self._subscribers: List[asyncio.Queue] = []

    def _drop(self) -> None:
        self.events_dropped += 1
        obs.active().counter_add("service.events_dropped")

    def _offer(self, queue: asyncio.Queue, item: Optional[bytes]) -> None:
        """Enqueue ``item``, evicting the queue's oldest line if full."""
        while True:
            try:
                queue.put_nowait(item)
                return
            except asyncio.QueueFull:
                try:
                    queue.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover — races only
                    continue
                self._drop()

    def publish(
        self,
        event: dict,
        *,
        terminal: bool = False,
        raw_payload: Optional[bytes] = None,
    ) -> None:
        line = _encode_event(event, raw_payload)
        if len(self.events) >= self.high_water:
            self.events.pop(0)
            self._drop()
        self.events.append(line)
        for queue in self._subscribers:
            self._offer(queue, line)
        if terminal:
            self.done = True
            for queue in self._subscribers:
                self._offer(queue, None)
            self._subscribers.clear()

    def subscribe(self) -> "asyncio.Queue[Optional[bytes]]":
        """A queue pre-loaded with the buffered event lines (plus the
        end-of-stream marker if the job already finished).

        Queue capacity is ``high_water + 1``: the replay buffer holds at
        most ``high_water`` lines, and the extra slot guarantees the
        end-of-stream marker never evicts a replayed line.
        """
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.high_water + 1)
        for event in self.events:
            queue.put_nowait(event)
        if self.done:
            queue.put_nowait(None)
        else:
            self._subscribers.append(queue)
        return queue


class CampaignService:
    """The job queue: accept, dedup, fan out, stream, store.

    Args:
        store: Shared result store; ``None`` resolves via the usual
            precedence (``$VRD_STORE_PATH`` → ``.vrd-cache/``).
        n_jobs: Worker processes for the measurement pool; ``None``
            resolves via ``$VRD_JOBS`` (default 1).
        host/port: Bind address; port 0 picks a free port (see
            :attr:`address` after :meth:`start`).
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        n_jobs: Optional[int] = None,
        host: str = DEFAULT_HOST,
        port: int = 0,
    ):
        if store is None:
            store = ResultStore.resolve()
            if store is None:
                raise ConfigurationError(
                    "the service needs a result store; unset the empty "
                    "VRD_STORE_PATH or pass one explicitly"
                )
        self.store = store
        self.cache = CampaignCache(store=store)
        self.sweep_cache = SweepCache(store=store)
        self.n_jobs = resolve_jobs(n_jobs)
        self.host = host
        self.port = port
        self.address: "Optional[tuple[str, int]]" = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._connections: "set[asyncio.StreamWriter]" = set()
        self._inflight: Dict[str, Job] = {}
        self._next_job_id = 1
        self.jobs_accepted = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "tuple[str, int]":
        """Bind and start accepting connections; returns ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Close lingering client connections so their handler tasks exit
        # through readline() EOF rather than cancellation.
        for writer in list(self._connections):
            writer.close()
        await asyncio.sleep(0)
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self.store.close()

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.n_jobs)
        return self._pool

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    payload = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as error:
                    await self._send(
                        writer, {"event": "error",
                                 "error": f"bad request line: {error}"}
                    )
                    continue
                if isinstance(payload, dict) and "op" in payload:
                    await self._handle_op(writer, payload)
                    continue
                await self._handle_submit(writer, payload)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, event: dict) -> None:
        await self._send_line(writer, _encode_event(event))

    async def _send_line(
        self, writer: asyncio.StreamWriter, line: bytes
    ) -> None:
        writer.write(line)
        writer.write(b"\n")
        await writer.drain()

    async def _handle_op(
        self, writer: asyncio.StreamWriter, payload: dict
    ) -> None:
        op = payload.get("op")
        if op == "ping":
            await self._send(writer, {"event": "pong"})
        elif op == "stats":
            await self._send(writer, {
                "event": "stats",
                "store": self.store.stats(),
                "jobs_accepted": self.jobs_accepted,
                "inflight": len(self._inflight),
                "n_jobs": self.n_jobs,
            })
        else:
            await self._send(
                writer, {"event": "error", "error": f"unknown op {op!r}"}
            )

    async def _handle_submit(
        self, writer: asyncio.StreamWriter, payload: dict
    ) -> None:
        recorder = obs.active()
        try:
            spec = parse_request(payload, self.cache)
        except ConfigurationError as error:
            recorder.counter_add("service.errors")
            await self._send(writer, {"event": "error", "error": str(error)})
            return

        job = self._inflight.get(spec.key)
        deduped = job is not None
        if deduped:
            recorder.counter_add("service.deduped")
        else:
            job = Job(self._next_job_id, spec)
            self._next_job_id += 1
            self.jobs_accepted += 1
            recorder.counter_add("service.jobs")
            self._inflight[spec.key] = job
            recorder.gauge_set("service.queue_depth", len(self._inflight))
            asyncio.ensure_future(self._run_job(job))

        queue = job.subscribe()
        await self._send(writer, {
            "event": "accepted",
            "job_id": job.id,
            "kind": spec.kind,
            "key": spec.key,
            "deduped": deduped,
        })
        while True:
            line = await queue.get()
            if line is None:
                break
            await self._send_line(writer, line)

    # -- job execution -------------------------------------------------

    async def _run_job(self, job: Job) -> None:
        recorder = obs.active()
        started = time.perf_counter()
        try:
            # Warm path: the verified store blob is forwarded as raw
            # bytes — no decode, and the wire line is spliced, not
            # re-serialized.
            raw, _ = self.store.fetch_raw(job.spec.key, job.spec.kind)
            payload = None
            if raw is not None:
                recorder.counter_add("service.store_hits")
                status = "hit"
            else:
                if job.spec.kind == KIND_CAMPAIGN:
                    payload = await self._compute_campaign(job)
                elif job.spec.kind == KIND_ADAPTIVE:
                    payload = await self._compute_adaptive(job)
                elif job.spec.kind == KIND_SWEEP:
                    payload = await self._compute_sweep(job)
                else:  # pragma: no cover — parse_request rejects these
                    raise ConfigurationError(
                        f"unknown job kind {job.spec.kind!r}"
                    )
                recorder.counter_add("service.computed")
                status = "computed"
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            recorder.histogram_observe("service.job_ms", elapsed_ms)
            event = {
                "event": "result",
                "job_id": job.id,
                "key": job.spec.key,
                "kind": job.spec.kind,
                "status": status,
                "elapsed_ms": elapsed_ms,
            }
            if raw is None:
                event["payload"] = payload
            job.publish(event, terminal=True, raw_payload=raw)
        except Exception as error:  # noqa: BLE001 — goes to the client
            recorder.counter_add("service.errors")
            job.publish({
                "event": "error",
                "job_id": job.id,
                "key": job.spec.key,
                "error": f"{type(error).__name__}: {error}",
            }, terminal=True)
        finally:
            self._inflight.pop(job.spec.key, None)
            recorder.gauge_set("service.queue_depth", len(self._inflight))

    async def _compute_campaign(self, job: Job) -> dict:
        from repro.core.store import campaign_to_dict

        spec = job.spec
        recorder = obs.active()
        loop = asyncio.get_running_loop()
        units = plan_units(list(spec.configs), list(spec.pairs))
        shards = shard_units(units, self.n_jobs)
        futures = [
            loop.run_in_executor(
                self._executor(), _measure_units,
                (spec.module_id, spec.seed, spec.disable_interference,
                 spec.n_measurements, shard, obs.enabled()),
            )
            for shard in shards
        ]
        partials = []
        for future in asyncio.as_completed(futures):
            indices, partial, snapshot = await future
            recorder.merge_snapshot(snapshot)
            partials.append((indices, partial))
            job.publish({
                "event": "rows",
                "job_id": job.id,
                "observed": len(partial.observations),
                "done_shards": len(partials),
                "shards": len(shards),
            })
        result = assemble_partials(partials)
        self.cache.store(spec.key, result)
        return campaign_to_dict(result)

    async def _compute_adaptive(self, job: Job) -> dict:
        from repro.core.adaptive import AdaptiveDriver

        spec = job.spec
        recorder = obs.active()
        loop = asyncio.get_running_loop()
        driver = AdaptiveDriver(
            spec.module_id, list(spec.pairs), list(spec.configs),
            spec.adaptive,
        )
        rounds = 0
        while True:
            requests = driver.next_requests()
            if not requests:
                break
            shards = shard_units(requests, self.n_jobs)
            outputs = await asyncio.gather(*[
                loop.run_in_executor(
                    self._executor(), _adaptive_measure_units,
                    (spec.module_id, spec.seed, spec.disable_interference,
                     shard, obs.enabled()),
                )
                for shard in shards
            ])
            replies = []
            for shard_replies, snapshot in outputs:
                replies.extend(shard_replies)
                recorder.merge_snapshot(snapshot)
            driver.ingest(replies)
            rounds += 1
            job.publish({
                "event": "round",
                "job_id": job.id,
                "round": rounds,
                "requests": len(requests),
            })
        result = driver.finish()
        self.cache.store_adaptive(spec.key, result)
        return result.to_payload()

    async def _compute_sweep(self, job: Job) -> dict:
        spec = job.spec.sweep_spec
        recorder = obs.active()
        loop = asyncio.get_running_loop()
        cells = spec.cells()
        shards = shard_units(cells, self.n_jobs)
        futures = [
            loop.run_in_executor(
                self._executor(), _sweep_cells,
                (spec, shard, obs.enabled()),
            )
            for shard in shards
        ]
        by_cell = {}
        done = 0
        for future in asyncio.as_completed(futures):
            cell_results, snapshot = await future
            recorder.merge_snapshot(snapshot)
            done += len(cell_results)
            by_cell.update(dict(cell_results))
            job.publish({
                "event": "cells",
                "job_id": job.id,
                "done": done,
                "total": len(cells),
            })
        result = SweepResult(
            spec=spec, per_mix={cell: by_cell[cell] for cell in cells}
        )
        self.sweep_cache.store(job.spec.key, result)
        return result.to_payload()


class ServiceThread:
    """A :class:`CampaignService` on a background thread (context manager).

    The harness tests, benchmarks, and the report workload use: start,
    read :attr:`address`, connect clients, and tear down on exit. The
    service's asyncio loop is private to the thread; control crosses via
    ``run_coroutine_threadsafe``.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        n_jobs: Optional[int] = None,
        host: str = DEFAULT_HOST,
        port: int = 0,
    ):
        self.service = CampaignService(
            store=store, n_jobs=n_jobs, host=host, port=port
        )
        self.address: "Optional[tuple[str, int]]" = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    def __enter__(self) -> "ServiceThread":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("service failed to start within 30 s")
        self.address = self.service.address
        return self

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def boot():
            await self.service.start()
            self._started.set()

        self._loop.run_until_complete(boot())
        self._loop.run_forever()
        # Drain: stop the service, then let cancelled connection/job
        # tasks unwind inside the loop before closing it.
        self._loop.run_until_complete(self.service.stop())
        pending = asyncio.all_tasks(self._loop)
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self._loop.close()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
        self.address = None

    def client(self):
        """A connected :class:`~repro.service.client.ServiceClient`."""
        from repro.service.client import ServiceClient

        host, port = self.address
        return ServiceClient(host, port)
