"""Group commit: many acknowledged mutations, one fsync.

PR 9's durability contract appends every acknowledged gateway mutation
before its response goes out; under ``wal_fsync="always"`` that is one
``fsync`` per request — correct, and the single slowest thing on the
serving hot path.  :class:`GroupCommitter` amortizes it with the
classic leader/follower scheme:

* a request *enqueues* its record (appending the frame immediately, so
  the physical log keeps application order) and receives a future;
* the first enqueue of a batch elects itself leader and schedules one
  flush as a task, so every enqueue of the same event-loop iteration
  rides along for free;
* the leader runs the ``fsync`` in an executor thread — the event loop
  keeps accepting while the disk works, and what it accepts is the next
  batch, so the sync in flight is all the batching window there is —
  then resolves every future in the batch.

The response is only written after the future resolves, so the
client-visible guarantee is unchanged: every acknowledged mutation is
durable.  What changes is the price — ``fsyncs / mutations`` drops
toward ``1 / batch size`` under concurrency (visible in
``stats_snapshot()["fsyncs_per_mutation"]``), and a lone request pays one
hand-off to the executor thread over an inline ``fsync``.
"""

from __future__ import annotations

import asyncio


class GroupCommitter:
    """Batch ``fsync``\\ s of an open :class:`WriteAheadLog`.

    The log's own policy should be ``never`` — the committer decides
    when to sync.  All methods must be called on one event loop.
    """

    def __init__(self, log) -> None:
        self.log = log
        self._pending: "list[asyncio.Future]" = []
        self._leader: "asyncio.Task | None" = None
        self._closed = False
        self.stats = {"mutations": 0, "fsyncs": 0, "batches": 0,
                      "largest_batch": 0}

    def enqueue(self, kind_append, *args, **kwargs) -> "asyncio.Future":
        """Append now, fsync later; resolves when the batch is durable.

        *kind_append* is the bound log append method (e.g.
        ``log.append_op``); calling it here, synchronously, keeps the
        frame order identical to the application order the caller
        established under its service lock.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if self._closed:
            future.set_exception(RuntimeError(
                "group committer is closed"))
            return future
        try:
            kind_append(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - surface to the caller
            future.set_exception(exc)
            return future
        self.stats["mutations"] += 1
        self._pending.append(future)
        if self._leader is None:
            self._leader = loop.create_task(self._flush_now())
        return future

    async def _flush_now(self) -> None:
        # Step down first: enqueues arriving while the sync runs in
        # the executor elect a fresh leader for the next batch.
        self._leader = None
        batch, self._pending = self._pending, []
        if not batch:
            return
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, self.log.sync)
        except Exception as exc:  # noqa: BLE001 - fail the whole batch
            for future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        self.stats["fsyncs"] += 1
        self.stats["batches"] += 1
        self.stats["largest_batch"] = max(
            self.stats["largest_batch"], len(batch))
        for future in batch:
            if not future.done():
                future.set_result(None)

    async def close(self) -> None:
        """Flush the tail and refuse further enqueues.

        Takes over the pending batch directly — a leader that has not
        run yet wakes to an empty batch and no-ops, and a sync
        already in flight is covered because ``fsync`` on the active
        segment persists every byte appended before this call, batch
        boundaries or not.
        """
        if self._closed:
            return
        await self._flush_now()
        self._closed = True

    def stats_snapshot(self) -> dict:
        snapshot = dict(self.stats)
        mutations = snapshot["mutations"]
        snapshot["fsyncs_per_mutation"] = (
            round(snapshot["fsyncs"] / mutations, 6) if mutations else 0.0)
        return snapshot
