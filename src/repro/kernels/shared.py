"""Shared-memory publication of a model's out-of-band pickle buffers.

The multi-process fleet wants N worker processes to serve replicas of
the same deployment slots without paying N copies of the models. The
fleet pickles each slot's localizer with protocol 5 and a
``buffer_callback``, so every contiguous ndarray it holds (radio maps,
training matrices, encoder weights, index tables) leaves the pickle as
a raw buffer. This module is where those buffers live:

* :class:`SharedArtifactRegion` copies a sequence of byte buffers into
  **one** ``multiprocessing.shared_memory`` segment (one region per
  slot, not one segment per array — /dev/shm entries stay countable)
  and hands out a picklable :class:`SharedRegionHandle`.
* A worker process calls :meth:`SharedRegionHandle.attach` and gets the
  same buffers back as **read-only memoryview slices** of the segment,
  ready for ``pickle.loads(blob, buffers=...)`` — NumPy rebuilds every
  array as a view over the shared pages, with no copy under both
  ``fork`` and ``spawn``.

Lifecycle is owner-driven: the publishing process (the fleet front-end)
calls :meth:`SharedArtifactRegion.unlink` on shutdown, which removes
the ``/dev/shm`` entry; workers only ever ``close()`` their mappings.
Attached buffers are read-only — a worker scribbling on a shared model
would corrupt every replica at once.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

#: Every segment this repo creates is named with this prefix, so tests
#: (and operators) can audit /dev/shm for leaks unambiguously.
SEGMENT_PREFIX = "repro-shm-"


def _hold_tracker_lock_across_fork() -> None:
    """Never fork while another thread is inside the resource tracker.

    Creating, attaching and unlinking a segment all talk to the
    resource tracker under its lock, and drop the GIL mid-write. A
    thread forking a fleet worker at that moment (a crash respawn does,
    from a pipe-reader thread) would hand the child a lock no thread
    will ever release, and the child's own attach would block forever.
    Holding the lock across every fork closes that window.
    """
    lock = resource_tracker._resource_tracker._lock
    os.register_at_fork(
        before=lock.acquire,
        after_in_parent=lock.release,
        after_in_child=lock.release,
    )


if hasattr(os, "register_at_fork"):  # POSIX: the only place fork exists
    _hold_tracker_lock_across_fork()


@dataclass(frozen=True)
class SharedRegionHandle:
    """Picklable address of a published region (ship it to workers).

    ``extents`` holds one ``(offset, nbytes)`` pair per published
    buffer, in publication order.
    """

    segment: str
    extents: tuple

    def attach(self) -> AttachedRegion:
        """Map the segment and slice it back into read-only buffers.

        Attaching registers the name with the resource tracker again,
        which is harmless dedup here: fleet workers are multiprocessing
        children, so they *share* the owner's tracker process (its fd
        is inherited under both fork and spawn) and its cache is a set
        — the owner's single unlink-time unregister balances it. The
        bpo-38119 double-unlink wart only bites attachers running their
        own tracker (a foreign, non-descendant process), which this
        layer never creates.
        """
        shm = shared_memory.SharedMemory(name=self.segment)
        # Read-only: replicas share these pages; a write in one worker
        # would silently corrupt every other replica.
        view = shm.buf.toreadonly()
        buffers = [view[offset : offset + n] for offset, n in self.extents]
        return AttachedRegion(shm=shm, buffers=buffers)


@dataclass
class AttachedRegion:
    """A worker-side mapping: buffers slicing one shared segment."""

    shm: shared_memory.SharedMemory
    buffers: list

    def close(self) -> None:
        """Drop this process's mapping (the segment itself lives on).

        Objects rebuilt over the buffers must not be used afterwards;
        drop references to them first (their arrays hold the mapping
        alive, so closing under a live view leaves it to the last
        reference's release).
        """
        self.buffers = []
        with contextlib.suppress(BufferError):  # pragma: no cover - live view
            self.shm.close()


class SharedArtifactRegion:
    """Owner side: one shared segment holding a sequence of buffers.

    Construct with ``buffers`` (any C-contiguous buffer objects, copied
    in once, 64-byte aligned) and ship :attr:`handle` to any number of
    worker processes. The owner — and only the owner — calls
    :meth:`unlink` when the fleet shuts down.
    """

    #: Alignment of each buffer inside the region; keeps SIMD loads over
    #: the shared views on the same fast path as private allocations.
    ALIGN = 64

    def __init__(self, buffers) -> None:
        views = [memoryview(buf).cast("B") for buf in buffers]
        extents: list[tuple[int, int]] = []
        offset = 0
        for view in views:
            offset = -(-offset // self.ALIGN) * self.ALIGN
            extents.append((offset, view.nbytes))
            offset += view.nbytes
        name = SEGMENT_PREFIX + secrets.token_hex(8)
        # size=0 is invalid; an all-empty region still needs one byte.
        # The owner stays registered with the resource tracker: if the
        # front-end dies without running unlink(), the tracker still
        # removes the segment at interpreter exit (crash safety net).
        self.shm = shared_memory.SharedMemory(
            create=True, name=name, size=max(offset, 1)
        )
        for (start, n), view in zip(extents, views):
            self.shm.buf[start : start + n] = view
        self.handle = SharedRegionHandle(segment=name, extents=tuple(extents))
        self._unlinked = False

    @property
    def nbytes(self) -> int:
        """Size of the shared segment in bytes."""
        return int(self.shm.size)

    def unlink(self) -> None:
        """Remove the segment (idempotent). Owner-only, at shutdown."""
        if self._unlinked:
            return
        self._unlinked = True
        with contextlib.suppress(BufferError):  # pragma: no cover - live view
            self.shm.close()
        # unlink() also unregisters from the resource tracker, so a
        # clean shutdown leaves no exit-time sweep work behind.
        with contextlib.suppress(FileNotFoundError):  # pragma: no cover
            self.shm.unlink()
