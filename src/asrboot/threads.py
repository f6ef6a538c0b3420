"""The package's one helper thread, for work that overlaps the caller's.

``am.train`` scores and accumulates on it beside the Viterbi scan, and
``features.compute_mfcc`` computes the second half of a long track's
blocks on it.  Both hand it numpy work that releases the GIL, and both
use it on any CPU count: their work is split by the data, not by the
machine, so one core gives the bits two cores give.  On one core the
two threads share it; ``am.train`` is about 3.7% slower there than a
one-thread loop.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator


@contextmanager
def helper() -> Iterator[Callable[..., Future]]:
    """``submit(fn, *args)`` onto one helper thread, whose tasks run one at
    a time in submission order, each in a copy of the submitter's context:
    numpy's ``errstate`` is context-local, so a task raises or warns as it
    would on the submitting thread.  However the block exits, the helper
    is shut down: queued tasks are cancelled and the running one is waited
    for, so no thread outlives the block."""
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        yield lambda fn, *args: pool.submit(contextvars.copy_context().run, fn, *args)
    finally:
        pool.shutdown(cancel_futures=True)
