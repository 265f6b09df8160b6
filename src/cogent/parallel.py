"""Same-bits work on the cores that one BLAS thread leaves idle.

A small pool of (usable cores - 1) daemon threads, started on first use.
`each(block_fn, n_blocks)` runs `block_fn(0)`, ..., `block_fn(n_blocks - 1)`
on the calling thread and on the workers: every thread takes the next block
index from one shared counter until none is left. The caller works blocks
too, so a worker that a busy core keeps waiting only takes fewer blocks;
the call is never slower than the serial loop by more than the ~30 us of
handing work over and joining it. Callers hand over only calls whose share
carries much more work than that.

It does three kinds of work: blocks of `tensor.gelu` and of Adam's sweep
and finite check (`optim`), a 2-D product's two gradient GEMMs, and the two
fixed halves of a large forward GEMM (`tensor._gemm`). Each caller cuts its
blocks from the shape of the work alone, never from the number of workers,
so the bits follow from that cut: the same blocks run, in or out of the pool.

Blocks must be independent: each writes its own part of the outputs with
the same numpy calls, whichever thread runs it, so every result bit is that
of the serial loop, on any number of cores. The rules that keep it so:

- Every block runs in a copy of the caller's `contextvars` context, so
  numpy's error state (`np.errstate`, a context variable) holds in the
  workers as on the caller: an overflow raises there as it would serially.
- After a block raises, no thread starts another. Once the blocks in flight
  are done, `each` raises the exception of the lowest failing block index:
  blocks are handed out in order, so every lower block ran, and that is the
  exception the serial loop would have raised. Blocks after it may have run.
- A call from a worker runs its blocks serially, so the pool cannot wait on
  itself.
- Block functions call numpy only, never a public cogent function, so
  anything that wraps those functions sees every call on the caller.
- Each thread of a call makes its scratch arrays once and reuses them for
  every block it runs (`per_thread`), so a block allocates nothing, and the
  caller allocates what the serial loop would.

`blas_threads` reads the thread count of numpy's bundled OpenBLAS, for a
caller that must not run two GEMMs at once while BLAS already uses several
threads. Importing this module loads nothing numpy has not loaded; the pool
imports `queue` when it starts.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import itertools
import os
import threading
from typing import Callable

import numpy as np

__all__ = ["each", "per_thread", "blas_threads"]


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


_spare = _usable_cores() - 1  # workers the pool starts
_tasks = None  # the pool's task queue, once started
_start_lock = threading.Lock()
_local = threading.local()  # .worker is set on the pool's threads


def _serve(tasks) -> None:
    _local.worker = True
    while True:
        tasks.get()()


def _start_pool():
    import queue

    tasks = queue.SimpleQueue()
    for i in range(_spare):
        threading.Thread(
            target=_serve, args=(tasks,), name=f"cogent-pool-{i}", daemon=True
        ).start()
    return tasks


def _pool():
    global _tasks
    with _start_lock:
        if _tasks is None:
            _tasks = _start_pool()
        return _tasks


def _forget_pool() -> None:
    # a forked child has none of the parent's threads
    global _tasks
    _tasks = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _fork(fn: Callable[[], None]) -> Callable[[], None]:
    """Start fn() on a worker, in a copy of the caller's context; return a
    join that waits for it. fn must not raise."""
    run = contextvars.copy_context().run
    done = threading.Lock()
    done.acquire()

    def task():
        try:
            run(fn)
        finally:
            done.release()

    _pool().put(task)
    return done.acquire


def each(block_fn: Callable[[int], None], n_blocks: int, pool: bool = True) -> None:
    """block_fn(i) for every i in range(n_blocks), on the caller and, when
    `pool` is true, on the pool's workers too; see the module docstring."""
    workers = min(_spare, n_blocks - 1) if pool else 0
    if workers <= 0 or getattr(_local, "worker", False):
        for i in range(n_blocks):
            block_fn(i)
        return
    counter = itertools.count()  # next() on it is atomic under the GIL
    failed: list[tuple[int, BaseException]] = []

    def work() -> None:
        while not failed:
            i = next(counter)
            if i >= n_blocks:
                return
            try:
                block_fn(i)
            except BaseException as e:
                failed.append((i, e))

    joins = [_fork(work) for _ in range(workers)]
    try:
        work()
    finally:
        for join in joins:
            join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]


def per_thread(make: Callable[[], object]) -> Callable[[], object]:
    """A getter of make()'s result, made once in each thread that calls it.

    Blocks get their scratch arrays through it, so each thread of one `each`
    call allocates its scratch once and reuses it for every block it runs;
    the arrays are freed with the getter.
    """
    local = threading.local()

    def get():
        try:
            return local.value
        except AttributeError:
            local.value = make()
            return local.value

    return get


@functools.cache
def _blas_reader():
    """The thread-count getter of the OpenBLAS that numpy's wheel bundles,
    or None."""
    package = os.path.dirname(np.__file__)
    for folder in (package + ".libs", os.path.join(package, ".dylibs")):
        try:
            names = sorted(os.listdir(folder))
        except OSError:
            continue
        for name in names:
            if "openblas" not in name:
                continue
            try:
                lib = ctypes.CDLL(os.path.join(folder, name))
            except OSError:
                continue
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype, getter.argtypes = ctypes.c_int, []
                    return getter
    return None


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS runs a GEMM on, or None where that
    cannot be read (another BLAS, or no bundled library)."""
    reader = _blas_reader()
    return None if reader is None else int(reader())
