"""Split independent per-item work across one thread per usable CPU.

Callers hand over loops whose items each write their own output slice
through numpy calls that release the GIL, so the result does not depend
on how many threads run them.  ``taskset`` limits the count.
"""

from __future__ import annotations

import os
import threading


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS reports one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split_run(fn, n: int):
    """Call ``fn(range(i, n, workers))`` for each i, one slice per thread.

    ``workers`` is :func:`usable_cpus` capped at ``n``; the calling thread
    runs slice 0 itself.  After every thread has joined, the first
    exception any slice raised (in slice order) is re-raised.
    """
    workers = min(usable_cpus(), n)
    if workers <= 1:
        fn(range(n))
        return
    errors = [None] * workers

    def run(i):
        try:
            fn(range(i, n, workers))
        except BaseException as exc:
            errors[i] = exc

    started = []
    try:
        for i in range(1, workers):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
