"""`on_cores(fn, items)`: fn of each item, computed on every usable core."""
import os
import pickle
import tempfile
from contextlib import ExitStack

_forking = False  # set while on_cores runs items: a nested call runs inline


def usable_cores() -> int:
    """The processes on_cores may use: 1 inside its items or without fork."""
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if can_fork and not _forking else 1


def on_cores(fn, items):
    """Yield fn(item) for each of `items`, in order.  This process runs item
    0 and a child forked per further usable core the next; then each claims
    the next index from a counter they share.  A child's results come back
    pickled through an unlinked temporary file.  An item's exception is
    raised in its place once every item has run; a child that ends without
    results is a RuntimeError that names its exit code (-N for signal N).
    Every child is reaped on every path."""
    global _forking
    items, children, done = list(items), {}, {}  # done: index -> (ok, result)
    workers = min(usable_cores(), len(items))
    if workers < 2:
        yield from map(fn, items)
        return

    def work(i):  # item i, then each index claimed from the counter
        while i < len(items):
            try:
                done[i] = True, fn(items[i])
            except Exception as exc:
                done[i] = False, exc
            os.lockf(counter, os.F_LOCK, 0)
            i = int.from_bytes(os.pread(counter, 8, 0), "little")
            os.pwrite(counter, (i + 1).to_bytes(8, "little"), 0)
            os.lockf(counter, os.F_ULOCK, 0)
        return done

    with ExitStack() as files:
        counter = files.enter_context(tempfile.TemporaryFile()).fileno()
        os.pwrite(counter, workers.to_bytes(8, "little"), 0)
        _forking = True
        try:
            for first in range(1, workers):
                results = files.enter_context(tempfile.TemporaryFile())
                pid = os.fork()
                if pid == 0:  # the child: exit status 0 only once its results are flushed
                    try:
                        pickle.dump(work(first), results)
                        results.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
                children[pid] = results
            work(0)
            for pid in list(children):
                status, results = os.waitpid(pid, 0)[1], children.pop(pid)
                if status:
                    raise RuntimeError("forked worker failed: exit code "
                                       f"{os.waitstatus_to_exitcode(status)}")
                results.seek(0)
                done.update(pickle.load(results))
        finally:
            _forking = False
            for pid in children:
                os.kill(pid, 9)  # SIGKILL, by number: importing signal costs start-up
                os.waitpid(pid, 0)
    for ok, result in map(done.pop, range(len(items))):
        if not ok:
            raise result
        yield result
