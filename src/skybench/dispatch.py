"""Jobs made in this process and in forked workers, and taken in job order.

generate loads this module when it has jobs to make.  A job is made by
whichever process is free; the lines come back in job order, interleaved
with the lines an earlier run left, through a reorder window of bounded size.
"""

from __future__ import annotations

import os
from itertools import islice
from typing import Any, Callable, Iterator, Sequence

# The most jobs a forked worker holds at once: the one it makes and the next
# two, so that it does not wait for work while this process makes a job.
CREDIT = 3
# Jobs past the first one not yet taken that this process may look at, per
# process: the bound on the lines it holds out of job order.  Kept lines are
# read that many at a time, not one between each two jobs made: alternating
# the check with the simulation made a serial resume about 5 % slower.
WINDOW = 128


def in_job_order(
    make: Callable[[Any], Any], jobs: Sequence[Any], kept: Iterator[Any], start: int, workers: int,
) -> Iterator[Any]:
    """For each job from `start` on, in job order: the value that `kept`
    gives for it, else make(job) when `kept` gives None.  In one process,
    `kept` is read WINDOW jobs at a time.

    With workers > 1 the jobs to make are shared with up to workers - 1
    forked processes, each forked once every worker holds its part of the
    jobs waiting.  A worker is sent the first waiting job's index down a
    pipe of its own whenever it holds fewer than its part, and sends the
    value back down another.  This process reads `kept` up to
    workers x WINDOW jobs past the first one not yet taken, holds what it
    read and what came back early until its turn, and makes a waiting job
    itself whenever that window is full.  An exception, or a worker's early
    end, is raised when its job's turn comes, as in one process.  Closing
    the iterator early kills the workers; on every path each one is reaped."""
    count = len(jobs)
    if workers < 2:
        pending = zip(range(start, count), kept)
        while batch := list(islice(pending, WINDOW)):
            for k, value in batch:
                yield make(jobs[k]) if value is None else value
        return
    import pickle
    import select
    from collections import deque

    done: dict[int, tuple[bool, Any]] = {}  # job -> (ok, value or exception)
    waiting: deque[int] = deque()
    # result pipe -> [pid, task pipe, jobs held, bytes read of a reply not yet whole]
    pool: dict[int, list] = {}
    tasks: list[int] = []  # the task pipes still open
    pids: list[int] = []
    poller = select.poll()
    taken = scan = start
    window = workers * WINDOW

    def hand_out() -> None:
        # A worker also holds no more than its share of the jobs left to
        # make, so that this process makes the last ones while the workers
        # end, rather than wait for them.
        remaining = len(waiting) + sum(len(held) for _, _, held, _ in pool.values())
        limit = min(CREDIT, remaining // (len(pool) + 1))
        for _, task_fd, held, _ in pool.values():
            while waiting and len(held) < limit:
                held.append(waiting.popleft())
                try:
                    os.write(task_fd, held[-1].to_bytes(4, "little"))
                except BrokenPipeError:  # the worker has ended; its result pipe tells
                    pass
        if waiting and remaining > len(pool) + 1 and len(pids) < workers - 1:
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(task_w)
                    os.close(result_r)
                    for fd in (*pool, *tasks):  # else a sibling's pipe outlives this process
                        os.close(fd)
                    _serve(make, jobs, task_r, result_w)
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
            os.close(task_r)
            os.close(result_w)
            pool[result_r] = [pid, task_w, deque(), bytearray()]
            tasks.append(task_w)
            poller.register(result_r, select.POLLIN)
            hand_out()

    def end_tasks() -> None:
        """Close the task pipes: each worker ends once it has sent what it holds."""
        while tasks:
            os.close(tasks.pop())

    def receive(timeout: int | None) -> None:
        for fd, _ in poller.poll(timeout):
            pid, task_fd, held, unread = pool[fd]
            data = os.read(fd, 1 << 16)
            if not data:
                poller.unregister(fd)
                del pool[fd]
                os.close(fd)
                if task_fd in tasks:
                    tasks.remove(task_fd)
                    os.close(task_fd)
                for k in held:
                    done[k] = (False, RuntimeError(f"generate worker {pid} ended early"))
                continue
            unread += data
            while len(unread) >= 4 and len(unread) >= 4 + (size := int.from_bytes(unread[:4], "little")):
                k, ok, value = pickle.loads(unread[4 : 4 + size])
                del unread[: 4 + size]
                held.remove(k)
                done[k] = (ok, value)

    try:
        while taken < count:
            if taken in done:
                ok, value = done.pop(taken)
                if not ok:
                    raise value
                taken += 1
                yield value
                continue
            hand_out()
            if scan == count and not waiting:  # no job is left to hand out
                end_tasks()
            if scan < count and scan - taken < window:
                value = next(kept)
                if value is None:
                    waiting.append(scan)
                else:
                    done[scan] = (True, value)
                scan += 1
            elif waiting:
                k = waiting.popleft()
                if scan == count and not waiting:
                    end_tasks()
                try:
                    done[k] = (True, make(jobs[k]))
                except Exception as exc:
                    done[k] = (False, exc)
            else:  # every job in the window is a worker's
                receive(None)
                continue
            receive(0)
    finally:
        end_tasks()
        for fd in pool:
            os.close(fd)
        if taken < count:
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
        if taken == count and any(statuses):
            raise RuntimeError("a generate worker did not exit cleanly")


def _serve(make: Callable[[Any], Any], jobs: Sequence[Any], tasks: int, results: int) -> None:
    """A forked worker: make each job whose index comes down the tasks pipe
    and send back (index, ok, value or exception), length-prefixed; stop at
    the end of the tasks or after sending an exception."""
    import pickle

    with os.fdopen(results, "wb") as out:
        while task := os.read(tasks, 4):
            k = int.from_bytes(task, "little")
            try:
                reply = (k, True, make(jobs[k]))
            except Exception as exc:
                reply = (k, False, exc)
            data = pickle.dumps(reply)
            out.write(len(data).to_bytes(4, "little") + data)
            out.flush()
            if not reply[1]:
                break
