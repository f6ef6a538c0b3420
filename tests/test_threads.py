"""``threads.helper``: one helper thread, its tasks run in order in the
submitter's context, and no thread outlives the block."""

import threading
import time
from contextlib import nullcontext

import numpy as np
import pytest

from asrboot.threads import helper

WAIT = 10.0  # seconds; every wait in these tests ends long before


def test_tasks_run_in_submission_order_on_one_other_thread():
    ran = []
    with helper() as submit:
        futures = [submit(lambda i: ran.append((i, threading.get_ident())), i)
                   for i in range(20)]
        for future in futures:
            future.result(timeout=WAIT)
    assert [i for i, _ in ran] == list(range(20))
    assert len({ident for _, ident in ran}) == 1
    assert ran[0][1] != threading.get_ident()


def test_a_task_sees_the_submitters_errstate():
    with np.errstate(over="raise", invalid="ignore"), helper() as submit:
        assert submit(np.geterr).result(timeout=WAIT) == np.geterr()
        overflow = submit(np.square, np.array([1e200]))
        with pytest.raises(FloatingPointError, match="overflow"):
            overflow.result(timeout=WAIT)


def test_a_raise_cancels_the_queue_and_waits_for_the_running_task():
    running, released, ran = threading.Event(), threading.Event(), []

    def first():
        running.set()
        # runs on once the task queued behind it is cancelled, and a
        # little longer than an exception takes to leave the block
        released.wait(WAIT)
        time.sleep(0.05)
        ran.append(("first", released.is_set()))

    try:
        with helper() as submit:
            head = submit(first)
            queued = [submit(ran.append, i) for i in range(3)]
            queued[0].add_done_callback(lambda future: released.set())
            assert running.wait(WAIT)
            raise RuntimeError("body")
    except RuntimeError:
        ran_on_exit = list(ran)
    assert ran_on_exit == [("first", True)] and head.done()
    assert all(future.cancelled() for future in queued)


@pytest.mark.parametrize("raises", [False, True])
def test_no_thread_outlives_the_block(raises):
    before = threading.active_count()
    with pytest.raises(RuntimeError) if raises else nullcontext():
        with helper() as submit:
            worker = submit(threading.current_thread).result(timeout=WAIT)
            if raises:
                raise RuntimeError("body")
    assert not worker.is_alive()
    assert threading.active_count() == before

