"""The wave-packet interacting leg stepped by two processes.

``wavepacket.evolve`` hands an unobserved leg on a long ring here.  The
ring splits at L/2: this process steps sites 0 .. L/2 and a helper
process (``tables._Helper``), the stepper, steps L/2 .. L.  Each steps
its half plus SPLIT_BLOCK * h ghost sites on either side (h = max
|shift|) in a local component-major buffer for SPLIT_BLOCK steps, then
publishes its half in shared memory and swaps one byte with the other,
which syncs the ghosts for the next block.  Every site runs ``step``'s
arithmetic in ``step``'s order, the center phase included wherever the
center lies in a buffer, so the result is bit-identical to the
one-process leg.  This module is loaded only when a leg may be split.
"""

from __future__ import annotations

import mmap
import os

import numpy as np

from .tables import _Helper
from .wavepacket import (LEAKAGE_PERIOD, _apply, _halo, _lattice, _leaked,
                         _step_plan)

SPLIT_BLOCK = 32   # steps between hand-offs; divides LEAKAGE_PERIOD


def _half_blocks(model, shared: np.ndarray, lo: int, t_steps: int,
                 send_fd: int, recv_fd: int):
    """Step sites lo .. lo + L/2 block by block; after each block publish
    them in shared, swap one byte with the other process and yield (n,
    the synced (components, sites) state).

    shared[1] holds the input and block j publishes into shared[j % 2], so
    no block's ghosts are overwritten while the other process reads them.
    Each step recomputes all but the outer h columns of the buffer; after
    at most SPLIT_BLOCK steps the stale ghost columns have reached no
    owned site.
    """
    length, half = model.length, model.length // 2
    halo = _halo(model)
    ghost = SPLIT_BLOCK * halo   # <= L/4, so the buffer holds no site twice
    width = half + 2 * ghost
    bufs = (np.zeros((model.ncomp, width), dtype=complex),
            np.zeros((model.ncomp, width), dtype=complex))
    tmp = np.empty(width, dtype=complex)
    plans = [_step_plan(model, bufs[i], bufs[1 - i], tmp, halo, width - halo)
             for i in (0, 1)]
    phase = np.exp(1j * model.chi)
    center = (model.center - lo + ghost) % length   # in both halves' buffers
    left, right = (lo - ghost) % length, (lo + half) % length
    bufs[0][:, ghost:ghost + half] = shared[1][:, lo:lo + half]
    cur, n, block = 0, 0, 0
    while n < t_steps:
        prev, buf = shared[(block - 1) % 2], bufs[cur]
        buf[:, :ghost] = prev[:, left:left + ghost]
        buf[:, ghost + half:] = prev[:, right:right + ghost]
        for _ in range(min(SPLIT_BLOCK, t_steps - n)):
            bufs[cur][:, center] *= phase
            _apply(plans[cur])
            cur = 1 - cur
            n += 1
        synced = shared[block % 2]
        synced[:, lo:lo + half] = bufs[cur][:, ghost:ghost + half]
        os.write(send_fd, b"\0")
        if not os.read(recv_fd, 1):
            raise BrokenPipeError("the other stepper ended mid-leg")
        yield n, synced
        block += 1


def split_leg(state: np.ndarray, model, t_steps: int):
    """(the leg's result, or None when no stepper could be started or it
    did not exit 0; whether a leakage warning was given).

    This process checks leakage on the synced state after every
    LEAKAGE_PERIOD-th step and the last, as the one-process leg does, and
    joins the stepper on every path, a leakage warning raised as an error
    included.
    """
    try:
        shared = np.frombuffer(mmap.mmap(-1, 2 * state.nbytes), dtype=complex)
    except OSError:   # no shared memory to spare
        return None, False
    shared = shared.reshape(2, model.ncomp, model.length)
    shared[1] = state.T

    def stepper(recv_fd: int, send_fd: int) -> None:
        for _ in _half_blocks(model, shared, model.length // 2, t_steps,
                              send_fd, recv_fd):
            pass

    helper = _Helper.start(stepper)
    if helper is None:
        return None, False
    warned, synced = False, None
    try:
        for n, synced in _half_blocks(model, shared, 0, t_steps,
                                      helper.send, helper.recv):
            if (n % LEAKAGE_PERIOD == 0 or n == t_steps) and not warned:
                warned = _leaked(synced.T, n)
    except OSError:   # the stepper is gone
        synced = None
    finally:
        code, _ = helper.join()   # a stepper still waiting reads EOF and exits
    if synced is None or code != 0:
        return None, warned
    return _lattice(synced.T), warned
