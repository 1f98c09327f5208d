"""Host speed probe: scales measured times to a host of fixed speed.

The benchmark runs on a few vCPUs of a shared host.  Their speed changes by
up to 2x from one tenth of a second to the next (probably a hardware thread
shared with other tenants being busy or not), and the share of slow time changes by
tens of percent from one minute to the next, so medians over a run still
move between runs.  CPU time moves with wall time, so it does not help.

So the benchmark times a fixed pure-Python kernel right after every op, for
a share of the op's own duration (at least once), and divides the op's time
by the kernel's slowdown: its mean time over ``REFERENCE_S``.  A scaled time
is what the op would have taken on a host where one kernel call takes
``REFERENCE_S``.  The kernel formats floats with ``repr`` and joins them, as
a JSON writer does; it uses nothing from ``ciprop``, so a faster program
does not change it.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 1e-3
# kernel time spent after an op, as a share of the op's duration
SHARE = 0.08
_FLOATS = [i * 0.1234567 for i in range(1000)]


def kernel() -> int:
    return len(",".join(repr(v) for v in _FLOATS))


def slowdown(budget_s: float) -> tuple[float, float]:
    """(slowdown, seconds the probe took): kernel calls for ``budget_s``, at least one."""
    calls = 0
    started = perf_counter()
    while True:
        kernel()
        calls += 1
        spent = perf_counter() - started
        if spent >= budget_s:
            return spent / calls / REFERENCE_S, spent
