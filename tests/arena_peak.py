"""Peak memory of a call that may run a sweep: traced memory and the arena.

The arena (``flatrank.linalg._arena``) is one anonymous mapping per thread,
which tracemalloc cannot see; sweeps and document reads carve their scratch
from it.  Its bytes count while it is mapped: during the sweep, and before
and after it when the thread keeps it.  So the traced peak is read apart
before, during and after each sweep, and the arena's bytes are added to the
parts it was mapped for.  The thread's arena starts empty.
"""

import tracemalloc

from flatrank import linalg, search


def arena_peak(call, *args):
    """(``call(*args)``, its peak bytes of traced memory and arena together)."""
    peaks, mapped, carve, scan = [], [0], search._arena_workspace, search._scan_blocks

    def phase(arena):
        peaks.append(tracemalloc.get_traced_memory()[1] + arena)
        tracemalloc.reset_peak()

    def carving(sizes):  # a sweep's carve: it may replace the arena
        ws = carve(sizes)
        mapped.append(linalg._arena_bytes())
        return ws

    def scanning(*args):
        phase(linalg._arena_bytes())
        try:
            return scan(*args)
        finally:
            phase(max(mapped))

    linalg._drop_arena()
    search._arena_workspace, search._scan_blocks = carving, scanning
    tracemalloc.start()
    try:
        result = call(*args)
        phase(linalg._arena_bytes())
        return result, max(peaks)
    finally:
        tracemalloc.stop()
        search._arena_workspace, search._scan_blocks = carve, scan
