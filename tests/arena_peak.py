"""Peak memory of a call that may run a sweep: traced memory and the sweep arena.

The arena (``flatrank.search._arena``) is one anonymous mapping per thread,
which tracemalloc cannot see.  Its bytes count while it is mapped: during the
sweep, and after it when the thread keeps it.  So the traced peak is read
apart before, during and after each sweep, and the arena's bytes are added
to the parts it was mapped for.  The thread's arena starts empty.
"""

import tracemalloc

from flatrank import search


def arena_peak(call, *args):
    """(``call(*args)``, its peak bytes of traced memory and sweep arena together)."""
    peaks, mapped, carve, scan = [], [0], search._arena_workspace, search._scan_blocks

    def phase(arena):
        peaks.append(tracemalloc.get_traced_memory()[1] + arena)
        tracemalloc.reset_peak()

    def carving(sizes):
        ws = carve(sizes)
        mapped.append(search._arena_bytes())
        return ws

    def scanning(*args):
        phase(search._arena_bytes())
        try:
            return scan(*args)
        finally:
            phase(max(mapped))

    search._drop_arena()
    search._arena_workspace, search._scan_blocks = carving, scanning
    tracemalloc.start()
    try:
        result = call(*args)
        phase(search._arena_bytes())
        return result, max(peaks)
    finally:
        tracemalloc.stop()
        search._arena_workspace, search._scan_blocks = carve, scan
