"""The slot layout of a ``FlatDesign``: what every closure build shares.

The closure builder in :mod:`repro.verilog.vector` walks the elaborated
design itself, once per lane count.  What those builds share is the
design's state layout -- which dense slot holds each signal and each
memory, the slot widths, and the slots the edge-triggered processes
watch -- and :func:`lower_design` makes it once per design, caching it
on the design's ``_lowered_cache`` next to the builds.
"""

from __future__ import annotations

from ..obs import COUNTERS
from .elaborate import FlatDesign


class LoweredDesign:
    """The slot layout of one :class:`FlatDesign`.

    - ``top``: the design's top module name;
    - ``slot``: non-memory signal name -> state slot, in signal order;
    - ``widths``: the width of each state slot;
    - ``mem_slot``: memory name -> memory slot, and ``n_mems``;
    - ``edge_slots``: the sorted state slots some edge-triggered
      process is sensitive to, and ``edge_pos``: slot -> its index
      there (the trigger scan's snapshot tables).

    A sensitivity name outside ``slot`` (a memory) has no edge slot; the
    closure build rejects it.
    """

    __slots__ = ("top", "slot", "mem_slot", "widths", "n_mems",
                 "edge_slots", "edge_pos")

    def __init__(self, design: FlatDesign):
        self.top = design.top_name
        self.slot: dict[str, int] = {}
        self.mem_slot: dict[str, int] = {}
        self.widths: list[int] = []
        for spec in design.signals.values():
            if spec.is_memory:
                self.mem_slot[spec.name] = len(self.mem_slot)
            else:
                self.slot[spec.name] = len(self.widths)
                self.widths.append(spec.width)
        self.n_mems = len(self.mem_slot)
        self.edge_slots: list[int] = sorted({
            self.slot[item.signal]
            for p in design.processes if p.is_edge_triggered
            for item in p.sensitivity if item.signal in self.slot
        })
        self.edge_pos: dict[int, int] = {
            slot: i for i, slot in enumerate(self.edge_slots)
        }


#: Key of the slot layout in ``design._lowered_cache``.  The closure
#: builds sit next to it under ``("vector", lanes)``.
_LAYOUT_KEY = ("ir", 0)


def lower_design(design: FlatDesign) -> LoweredDesign:
    """The slot layout of ``design``, made once and cached on the design."""
    cache = design._lowered_cache
    lowered = cache.get(_LAYOUT_KEY)
    if lowered is None:
        lowered = cache[_LAYOUT_KEY] = LoweredDesign(design)
        COUNTERS.bump("frontend", "lowerings")
    return lowered


__all__ = [
    "LoweredDesign",
    "lower_design",
]
