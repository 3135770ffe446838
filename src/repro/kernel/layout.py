"""Kernel address-space layout and the physical frame pool.

Mirrors the Digital Unix arrangement the paper describes: kernel text,
heap and stack in *mapped* (wired) kernel virtual memory; the buffer cache
in mapped virtual pages; the UBC and the Rio registry in physical pages
reached through KSEG addresses.  The registry is placed in a fixed run of
frames at the **top of physical memory** so that a rebooting kernel can
find it without any intermediate data structures — the point of keeping a
registry at all (section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, NoSpace

# Kernel virtual region bases (all page-aligned for 8 KB pages).
KTEXT_BASE = 0x0001_0000
KHEAP_BASE = 0x0100_0000
KSTACK_BASE = 0x0200_0000
KSTAGE_BASE = 0x0300_0000
KBUF_BASE = 0x0400_0000


@dataclass
class KernelLayout:
    """Page counts for each fixed kernel region."""

    heap_pages: int = 48
    stack_pages: int = 4
    staging_pages: int = 16
    #: Buffer cache capacity (metadata pages).  ``None`` (the default)
    #: auto-sizes it to an eighth of physical memory, floored at 48
    #: pages — "usually only a few megabytes" in Digital Unix, scaled
    #: with the machine so a many-client metadata working set does not
    #: thrash a fixed-size cache.  Set an explicit page count to pin it.
    buffer_cache_pages: int | None = None
    #: Registry frames reserved at the top of physical memory.
    registry_pages: int = 4

    #: Auto-sizing floor and memory fraction for the buffer cache.
    BUFFER_CACHE_MIN_PAGES = 48
    BUFFER_CACHE_MEMORY_FRACTION = 8

    def resolve_buffer_cache_pages(self, num_frames: int) -> int:
        """Buffer cache capacity for a machine with ``num_frames`` frames."""
        if self.buffer_cache_pages is not None:
            return self.buffer_cache_pages
        return max(
            self.BUFFER_CACHE_MIN_PAGES,
            num_frames // self.BUFFER_CACHE_MEMORY_FRACTION,
        )

    def validate(self, page_size: int) -> None:
        for base in (KTEXT_BASE, KHEAP_BASE, KSTACK_BASE, KSTAGE_BASE, KBUF_BASE):
            if base % page_size:
                raise ConfigurationError("region base not page aligned")


class FramePool:
    """Allocates physical frames.

    Frame 0 is never handed out (so that a null pointer dereference is an
    access to a frame no kernel data lives in, and KSEG address 0 is
    distinguishable from real buffers).
    """

    def __init__(self, num_frames: int, reserved_top: int = 0) -> None:
        if num_frames < 2 + reserved_top:
            raise ConfigurationError("too few frames")
        self.num_frames = num_frames
        self.reserved_top = reserved_top
        self._free: list[int] = list(range(num_frames - reserved_top - 1, 0, -1))
        self._allocated: set[int] = set()

    @property
    def free_count(self) -> int:
        return len(self._free)

    def alloc(self) -> int:
        """Allocate one frame (lowest-address-first for determinism)."""
        if not self._free:
            raise NoSpace("out of physical frames")
        pfn = self._free.pop()
        self._allocated.add(pfn)
        return pfn

    def alloc_many(self, count: int) -> list[int]:
        if count > len(self._free):
            raise NoSpace(f"cannot allocate {count} frames")
        return [self.alloc() for _ in range(count)]

    def free(self, pfn: int) -> None:
        if pfn not in self._allocated:
            raise ConfigurationError(f"double free of frame {pfn}")
        self._allocated.remove(pfn)
        self._free.append(pfn)

    def top_frames(self) -> list[int]:
        """The reserved top-of-memory frames (registry home)."""
        return list(range(self.num_frames - self.reserved_top, self.num_frames))


@dataclass
class Regions:
    """Resolved placement of every fixed kernel region."""

    text_frames: list[int] = field(default_factory=list)
    heap_frames: list[int] = field(default_factory=list)
    stack_frames: list[int] = field(default_factory=list)
    staging_frames: list[int] = field(default_factory=list)
    registry_frames: list[int] = field(default_factory=list)

    def stack_top(self, page_size: int) -> int:
        """Initial stack pointer (stacks grow down; a small redzone is left)."""
        return KSTACK_BASE + len(self.stack_frames) * page_size - 64
