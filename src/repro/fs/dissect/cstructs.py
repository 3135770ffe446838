"""A tiny cstruct-style compiler: C-like record specs -> struct parsers.

The dissect layer declares every on-disk record as a block of C-like
field definitions (the ``dissect.cstruct`` idiom used by ``dissect.ffs``
for the FreeBSD UFS layout) and compiles it, once, into a
:class:`struct.Struct` plus per-field offsets:

    SUPERBLOCK = CStruct("superblock", '''
        uint32 magic;
        uint16 version;
        char   pad[2];
        uint32 direct[12];
    ''')
    record = SUPERBLOCK.unpack(data)
    record.magic, record.direct[3], SUPERBLOCK.size

An array of records (a directory block, an inode table) is walked with
:meth:`CStruct.iter_unpack`, which yields each slot's raw field tuple so
a scan can test one field (:meth:`CStruct.index_of`) before it pays for
a :class:`Record` (:meth:`CStruct.record`).

Design constraints, because this backs an *independent* verifier:

* pure stdlib — no imports from the kernel-side ``repro.fs`` modules
  (the struct formats here are re-derived from the documented layout,
  not shared with ``repro.fs.ondisk``);
* parsing never raises past :class:`TruncatedRecord`: the caller always
  knows the one failure mode to handle.
"""

from __future__ import annotations

import re
import struct

#: C-ish type name -> (struct format char, byte size).
_TYPES = {
    "uint8": ("B", 1),
    "int8": ("b", 1),
    "uint16": ("H", 2),
    "int16": ("h", 2),
    "uint32": ("I", 4),
    "int32": ("i", 4),
    "uint64": ("Q", 8),
    "int64": ("q", 8),
    "char": ("s", 1),
}

_FIELD_RE = re.compile(
    r"^\s*(?P<type>\w+)\s+(?P<name>\w+)\s*(?:\[\s*(?P<count>\d+)\s*\])?\s*;\s*(?://.*)?$"
)


class CStructError(Exception):
    """A malformed definition (a programming error, raised at compile time)."""


class TruncatedRecord(Exception):
    """The data handed to :meth:`CStruct.unpack` is shorter than the record."""


class Field:
    """One compiled field: name, element type, count, offset, size."""

    __slots__ = ("name", "ctype", "count", "offset", "size", "is_array")

    def __init__(self, name: str, ctype: str, count: int | None, offset: int) -> None:
        self.name = name
        self.ctype = ctype
        self.count = count or 1
        self.is_array = count is not None
        self.offset = offset
        self.size = _TYPES[ctype][1] * self.count

    def format(self) -> str:
        """The struct format fragment for this field."""
        char = _TYPES[self.ctype][0]
        if self.ctype == "char":
            return f"{self.count}s"
        if self.is_array:
            return char * self.count
        return char


class Record:
    """One parsed record: attribute access over the compiled fields."""

    def __init__(self, values: dict) -> None:
        self.__dict__.update(values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"Record({inner})"


class CStruct:
    """A compiled record layout.

    ``definition`` is a newline-separated list of ``type name;`` or
    ``type name[count];`` declarations (``//`` comments allowed).  The
    reserved name prefix ``pad`` declares anonymous padding via
    ``char pad[n];`` — padding is parsed and discarded.
    """

    def __init__(self, name: str, definition: str, *, byte_order: str = "<") -> None:
        self.name = name
        self.byte_order = byte_order
        self.fields: list[Field] = []
        offset = 0
        for line in definition.splitlines():
            line = line.strip()
            if not line or line.startswith("//"):
                continue
            match = _FIELD_RE.match(line)
            if match is None:
                raise CStructError(f"{name}: cannot parse {line!r}")
            ctype = match.group("type")
            if ctype not in _TYPES:
                raise CStructError(f"{name}: unknown type {ctype!r} in {line!r}")
            count = match.group("count")
            field = Field(
                match.group("name"), ctype, int(count) if count else None, offset
            )
            self.fields.append(field)
            offset += field.size
        self.size = offset
        self._struct = struct.Struct(
            byte_order + "".join(f.format() for f in self.fields)
        )
        assert self._struct.size == self.size
        self._by_name = {f.name: f for f in self.fields}
        # Where each named field sits in the flat tuple ``struct`` yields:
        # (name, first index, end index for an array else None).
        self._plan = []
        cursor = 0
        for f in self.fields:
            array = f.is_array and f.ctype != "char"  # char[n] is one bytes value
            width = f.count if array else 1
            if not f.name.startswith("pad"):
                self._plan.append((f.name, cursor, cursor + width if array else None))
            cursor += width

    def index_of(self, field_name: str) -> int:
        """Position of a field (its first element, for an array) in the
        flat tuples :meth:`iter_unpack` yields."""
        for name, start, _stop in self._plan:
            if name == field_name:
                return start
        raise KeyError(field_name)

    def record(self, flat: tuple) -> Record:
        """Lift one flat field tuple into a :class:`Record`."""
        return Record(
            {
                name: flat[start] if stop is None else flat[start:stop]
                for name, start, stop in self._plan
            }
        )

    def unpack(self, data: bytes | bytearray | memoryview) -> Record:
        """Parse one record; raises :class:`TruncatedRecord` when short."""
        if len(data) < self.size:
            raise TruncatedRecord(
                f"{self.name}: need {self.size} bytes, have {len(data)}"
            )
        return self.record(self._struct.unpack_from(data))

    def iter_unpack(self, data: bytes | bytearray | memoryview):
        """The flat field tuple of every whole record in ``data``, in
        order (an array of records decoded in one call; a ragged tail is
        ignored).  ``record(flat)`` is what ``unpack`` of that slot
        returns."""
        whole = len(data) - len(data) % self.size
        return self._struct.iter_unpack(data if whole == len(data) else data[:whole])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CStruct({self.name!r}, size={self.size})"
