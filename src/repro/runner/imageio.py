"""Dense binary images of compiled programs.

This module serializes a compiled :class:`~repro.arch.Program` as a
dense little-endian binary image built around its fig. 7 bitstream:

``header | section table | aligned section data``

* **Header** (32 bytes): magic ``RIMG``, format version, artifact
  kind, section count, payload length and a BLAKE2b-64 checksum of the
  payload (table + data).  A failed checksum, bad magic or truncation
  raises :class:`~repro.errors.ImageError`, so a corrupt image is
  never decoded.
* **Section table**: 32 bytes per section — an 8-byte ASCII tag, file
  offset, byte length and a dtype code.
* **Sections**: a compact JSON metadata blob, raw byte blobs (the
  packed instruction bitstream) and numpy array payloads, each 64-byte
  aligned and read back as an ``np.frombuffer`` view.

Program images store the *encoded bitstream itself* (the fig. 7
variable-length binary) plus the compiler-only sidecars the hardware
never sees: variable tags, exec block ids and crossbar port-use masks
(a port muxing bank 0 and an unused port encode the same bits, so the
mask is what keeps ``port_source`` — and with it the analytic crossbar
counters — exact through a round-trip).  ``load_program`` therefore
runs the real decoder: an image round-trip *is* an
encode→decode→reassemble proof, which the differential oracle's
``image-roundtrip`` stage executes and compares bitwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from ..arch import (
    ArchConfig,
    CopyInstr,
    CopyMove,
    EncodedProgram,
    ExecInstr,
    Interconnect,
    LoadInstr,
    NopInstr,
    Program,
    StoreInstr,
    StoreSlot,
    Topology,
    WriteSpec,
    decode_program,
    encode_program,
    instruction_widths,
)
from ..errors import ImageError

MAGIC = b"RIMG"
IMAGE_VERSION = 1
KIND_PROGRAM = 2

_HEADER = struct.Struct("<4sHHIQQ4x")  # magic ver kind nsect paylen cksum
_SECTION = struct.Struct("<8sQQB7x")  # tag offset length dtype
_ALIGN = 64

#: Section dtype codes: 0 = raw bytes (incl. JSON), else a numpy dtype.
_DTYPES: dict[int, np.dtype | None] = {
    0: None,
    1: np.dtype("<i4"),
    2: np.dtype("<i8"),
    3: np.dtype("<f8"),
    4: np.dtype("u1"),
}
_DTYPE_CODE = {dt: code for code, dt in _DTYPES.items() if dt is not None}


def _checksum(payload) -> int:
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "little"
    )


class _Builder:
    """Assembles one image: sections in, checksummed bytes out."""

    def __init__(self, kind: int) -> None:
        self.kind = kind
        self.sections: list[tuple[bytes, bytes, int]] = []

    def add(self, tag: str, data: bytes, dtype_code: int = 0) -> None:
        raw = tag.encode("ascii")
        if len(raw) > 8:
            raise ImageError(f"section tag {tag!r} longer than 8 bytes")
        self.sections.append((raw.ljust(8, b"\0"), data, dtype_code))

    def add_json(self, tag: str, obj) -> None:
        self.add(
            tag,
            json.dumps(obj, separators=(",", ":"), sort_keys=True).encode(),
        )

    def add_array(self, tag: str, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr)
        dt = np.dtype(arr.dtype.newbyteorder("<"))
        self.add(tag, arr.astype(dt, copy=False).tobytes(), _DTYPE_CODE[dt])

    def tobytes(self) -> bytes:
        n = len(self.sections)
        cursor = _HEADER.size + n * _SECTION.size
        table = []
        blobs = []
        for tag, data, code in self.sections:
            pad = (-cursor) % _ALIGN
            blobs.append(b"\0" * pad)
            cursor += pad
            table.append(_SECTION.pack(tag, cursor, len(data), code))
            blobs.append(data)
            cursor += len(data)
        payload = b"".join(table) + b"".join(blobs)
        header = _HEADER.pack(
            MAGIC, IMAGE_VERSION, self.kind, n, len(payload),
            _checksum(payload),
        )
        return header + payload


class Image:
    """Parsed image over a bytes-like buffer.

    Array sections come back as ``np.frombuffer`` views into the
    buffer — no copy; the arrays keep the buffer alive through their
    ``base`` chain.
    """

    def __init__(self, buf) -> None:
        self._buf = buf
        view = memoryview(buf)
        if len(view) < _HEADER.size:
            raise ImageError("image truncated: no header")
        magic, version, kind, nsect, paylen, cksum = _HEADER.unpack_from(
            view, 0
        )
        if magic != MAGIC:
            raise ImageError(f"bad image magic {magic!r}")
        if version != IMAGE_VERSION:
            raise ImageError(f"unsupported image version {version}")
        if len(view) < _HEADER.size + paylen:
            raise ImageError("image truncated: payload shorter than header "
                             "says")
        payload = view[_HEADER.size:_HEADER.size + paylen]
        if _checksum(payload) != cksum:
            raise ImageError("image checksum mismatch")
        self.kind = kind
        self._view = view
        self.sections: dict[str, tuple[int, int, int]] = {}
        for i in range(nsect):
            tag, offset, length, code = _SECTION.unpack_from(
                view, _HEADER.size + i * _SECTION.size
            )
            if offset + length > len(view) or code not in _DTYPES:
                raise ImageError("image section table out of bounds")
            self.sections[tag.rstrip(b"\0").decode("ascii")] = (
                offset, length, code,
            )

    def raw(self, tag: str) -> memoryview:
        try:
            offset, length, _ = self.sections[tag]
        except KeyError:
            raise ImageError(f"image has no {tag!r} section") from None
        return self._view[offset:offset + length]

    def json(self, tag: str):
        try:
            return json.loads(bytes(self.raw(tag)))
        except ValueError as exc:
            raise ImageError(f"malformed {tag!r} metadata: {exc}") from exc

    def array(self, tag: str) -> np.ndarray:
        offset, length, code = self.sections.get(tag, (0, 0, 0))
        if tag not in self.sections:
            raise ImageError(f"image has no {tag!r} section")
        dt = _DTYPES[code]
        if dt is None:
            raise ImageError(f"section {tag!r} is not an array")
        if length % dt.itemsize:
            raise ImageError(f"section {tag!r} length not a multiple of "
                             f"its dtype")
        return np.frombuffer(self._view, dtype=dt,
                             count=length // dt.itemsize, offset=offset)


def open_image(path: str | Path) -> Image:
    """Read and parse an image file.

    Raises:
        ImageError: Malformed image (also wraps I/O failures, so
            callers need one except clause).
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ImageError(f"cannot open image {path}: {exc}") from exc
    return Image(data)


def _config_dict(config: ArchConfig) -> dict:
    return dataclasses.asdict(config)


# ---------------------------------------------------------------------
# Program images
# ---------------------------------------------------------------------
def _sidecars(program: Program):
    """Variable tags / block ids / port masks the bitstream drops.

    The traversal order mirrors the decoder's field order exactly, so
    reassembly is a linear walk (see :func:`load_program`).
    """
    var_tags: list[int] = []
    block_ids: list[int] = []
    port_masks: list[int] = []
    for instr in program.instructions:
        if isinstance(instr, ExecInstr):
            var_tags.extend(v for _, v in sorted(instr.bank_reads))
            var_tags.extend(
                w.var for w in sorted(instr.writes, key=lambda w: w.bank)
            )
            block_ids.append(instr.block_id)
            mask = 0
            for port, src in enumerate(instr.port_source):
                if src is not None:
                    mask |= 1 << port
            port_masks.append(mask)
        elif isinstance(instr, CopyInstr):
            if instr.mnemonic == "copy_4":
                var_tags.extend(m.var for m in instr.moves)
            else:
                var_tags.extend(
                    m.var
                    for m in sorted(instr.moves, key=lambda m: m.src_bank)
                )
        elif isinstance(instr, LoadInstr):
            var_tags.extend(v for _, v in sorted(instr.dests))
        elif isinstance(instr, StoreInstr):
            if instr.mnemonic == "store_4":
                var_tags.extend(s.var for s in instr.slots)
            else:
                var_tags.extend(
                    s.var
                    for s in sorted(instr.slots, key=lambda s: s.bank)
                )
    return var_tags, block_ids, port_masks


def dump_program(
    program: Program,
    read_addrs: list[dict[int, int]],
    interconnect: Interconnect | None = None,
) -> bytes:
    """Serialize a compiled program: packed bitstream + sidecars."""
    inter = interconnect or Interconnect(program.config)
    encoded = encode_program(program, read_addrs, inter)
    var_tags, block_ids, port_masks = _sidecars(program)
    meta = {
        "config": _config_dict(program.config),
        "topology": inter.topology.value,
        "source_name": program.source_name,
        "num_data_rows": program.num_data_rows,
        "total_bits": encoded.total_bits,
        "input_layout": [
            [int(v), int(r), int(b)]
            for v, (r, b) in sorted(program.input_layout.items())
        ],
        "input_slots": [
            [int(v), int(s)] for v, s in sorted(program.input_slots.items())
        ],
        "output_layout": [
            [int(v), int(r), int(b)]
            for v, (r, b) in sorted(program.output_layout.items())
        ],
    }
    builder = _Builder(KIND_PROGRAM)
    builder.add_json("meta", meta)
    builder.add("bits", encoded.data)
    builder.add_array("lengths", np.asarray(encoded.lengths, dtype="<i4"))
    builder.add_array("vars", np.asarray(var_tags, dtype="<i4"))
    builder.add_array("blocks", np.asarray(block_ids, dtype="<i4"))
    builder.add_array("ports", np.asarray(port_masks, dtype="<i8"))
    return builder.tobytes()


def load_program(
    source: bytes | Image,
) -> tuple[Program, list[dict[int, int]]]:
    """Decode a program image back into the typed instruction IR.

    Runs the real bitstream decoder over the packed ``bits`` section,
    then reattaches the sidecar variable tags / block ids / port masks
    to rebuild :class:`~repro.arch.Program` instructions.  Returns the
    program plus the per-instruction resolved read addresses (so the
    caller can re-encode and assert bitstream stability).

    Raises:
        ImageError: Corrupt image or sidecar/bitstream disagreement.
    """
    img = source if isinstance(source, Image) else Image(source)
    if img.kind != KIND_PROGRAM:
        raise ImageError(f"not a program image (kind {img.kind})")
    meta = img.json("meta")
    try:
        config = ArchConfig(**meta["config"])
        inter = Interconnect(config, Topology(meta["topology"]))
        encoded = EncodedProgram(
            data=bytes(img.raw("bits")),
            total_bits=int(meta["total_bits"]),
            lengths=tuple(int(n) for n in img.array("lengths")),
            widths=instruction_widths(config, inter),
        )
        decoded = decode_program(encoded, config, inter)
    except ImageError:
        raise
    except Exception as exc:
        raise ImageError(f"undecodable program image: {exc}") from exc

    var_tags = img.array("vars")
    block_ids = img.array("blocks")
    port_masks = img.array("ports")
    cursor = {"var": 0, "block": 0, "port": 0}

    def next_of(kind: str, arr: np.ndarray) -> int:
        i = cursor[kind]
        if i >= arr.size:
            raise ImageError(f"program image {kind} sidecar underrun")
        cursor[kind] = i + 1
        return int(arr[i])

    instructions = []
    read_addrs: list[dict[int, int]] = []
    try:
        for dec in decoded:
            fields = dec.fields
            if dec.mnemonic == "nop":
                instructions.append(NopInstr())
                read_addrs.append({})
            elif dec.mnemonic == "exec":
                reads = fields["reads"]
                read_banks = [
                    b for b, r in enumerate(reads) if r is not None
                ]
                bank_reads = tuple(
                    (b, next_of("var", var_tags)) for b in read_banks
                )
                mask = next_of("port", port_masks)
                port_source = tuple(
                    src if (mask >> port) & 1 else None
                    for port, src in enumerate(fields["port_source"])
                )
                writes = tuple(
                    WriteSpec(pe=pe, bank=bank, var=next_of("var", var_tags))
                    for bank, pe in enumerate(fields["write_pe"])
                    if pe is not None
                )
                instructions.append(
                    ExecInstr(
                        bank_reads=bank_reads,
                        port_source=port_source,
                        pe_ops=fields["pe_ops"],
                        writes=writes,
                        valid_rst=frozenset(
                            b for b in read_banks if reads[b][1]
                        ),
                        block_id=next_of("block", block_ids),
                    )
                )
                read_addrs.append({b: reads[b][0] for b in read_banks})
            elif dec.mnemonic == "copy":
                reads = fields["reads"]
                src_var = {
                    b: next_of("var", var_tags)
                    for b, r in enumerate(reads)
                    if r is not None
                }
                moves = tuple(
                    CopyMove(
                        src_bank=src,
                        dst_bank=dst,
                        var=src_var[src],
                        free_source=reads[src][1],
                    )
                    for dst, src in enumerate(fields["dst_source"])
                    if src is not None
                )
                instructions.append(CopyInstr(moves=moves))
                read_addrs.append(
                    {b: reads[b][0] for b in src_var}
                )
            elif dec.mnemonic == "copy_4":
                moves = tuple(
                    CopyMove(
                        src_bank=src,
                        dst_bank=dst,
                        var=next_of("var", var_tags),
                        free_source=rst,
                    )
                    for src, dst, _addr, rst in fields["moves"]
                )
                instructions.append(CopyInstr(moves=moves))
                read_addrs.append(
                    {src: addr for src, _d, addr, _r in fields["moves"]}
                )
            elif dec.mnemonic == "load":
                dests = tuple(
                    (b, next_of("var", var_tags))
                    for b, on in enumerate(fields["enable"])
                    if on
                )
                instructions.append(
                    LoadInstr(row=fields["row"], dests=dests)
                )
                read_addrs.append({})
            elif dec.mnemonic == "store":
                reads = fields["reads"]
                slots = tuple(
                    StoreSlot(
                        bank=b,
                        var=next_of("var", var_tags),
                        free_source=reads[b][1],
                    )
                    for b, r in enumerate(reads)
                    if r is not None
                )
                instructions.append(
                    StoreInstr(row=fields["row"], slots=slots)
                )
                read_addrs.append(
                    {b: reads[b][0]
                     for b, r in enumerate(reads) if r is not None}
                )
            elif dec.mnemonic == "store_4":
                slots = tuple(
                    StoreSlot(
                        bank=bank,
                        var=next_of("var", var_tags),
                        free_source=rst,
                    )
                    for bank, _addr, rst in fields["slots"]
                )
                instructions.append(
                    StoreInstr(row=fields["row"], slots=slots)
                )
                read_addrs.append(
                    {bank: addr for bank, addr, _r in fields["slots"]}
                )
            else:  # pragma: no cover - decoder is exhaustive
                raise ImageError(f"unknown mnemonic {dec.mnemonic!r}")
        program = Program(
            config=config,
            instructions=tuple(instructions),
            input_layout={
                int(v): (int(r), int(b)) for v, r, b in meta["input_layout"]
            },
            input_slots={
                int(v): int(s) for v, s in meta["input_slots"]
            },
            output_layout={
                int(v): (int(r), int(b)) for v, r, b in meta["output_layout"]
            },
            num_data_rows=int(meta["num_data_rows"]),
            source_name=meta["source_name"],
        )
    except ImageError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ImageError(f"malformed program metadata: {exc}") from exc
    if cursor["var"] != var_tags.size:
        raise ImageError("program image has unconsumed variable tags")
    return program, read_addrs


def write_program_image(
    path: str | Path,
    program: Program,
    read_addrs: list[dict[int, int]],
    interconnect: Interconnect | None = None,
) -> Path:
    path = Path(path)
    path.write_bytes(dump_program(program, read_addrs, interconnect))
    return path


def read_program_image(
    path: str | Path,
) -> tuple[Program, list[dict[int, int]]]:
    return load_program(open_image(path))
