"""Tests for binary program images."""

import numpy as np
import pytest

from repro.arch import ArchConfig, encode_program
from repro.compiler import compile_dag
from repro.errors import ImageError
from repro.runner.imageio import (
    IMAGE_VERSION,
    Image,
    dump_program,
    load_program,
    open_image,
    read_program_image,
    write_program_image,
)
from repro.sim import run_program
from repro.testing import make_random_dag

CONFIG = ArchConfig(depth=2, banks=8, regs_per_bank=16)


@pytest.fixture(scope="module")
def compiled():
    dag = make_random_dag(seed=21, num_ops=50)
    result = compile_dag(dag, CONFIG)
    return dag, result


@pytest.fixture(scope="module")
def image(compiled):
    _, result = compiled
    return dump_program(result.program, result.allocation.read_addrs)


class TestProgramImages:
    def test_bitstream_stability(self, compiled):
        _, result = compiled
        addrs = result.allocation.read_addrs
        buf = dump_program(result.program, addrs)
        prog2, addrs2 = load_program(buf)
        assert addrs2 == addrs
        original = encode_program(result.program, addrs)
        reencoded = encode_program(prog2, addrs2)
        assert reencoded.data == original.data
        assert reencoded.total_bits == original.total_bits
        assert reencoded.lengths == original.lengths

    def test_round_trip_executes_bitwise(self, compiled):
        dag, result = compiled
        addrs = result.allocation.read_addrs
        prog2, addrs2 = load_program(dump_program(result.program, addrs))
        rng = np.random.default_rng(9)
        inputs = list(rng.uniform(0.9, 1.1, size=dag.num_inputs))
        direct = run_program(result.program, inputs, check_addresses=addrs)
        loaded = run_program(prog2, inputs, check_addresses=addrs2)
        assert sorted(direct.outputs) == sorted(loaded.outputs)
        for var in direct.outputs:
            bits = np.float64(direct.outputs[var]).tobytes()
            assert np.float64(loaded.outputs[var]).tobytes() == bits
        assert direct.counters == loaded.counters

    def test_file_round_trip(self, compiled, tmp_path):
        _, result = compiled
        addrs = result.allocation.read_addrs
        path = tmp_path / "prog.img"
        write_program_image(path, result.program, addrs)
        prog2, addrs2 = read_program_image(path)
        assert len(prog2.instructions) == len(result.program.instructions)
        assert addrs2 == addrs

    def test_dump_is_deterministic(self, compiled, image):
        _, result = compiled
        again = dump_program(result.program, result.allocation.read_addrs)
        assert again == image


class TestCorruptionDetection:
    def test_flipped_payload_byte_rejected(self, image):
        buf = bytearray(image)
        buf[-1] ^= 0xFF
        with pytest.raises(ImageError):
            Image(bytes(buf))
        with pytest.raises(ImageError):
            load_program(bytes(buf))

    def test_flipped_table_byte_rejected(self, image):
        buf = bytearray(image)
        buf[40] ^= 0xFF  # inside the section table
        with pytest.raises(ImageError):
            Image(bytes(buf))

    def test_truncation_rejected(self, image):
        with pytest.raises(ImageError):
            Image(image[: len(image) // 2])
        with pytest.raises(ImageError):
            Image(image[:10])
        with pytest.raises(ImageError):
            Image(b"")

    def test_bad_magic_rejected(self, image):
        buf = bytearray(image)
        buf[:4] = b"NOPE"
        with pytest.raises(ImageError):
            Image(bytes(buf))

    def test_future_version_rejected(self, image):
        buf = bytearray(image)
        import struct

        struct.pack_into("<H", buf, 4, IMAGE_VERSION + 1)
        with pytest.raises(ImageError):
            Image(bytes(buf))

    def test_kind_mismatch_rejected(self, image):
        """An image of any other kind (the retired plan images were
        kind 1) is refused by the program loader, checksum intact."""
        buf = bytearray(image)
        import struct

        struct.pack_into("<H", buf, 6, 1)  # the header's kind field
        foreign = Image(bytes(buf))  # header + checksum still valid
        assert foreign.kind == 1
        with pytest.raises(ImageError, match="not a program image"):
            load_program(foreign)

    def test_missing_file_wrapped(self, tmp_path):
        with pytest.raises(ImageError):
            open_image(tmp_path / "nope.img")

    def test_empty_file_wrapped(self, tmp_path):
        path = tmp_path / "empty.img"
        path.write_bytes(b"")
        with pytest.raises(ImageError):
            open_image(path)
        with pytest.raises(ImageError):
            read_program_image(path)
