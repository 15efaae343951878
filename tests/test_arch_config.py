"""Unit tests for the architecture configuration."""

import pytest

from repro.arch import (
    ArchConfig,
    LARGE_CORE_CONFIG,
    MIN_EDP_CONFIG,
    MIN_ENERGY_CONFIG,
    MIN_LATENCY_CONFIG,
    dse_grid,
)
from repro.errors import ConfigError


class TestDerivedStructure:
    def test_min_edp_matches_paper(self):
        cfg = MIN_EDP_CONFIG
        assert (cfg.depth, cfg.banks, cfg.regs_per_bank) == (3, 64, 32)
        assert cfg.num_trees == 8
        assert cfg.num_pes == 56  # T * (2^D - 1)
        assert cfg.pipeline_stages == 4

    def test_paper_corner_configs(self):
        assert MIN_ENERGY_CONFIG.banks == 16
        assert MIN_LATENCY_CONFIG.regs_per_bank == 128
        assert LARGE_CORE_CONFIG.regs_per_bank == 256

    @pytest.mark.parametrize("depth,banks", [(1, 8), (2, 8), (3, 8), (3, 64)])
    def test_bank_tree_relationship(self, depth, banks):
        cfg = ArchConfig(depth=depth, banks=banks, regs_per_bank=16)
        assert cfg.num_trees * cfg.tree_inputs == banks
        assert cfg.num_pes == cfg.num_trees * (2**depth - 1)

    def test_pes_in_layer(self):
        cfg = ArchConfig(depth=3, banks=16, regs_per_bank=16)
        assert cfg.pes_in_layer(1) == 4
        assert cfg.pes_in_layer(2) == 2
        assert cfg.pes_in_layer(3) == 1

    def test_total_registers(self):
        assert MIN_EDP_CONFIG.total_registers == 64 * 32


class TestValidation:
    def test_zero_depth_rejected(self):
        with pytest.raises(ConfigError):
            ArchConfig(depth=0, banks=8, regs_per_bank=16)

    def test_indivisible_banks_rejected(self):
        with pytest.raises(ConfigError):
            ArchConfig(depth=3, banks=12, regs_per_bank=16)

    def test_banks_smaller_than_tree_rejected(self):
        with pytest.raises(ConfigError):
            ArchConfig(depth=3, banks=4, regs_per_bank=16)

    def test_tiny_regfile_rejected(self):
        with pytest.raises(ConfigError):
            ArchConfig(depth=1, banks=2, regs_per_bank=1)

    def test_layer_out_of_range(self):
        cfg = ArchConfig(depth=2, banks=8, regs_per_bank=16)
        with pytest.raises(ConfigError):
            cfg.pes_in_layer(3)


class TestPEIndexing:
    @pytest.fixture
    def cfg(self):
        return ArchConfig(depth=3, banks=16, regs_per_bank=16)

    def test_pe_id_position_round_trip(self, cfg):
        for pe in range(cfg.num_pes):
            tree, layer, index = cfg.pe_position(pe)
            assert cfg.pe_id(tree, layer, index) == pe

    def test_layer1_operands_are_ports(self, cfg):
        (a_port, a), (b_port, b) = cfg.pe_operand_sources(0)
        assert a_port and b_port
        assert (a, b) == (0, 1)

    def test_upper_layer_operands_are_pes(self, cfg):
        root = cfg.pe_id(0, 3, 0)
        (a_port, a), (b_port, b) = cfg.pe_operand_sources(root)
        assert not a_port and not b_port
        assert cfg.pe_layer(a) == 2 and cfg.pe_layer(b) == 2

    def test_ports_under_pe_cover_subtree(self, cfg):
        root = cfg.pe_id(1, 3, 0)
        ports = cfg.ports_under_pe(root)
        assert ports == list(range(8, 16))

    def test_port_round_trip(self, cfg):
        for port in range(cfg.banks):
            tree, local = cfg.port_position(port)
            assert cfg.input_port(tree, local) == port

    @pytest.mark.parametrize(
        "config",
        dse_grid() + [MIN_EDP_CONFIG, LARGE_CORE_CONFIG],
        ids=str,
    )
    def test_wiring_table_matches_geometry(self, config):
        table = config.pe_wiring()
        assert len(table) == config.num_pes
        for pe, entry in enumerate(table):
            (a_port, a_id), (b_port, b_id) = config.pe_operand_sources(pe)
            assert entry == (config.pe_layer(pe), a_port, a_id, b_port, b_id)

    def test_wiring_table_shared_per_depth_and_banks(self, cfg):
        other = ArchConfig(depth=3, banks=16, regs_per_bank=64)
        assert other.pe_wiring() is cfg.pe_wiring()

    def test_out_of_range_queries(self, cfg):
        with pytest.raises(ConfigError):
            cfg.pe_position(cfg.num_pes)
        with pytest.raises(ConfigError):
            cfg.input_port(99, 0)
        with pytest.raises(ConfigError):
            cfg.pe_id(0, 1, 99)


class TestGrid:
    def test_grid_has_48_points(self):
        # 3 depths x 4 banks x 4 regs = 48; all satisfy B >= 2^D.
        assert len(dse_grid()) == 48

    def test_grid_configs_all_valid(self):
        for cfg in dse_grid():
            assert cfg.num_trees >= 1

    def test_str_format(self):
        assert str(MIN_EDP_CONFIG) == "D3-B64-R32"
