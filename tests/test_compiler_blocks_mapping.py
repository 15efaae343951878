"""Unit tests for block decomposition (step 1) and bank mapping (step 2)."""

import random

import pytest

from repro.arch import ArchConfig, Interconnect, Topology
from repro.compiler import (
    check_decomposition,
    decompose,
    map_banks,
    place_block,
    writer_pe,
)
from repro.compiler import blocks
from repro.compiler.cones import cone_height
from repro.compiler.mapping import (
    _least_contended,
    _repair_output,
    _rng_choice,
)
from repro.errors import MappingError
from repro.graphs import OpType, binarize
from repro.testing import make_chain_dag, make_random_dag, make_wide_dag
from repro.workloads.synth import SYNTH_FAMILIES, generate_synth


def bdag_of(dag):
    return binarize(dag).dag


@pytest.fixture(scope="module")
def cfg():
    return ArchConfig(depth=2, banks=8, regs_per_bank=16)


@pytest.fixture(scope="module")
def decomp(cfg):
    return decompose(bdag_of(make_random_dag(51, num_ops=150)), cfg)


class TestDecompose:
    def test_invariants_hold(self, decomp):
        check_decomposition(decomp)

    def test_blocks_cover_every_operation(self, decomp):
        covered = set()
        for block in decomp.blocks:
            covered |= block.nodes
        ops = {
            n
            for n in decomp.dag.nodes()
            if decomp.dag.op(n) is not OpType.INPUT
        }
        assert covered == ops

    def test_block_dependencies_point_backwards(self, decomp):
        block_of = {}
        for block in decomp.blocks:
            for n in block.nodes:
                block_of[n] = block.id
        for block in decomp.blocks:
            for var in block.input_vars:
                if decomp.dag.op(var) is OpType.INPUT:
                    continue
                assert block_of[var] < block.id  # constraint A

    def test_outputs_have_external_consumers_or_are_sinks(self, decomp):
        dag = decomp.dag
        for block in decomp.blocks:
            for var in block.output_vars:
                succs = dag.successors(var)
                assert not succs or any(
                    s not in block.nodes for s in succs
                )

    def test_instances_fit_datapath(self, decomp, cfg):
        for block in decomp.blocks:
            assert block.num_instances <= cfg.num_pes

    def test_chain_dag_serializes(self, cfg):
        decomp = decompose(bdag_of(make_chain_dag(length=12)), cfg)
        check_decomposition(decomp)
        # A pure chain at depth 2 computes at most 2 chain nodes/block.
        assert decomp.num_blocks >= 6

    def test_wide_dag_packs_densely(self, cfg):
        decomp = decompose(bdag_of(make_wide_dag(width=32)), cfg)
        check_decomposition(decomp)
        assert decomp.pe_utilization() > 0.5

    def test_utilization_bounds(self, decomp):
        assert 0.0 < decomp.pe_utilization() <= 1.0
        assert decomp.mean_nodes_per_block() > 0

    @pytest.mark.parametrize("depth,banks", [(1, 8), (2, 16), (3, 8)])
    def test_various_configs(self, depth, banks):
        config = ArchConfig(depth=depth, banks=banks, regs_per_bank=16)
        decomp = decompose(bdag_of(make_random_dag(52)), config)
        check_decomposition(decomp)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(SYNTH_FAMILIES))
    def test_tracked_heights_match_cone_height(
        self, monkeypatch, family, depth
    ):
        """Cones are unrolled at their tracked height, so after every
        committed block each uncomputed node's tracked height must be
        the height a fresh ``cone_height`` walk finds."""
        commit = blocks._commit_block
        committed = []

        def checked_commit(dag, depth, computed, height, *rest):
            commit(dag, depth, computed, height, *rest)
            for node in dag.nodes():
                if not computed[node]:
                    assert height[node] == cone_height(
                        dag, computed, node, depth
                    ), f"node {node} after block {len(committed)}"
            committed.append(True)

        monkeypatch.setattr(blocks, "_commit_block", checked_commit)
        config = ArchConfig(depth=depth, banks=8, regs_per_bank=16)
        bdag = bdag_of(generate_synth(family, 250, seed=3))
        decomp = decompose(bdag, config)
        check_decomposition(decomp)
        assert len(committed) == decomp.num_blocks


class TestPlacement:
    def test_ports_and_pes_within_block_disjoint(self, decomp, cfg):
        for block in decomp.blocks:
            placement = place_block(block, cfg)
            assert len(placement.pe_ops) <= cfg.num_pes
            # Every block node has at least one PE.
            for node in block.nodes:
                assert node in placement.node_pes

    def test_distinct_input_vars_match_block(self, decomp, cfg):
        for block in decomp.blocks:
            placement = place_block(block, cfg)
            assert placement.distinct_input_vars() == block.input_vars

    def test_writer_pe_prefers_deepest_layer(self, decomp, cfg):
        for block in decomp.blocks[:10]:
            placement = place_block(block, cfg)
            for node, pes in placement.node_pes.items():
                chosen = writer_pe(placement, node, cfg)
                assert cfg.pe_layer(chosen) == max(
                    cfg.pe_layer(p) for p in pes
                )

    def test_writer_pe_unknown_node_raises(self, decomp, cfg):
        placement = place_block(decomp.blocks[0], cfg)
        with pytest.raises(MappingError):
            writer_pe(placement, 10**9, cfg)


class TestMapping:
    @pytest.fixture(scope="class")
    def mapping(self, decomp, cfg):
        return map_banks(decomp, Interconnect(cfg), seed=3)

    def test_every_io_var_gets_a_bank(self, decomp, mapping, cfg):
        for block in decomp.blocks:
            for var in block.input_vars | block.output_vars:
                assert 0 <= mapping.bank_of[var] < cfg.banks

    def test_constraint_g_outputs_distinct_banks(self, decomp, mapping):
        for block in decomp.blocks:
            banks = [mapping.bank_of[v] for v in block.output_vars]
            assert len(banks) == len(set(banks))

    def test_constraint_h_writable(self, decomp, mapping, cfg):
        ic = Interconnect(cfg)
        for block in decomp.blocks:
            for var in block.output_vars:
                pe = mapping.write_pe[var]
                assert ic.can_write(pe, mapping.bank_of[var])

    def test_conflict_aware_beats_random(self, decomp, cfg):
        from repro.compiler import build_schedule

        ic = Interconnect(cfg)
        aware = map_banks(decomp, ic, seed=3, strategy="conflict_aware")
        rand = map_banks(decomp, ic, seed=3, strategy="random")
        aware_conflicts = build_schedule(decomp, aware).stats.conflict_copies
        rand_conflicts = build_schedule(decomp, rand).stats.conflict_copies
        assert aware_conflicts < rand_conflicts

    def test_random_strategy_still_hardware_legal(self, decomp, cfg):
        ic = Interconnect(cfg)
        mapping = map_banks(decomp, ic, seed=5, strategy="random")
        for block in decomp.blocks:
            banks = [mapping.bank_of[v] for v in block.output_vars]
            assert len(banks) == len(set(banks))
            for var in block.output_vars:
                assert ic.can_write(mapping.write_pe[var], mapping.bank_of[var])

    def test_unknown_strategy_rejected(self, decomp, cfg):
        with pytest.raises(MappingError):
            map_banks(decomp, Interconnect(cfg), strategy="optimal")

    def test_bank_histogram_covers_all_io_vars(self, mapping, cfg):
        hist = mapping.bank_histogram(cfg.banks)
        assert sum(hist) == len(mapping.bank_of)

    def test_deterministic_given_seed(self, decomp, cfg):
        ic = Interconnect(cfg)
        a = map_banks(decomp, ic, seed=9)
        b = map_banks(decomp, ic, seed=9)
        assert a.bank_of == b.bank_of

    @pytest.mark.parametrize(
        "topology",
        [Topology.CROSSBAR_BOTH, Topology.OUTPUT_PER_LAYER,
         Topology.OUTPUT_SINGLE],
    )
    def test_all_topologies_map(self, decomp, cfg, topology):
        ic = Interconnect(cfg, topology)
        mapping = map_banks(decomp, ic, seed=1)
        for block in decomp.blocks:
            for var in block.output_vars:
                assert ic.can_write(
                    mapping.write_pe[var], mapping.bank_of[var]
                )


def reference_map_banks(decomposition, interconnect, seed):
    """Bucket-of-sets Algorithm 2, the mapper's historical implementation.

    ``Sb`` is a set per io variable and each pop sorts its bucket, so
    this is quadratic on large DAGs; it is kept only as the oracle the
    bitmask kernel must replay choice for choice.  Returns
    ``(bank_of, write_pe, conflicts, repairs)``.
    """
    rng = random.Random(seed)
    config = decomposition.config
    write_pe, writable = {}, {}
    for block in decomposition.blocks:
        placement = place_block(block, config)
        for var in block.output_vars:
            pe = writer_pe(placement, var, config)
            write_pe[var] = pe
            writable[var] = interconnect.banks_writable_from(pe)
    groups, var_groups, out_group_of = [], {}, {}
    for block in decomposition.blocks:
        for members, is_out in ((block.input_vars, False),
                                (block.output_vars, True)):
            if not members:
                continue
            gid = len(groups)
            groups.append(sorted(members))
            for v in members:
                var_groups.setdefault(v, []).append(gid)
                if is_out:
                    out_group_of[v] = gid

    all_banks = frozenset(range(config.banks))
    sb = {
        v: set(writable[v]) if v in writable else set(all_banks)
        for v in sorted(var_groups)
    }
    buckets = [set() for _ in range(config.banks + 1)]
    for v, options in sb.items():
        buckets[len(options)].add(v)
    unassigned = set(sb)
    bank_of = {}
    conflicts = repairs = 0
    while unassigned:
        bucket = next(b for b in buckets if b)
        v = _rng_choice(rng, bucket)
        bucket.discard(v)
        if sb[v]:
            bank = _rng_choice(rng, sb[v])
        elif v in writable:
            bank, moved = _repair_output(
                v, writable, bank_of, out_group_of, groups, rng
            )
            repairs += moved
        else:
            bank = _least_contended(
                v, all_banks, var_groups, groups, bank_of, rng
            )
            conflicts += 1
        bank_of[v] = bank
        unassigned.discard(v)
        for gid in var_groups[v]:
            for peer in groups[gid]:
                if peer in unassigned and bank in sb[peer]:
                    size = len(sb[peer])
                    sb[peer].discard(bank)
                    buckets[size].discard(peer)
                    buckets[size - 1].add(peer)
    return bank_of, write_pe, conflicts, repairs


class TestMapperReferenceEquivalence:
    """``map_banks`` must replay the reference mapper's random-choice
    sequence exactly — including the least-contended (conflict) and
    constraint-H repair fallbacks — so seeds keep their programs."""

    def _check(self, dag, config, seed):
        decomp = decompose(bdag_of(dag), config)
        ic = Interconnect(config)
        got = map_banks(decomp, ic, seed=seed)
        bank_of, write_pe, conflicts, repairs = reference_map_banks(
            decomp, ic, seed
        )
        assert got.bank_of == bank_of
        assert got.write_pe == write_pe
        assert got.predicted_read_conflicts == conflicts
        assert got.repairs == repairs
        return got

    @pytest.mark.parametrize("family", ["layered", "reuse",
                                        "skewed_fanout", "diamond"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_identical_mappings(self, family, seed):
        dag = generate_synth(family, 900, seed=11)
        # Small bank count forces contention (conflict fallback).
        config = ArchConfig(depth=2, banks=8, regs_per_bank=32)
        self._check(dag, config, seed)

    def test_fallbacks_exercised(self):
        """The parity claim must cover the |Sb| == 0 interleavings."""
        dag = generate_synth("layered", 600, seed=3)
        config = ArchConfig(depth=1, banks=8, regs_per_bank=32)
        got = self._check(dag, config, 5)
        assert got.predicted_read_conflicts > 0  # conflict path taken

    def test_repair_exercised(self):
        dag = generate_synth("layered", 400, seed=11)
        config = ArchConfig(depth=3, banks=16, regs_per_bank=32)
        got = self._check(dag, config, 1)
        assert got.repairs >= 1  # constraint-H relocation taken
