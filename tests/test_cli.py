"""Unit tests for the command-line interface."""

import dataclasses

import pytest

from repro.cli import _parse_config, main
from repro.graphs import save_json
from repro.runner.registry import EXPERIMENTS, Claim
from repro.testing import make_random_dag


class TestConfigParsing:
    def test_valid(self):
        cfg = _parse_config("D3-B64-R32")
        assert (cfg.depth, cfg.banks, cfg.regs_per_bank) == (3, 64, 32)

    def test_case_insensitive(self):
        cfg = _parse_config("d2-b8-r16")
        assert cfg.depth == 2

    def test_invalid(self):
        with pytest.raises(SystemExit):
            _parse_config("banana")
        with pytest.raises(SystemExit):
            _parse_config("D3-B64")  # missing R


class TestCommands:
    def test_compile_named_workload(self, capsys):
        rc = main(
            ["compile", "tretail", "--scale", "0.02",
             "--config", "D2-B8-R16"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "blocks" in out and "conflicts" in out

    def test_run_verifies(self, capsys):
        rc = main(
            ["run", "bp_200", "--scale", "0.02", "--config", "D2-B8-R32"]
        )
        assert rc == 0
        assert "verified" in capsys.readouterr().out

    def test_run_batched_verifies(self, capsys):
        rc = main(
            ["run", "bp_200", "--scale", "0.02", "--config", "D2-B8-R32",
             "--batch", "16"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "verified: 8/16 rows" in out
        assert "host sweep" in out

    def test_compile_dag_file(self, tmp_path, capsys):
        dag = make_random_dag(181)
        path = tmp_path / "dag.json"
        save_json(dag, path)
        rc = main(["compile", str(path), "--config", "D2-B8-R16"])
        assert rc == 0

    def test_encode_writes_binary(self, tmp_path, capsys):
        out = tmp_path / "prog.bin"
        rc = main(
            [
                "encode", "tretail", "--scale", "0.02",
                "--config", "D2-B8-R16", "--output", str(out),
            ]
        )
        assert rc == 0
        assert out.stat().st_size > 0

    def test_encode_writes_program_image(self, tmp_path, capsys):
        out = tmp_path / "prog.bin"
        img = tmp_path / "prog.img"
        rc = main(
            [
                "encode", "tretail", "--scale", "0.02",
                "--config", "D2-B8-R16", "--output", str(out),
                "--image", str(img),
            ]
        )
        assert rc == 0
        from repro.runner.imageio import read_program_image

        program, read_addrs = read_program_image(img)
        assert program.instructions
        assert len(read_addrs) == len(program.instructions)

    def test_encoding_report(self, tmp_path, capsys):
        rc = main(["encoding-report", "--config", "D2-B8-R16"])
        assert rc == 0
        out = capsys.readouterr().out
        for mnemonic in ("nop", "exec", "copy_4", "store_4"):
            assert mnemonic in out
        assert "opcode 4b" in out

    def test_encoding_report_json(self, tmp_path, capsys):
        import json

        doc_path = tmp_path / "enc.json"
        rc = main(
            [
                "encoding-report", "--config", "D3-B16-R16",
                "--verbose", "--json", str(doc_path),
            ]
        )
        assert rc == 0
        doc = json.loads(doc_path.read_text())
        assert "exec" in doc["encodings"]
        assert doc["meta"]["opcode_bits"] == 4

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_profile_wall_shares_sum_to_100(self, capsys):
        from repro.obs import trace

        try:
            rc = main(
                ["profile", "tretail", "--scale", "0.02",
                 "--config", "D2-B8-R16", "--batch", "8"]
            )
        finally:
            trace.disable()
            trace.drain()
            trace.set_sample_every(16)
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[1].split()
        assert "self ms" in lines[1] and header[-2:] == ["%", "wall"]
        rows = [line.split() for line in lines[3:]]
        names = [row[0] for row in rows]
        assert "plan.lower" in names and names[-1] == "unattributed"
        # Self times partition the wall: nested spans are not counted
        # twice, so the column adds up to 100 up to per-row rounding.
        shares = [float(row[-1]) for row in rows]
        assert abs(sum(shares) - 100.0) <= 0.05 * len(shares) + 1e-9


class TestOrchestratorCommands:
    def test_sweep_parallel_with_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "artifacts"
        argv = [
            "sweep", "--workloads", "tretail", "--scale", "0.02",
            "--jobs", "2", "--cache-dir", str(cache_dir),
        ]
        rc = main(argv)
        assert rc == 0
        cold = capsys.readouterr().out
        assert "optimum corners" in cold
        assert any(cache_dir.glob("*/*.pkl"))  # artifacts persisted
        rc = main(argv)  # warm re-run, same output
        assert rc == 0
        assert capsys.readouterr().out == cold

    def test_sweep_no_cache_writes_nothing(self, tmp_path, capsys):
        cache_dir = tmp_path / "artifacts"
        rc = main(
            [
                "sweep", "--workloads", "tretail", "--scale", "0.02",
                "--no-cache", "--cache-dir", str(cache_dir),
            ]
        )
        assert rc == 0
        assert not cache_dir.exists()

    def test_all_quick_single_experiment(self, capsys):
        rc = main(["all", "--quick", "--only", "fig03_utilization"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig03_utilization" in out
        assert "fig. 3(c)" in out
        assert "PASS  fig03_utilization: tree utilization" in out
        assert "claims: 2 passed, 0 failed" in out

    def test_all_exits_nonzero_on_a_failed_claim(self, capsys, monkeypatch):
        spec = EXPERIMENTS["fig03_utilization"]
        monkeypatch.setitem(
            EXPERIMENTS,
            spec.name,
            dataclasses.replace(
                spec, claims=(Claim("never holds", lambda r: False),)
            ),
        )
        rc = main(["all", "--quick", "--only", "fig03_utilization"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL  fig03_utilization: never holds" in out
        assert "claims: 0 passed, 1 failed" in out

    def test_all_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit, match="unknown experiments"):
            main(["all", "--quick", "--only", "nonsense"])
