import inspect
import json
import math

import pytest
from click.testing import CliRunner

from rollsim import hashing
from rollsim.cli import main
from rollsim.scenarios import MAX_DISPUTE_STEPS, ScenarioConfig, run as run_scenario


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def split_runner():
    """A runner whose results keep stderr apart from stdout; click before 8.2
    mixes the two unless told not to."""
    if "mix_stderr" in inspect.signature(CliRunner).parameters:
        return CliRunner(mix_stderr=False)
    return CliRunner()


class TestSnarkDemo:
    def test_prints_witness_and_verdict(self, runner):
        result = runner.invoke(main, ["snark-demo", "--input", "3"])
        assert result.exit_code == 0
        assert "s = [1, 3, 9, 27, 35]" in result.output
        assert "verified: true" in result.output

    def test_prints_intermediates(self, runner):
        result = runner.invoke(main, ["snark-demo", "--input", "3"])
        assert "R1CS" in result.output
        assert "Z(x) = ['-6', '11', '-6', '1']" in result.output
        assert "H(x) = ['-6', '-10']" in result.output
        assert "P(x) = ['36', '-6', '-74', '54', '-10']" in result.output

    def test_other_inputs_verify(self, runner):
        result = runner.invoke(main, ["snark-demo", "--input", "7"])
        assert result.exit_code == 0
        assert "verified: true" in result.output


class TestBloomCalc:
    def test_reference_row(self, runner):
        result = runner.invoke(main, ["bloom-calc", "-n", "1000", "-p", "0.01"])
        assert result.exit_code == 0
        assert "m=9585 k=6" in result.output

    def test_second_row(self, runner):
        result = runner.invoke(main, ["bloom-calc", "-n", "1000", "-p", "0.001"])
        assert "m=14377 k=9" in result.output

    def test_empirical_requires_seed(self, runner):
        result = runner.invoke(
            main, ["bloom-calc", "-n", "100", "-p", "0.01", "--empirical"]
        )
        assert result.exit_code != 0
        assert "--seed" in result.output

    def test_invalid_tolerance_fails(self, runner):
        result = runner.invoke(main, ["bloom-calc", "-n", "10", "-p", "1.5"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("queries", ["0", "-5"])
    def test_queries_below_one_is_a_usage_error(self, runner, queries):
        result = runner.invoke(main, ["bloom-calc", "-n", "10", "-p", "0.01", "--empirical",
                                      "--seed", "1", "--queries", queries])
        assert result.exit_code == 2
        assert "--queries" in result.output
        assert "empirical fp rate" not in result.output


class TestDisputeDemo:
    def test_challenger_wins(self, runner):
        result = runner.invoke(main, ["dispute-demo", "--steps", "1024", "--fault", "600"])
        assert result.exit_code == 0
        assert "challenger wins, rounds=10" in result.output

    def test_fault_bounds_checked(self, runner):
        result = runner.invoke(main, ["dispute-demo", "--steps", "8", "--fault", "9"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("steps, fault", [(8, 5), (1000, 999), (1024, 600)])
    def test_demo_and_fraud_scenario_play_the_same_game(self, runner, steps, fault):
        args = ["--steps", str(steps), "--fault", str(fault)]
        demo = runner.invoke(main, ["dispute-demo", *args])
        scenario = runner.invoke(main, ["simulate-op", "--fraud", *args, "--json"])
        assert demo.exit_code == scenario.exit_code == 0
        dispute = json.loads(scenario.output)["dispute"]
        rounds = math.ceil(math.log2(steps))
        assert demo.output == f"challenger wins, rounds={rounds}\n"
        assert (dispute["winner"], dispute["rounds"]) == ("challenger", rounds)


class TestOutOfRangeTrace:
    """simulate-op and dispute-demo share one bound on --steps and --fault."""

    @pytest.mark.parametrize(
        "args, field",
        [
            (["simulate-op", "--fraud", "--steps", "300000"], "dispute_steps"),
            (["simulate-op", "--fault", "0"], "fault_position"),
            (["simulate-op", "--fraud", "--steps", "8", "--fault", "9"], "fault_position"),
            (["dispute-demo", "--steps", "300000", "--fault", "600"], "dispute_steps"),
            (["dispute-demo", "--steps", str(MAX_DISPUTE_STEPS + 1), "--fault", "1"], "dispute_steps"),
            (["dispute-demo", "--steps", "0", "--fault", "0"], "dispute_steps"),
            (["dispute-demo", "--steps", "8", "--fault", "9"], "fault_position"),
        ],
    )
    def test_rejected_with_one_line_error(self, runner, args, field):
        result = runner.invoke(main, args)
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)  # handled, no traceback
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("Error: ") and field in lines[0]


class TestSimulations:
    def test_simulate_op_json(self, runner):
        result = runner.invoke(main, ["simulate-op", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["invariant_violations"] == []

    def test_simulate_op_with_fraud(self, runner):
        result = runner.invoke(
            main,
            ["simulate-op", "--fraud", "--steps", "128", "--fault", "60", "--json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["dispute"]["winner"] == "challenger"

    def test_simulate_validity(self, runner):
        result = runner.invoke(main, ["simulate-validity", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["withdrawal_latencies"]

    def test_run_with_config_file(self, runner, tmp_path):
        config = ScenarioConfig(
            rollup="validity",
            deposits=[{"user": 1, "value": 100}],
            withdrawals=[{"user": 1, "value": 10}],
        )
        path = tmp_path / "scenario.json"
        path.write_text(config.to_json())
        result = runner.invoke(main, ["run", "--config", str(path), "--json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["config_hash"] == config.config_hash()

    def test_run_with_env_var_config(self, runner, tmp_path, monkeypatch):
        config = ScenarioConfig(rollup="optimistic")
        path = tmp_path / "scenario.json"
        path.write_text(config.to_json())
        monkeypatch.setenv("ROLLSIM_CONFIG", str(path))
        result = runner.invoke(main, ["run", "--json"])
        assert result.exit_code == 0

    def test_bad_config_reports_field(self, runner, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"rollup": "sidechain"}))
        result = runner.invoke(main, ["run", "--config", str(path)])
        assert result.exit_code != 0
        assert "rollup" in result.output


class TestRunProfile:
    @pytest.mark.parametrize(
        "rollup, phases",
        [
            ("optimistic", ["deposit", "batch", "derive_and_execute", "dispute",
                            "propose_and_finalize", "report"]),
            ("validity", ["message_and_execute", "prove_and_settle", "consume", "report"]),
        ],
    )
    def test_phases_on_stderr_sum_to_the_run(self, split_runner, tmp_path, rollup, phases):
        config = ScenarioConfig(
            rollup=rollup, planted_fraud=rollup == "optimistic", dispute_steps=64,
            fault_position=40,
            deposits=[{"user": 1, "value": 100}, {"user": 2, "value": 50}],
            transfers=[{"user": 1, "target": 2, "value": 30}],
            withdrawals=[{"user": 1, "value": 10}, {"user": 2, "value": 20}],
        )
        path = tmp_path / "scenario.json"
        path.write_text(config.to_json())
        for output in ([], ["--json"]):
            plain = split_runner.invoke(main, ["run", "--config", str(path), *output])
            profiled = split_runner.invoke(
                main, ["run", "--config", str(path), "--profile", *output]
            )
            assert plain.exit_code == profiled.exit_code == 0
            assert profiled.stdout == plain.stdout
            assert plain.stderr == ""
            header, *rows = (line.split() for line in profiled.stderr.splitlines())
            assert header == ["phase", "keccak_perms", "wall_s"]
            assert [row[0] for row in rows] == phases
            assert all(float(row[2]) >= 0 for row in rows)
        with hashing.counting() as total:
            run_scenario(config)
        assert sum(int(row[1]) for row in rows) == total.perms > 0


class TestCostReport:
    def test_text_report(self, runner):
        result = runner.invoke(main, ["cost-report"])
        assert result.exit_code == 0
        assert "9240" in result.output
        assert "221000" in result.output

    def test_json_report_with_compression_block(self, runner):
        result = runner.invoke(main, ["cost-report", "--json"])
        payload = json.loads(result.output)
        comp = payload["compression"]
        assert comp["grouped_gas"] <= comp["single_gas"] <= comp["raw_gas"]

    def test_corpus_file(self, runner, tmp_path):
        from rollsim.costbench import save_corpus, synthetic_batch_corpus

        path = tmp_path / "corpus.hex"
        save_corpus(path, synthetic_batch_corpus(n_batches=4))
        result = runner.invoke(main, ["cost-report", "--corpus", str(path), "--json"])
        assert result.exit_code == 0

    def test_group_size_below_one_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["cost-report", "--json", "--group-size", "0"])
        assert result.exit_code == 2
        assert "--group-size" in result.output


class TestUsage:
    def test_unknown_subcommand_exits_2(self, runner):
        result = runner.invoke(main, ["no-such-command"])
        assert result.exit_code == 2
        assert "Usage" in result.output

    def test_help(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for command in ("simulate-op", "simulate-validity", "dispute-demo",
                        "snark-demo", "cost-report", "bloom-calc"):
            assert command in result.output


class TestSchnorrDemo:
    def test_prints_transcript_and_accepts(self, runner):
        result = runner.invoke(main, ["schnorr-demo", "--seed", "3"])
        assert result.exit_code == 0
        assert "accepted: true" in result.output
        line = next(l for l in result.output.splitlines() if l.startswith("transcript:"))
        entries = json.loads(line.partition(": ")[2])
        assert [e["role"] for e in entries] == ["prover", "verifier", "prover"]

    def test_small_group(self, runner):
        result = runner.invoke(main, ["schnorr-demo", "--small-group"])
        assert result.exit_code == 0
        assert "p=23 q=11 g=2" in result.output
