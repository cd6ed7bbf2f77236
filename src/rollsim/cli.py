"""Command-line entry points: scenario runs, demos, and report generators.

Each subcommand imports the modules it runs, so a start-up loads only those.
"""

from __future__ import annotations

import contextlib
import json
import random
import sys
from typing import TYPE_CHECKING, Iterator

import click
from click.core import ParameterSource

from . import __version__

if TYPE_CHECKING:
    from .scenarios import ScenarioConfig

CONFIG_ENV_VAR = "ROLLSIM_CONFIG"


@click.group()
@click.version_option(version=__version__)
def main():
    """Desk-scale rollup simulator and proof-system playground."""


def _load_config(config_path: str | None) -> ScenarioConfig:
    from .scenarios import ConfigError, ScenarioConfig

    if config_path is None:
        return ScenarioConfig()
    try:
        with open(config_path, encoding="utf-8") as fh:
            payload = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config: not UTF-8 ({exc})") from exc
    return ScenarioConfig.from_json(payload)


@contextlib.contextmanager
def _config_errors() -> Iterator[None]:
    """End a ``ConfigError`` raised in the block as click's one-line error."""
    from .scenarios import ConfigError

    try:
        yield
    except ConfigError as exc:
        raise click.ClickException(str(exc))


def _emit_report(report, as_json: bool) -> None:
    if as_json:
        click.echo(report.to_json())
    else:
        click.echo(f"report hash : {report.report_hash()}")
        for entry in report.timeline:
            details = {
                k: v for k, v in entry.items() if k not in ("time", "block", "event")
            }
            click.echo(
                f"t={entry['time']:>8} block={entry['block']:>3} "
                f"{entry['event']:<22} {details}"
            )
        if report.dispute.get("played"):
            click.echo(
                f"dispute     : {report.dispute['winner']} wins, "
                f"rounds={report.dispute['rounds']}"
            )
        for wh, lat in report.withdrawal_latencies.items():
            click.echo(f"withdrawal  : {wh[:16]}... latency {lat}")
    if not report.ok:
        for violation in report.invariant_violations:
            click.echo(f"INVARIANT VIOLATED: {violation}", err=True)
        sys.exit(1)


@main.command(name="run")
@click.option("--config", "config_path", envvar=CONFIG_ENV_VAR, type=click.Path(),
              default=None, help=f"Scenario config JSON (default: ${CONFIG_ENV_VAR}).")
@click.option("--json", "as_json", is_flag=True, help="Emit the full report as JSON.")
@click.option("--profile", is_flag=True,
              help="Print Keccak-f permutations, those run packed, and wall time per "
                   "phase on stderr.")
@click.pass_context
def run_cmd(ctx, config_path, as_json, profile):
    """Run a scenario from a config file."""
    from .scenarios import PhaseCost, run as run_scenario

    if config_path is not None:  # checked here, where click can say where the path came from
        try:
            click.Path(exists=True, dir_okay=False).convert(config_path, None, ctx)
        except click.BadParameter as exc:
            from_env = ctx.get_parameter_source("config_path") is ParameterSource.ENVIRONMENT
            exc.param_hint = f"'--config' (from ${CONFIG_ENV_VAR})" if from_env else "'--config'"
            raise
    phases: list[PhaseCost] | None = [] if profile else None
    with _config_errors():
        report = run_scenario(_load_config(config_path), profile=phases)
    if profile:
        click.echo(f"{'phase':<22} {'keccak_perms':>12} {'packed':>8} {'wall_s':>10}", err=True)
        for row in phases:
            click.echo(f"{row.phase:<22} {row.perms:>12} {row.packed:>8} {row.seconds:>10.4f}",
                       err=True)
    _emit_report(report, as_json)


_DEFAULT_WORKLOAD = dict(
    deposits=[{"user": 0x100, "value": 10_000}, {"user": 0x200, "value": 5_000}],
    transfers=[{"user": 0x100, "target": 0x200, "value": 1_000}],
    withdrawals=[{"user": 0x200, "value": 700}],
)


@main.command(name="simulate-op")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--fraud/--no-fraud", default=False,
              help="Plant an invalid output root and play the dispute game.")
@click.option("--steps", type=int, default=1024, show_default=True,
              help="Dispute trace length when fraud is planted.")
@click.option("--fault", type=int, default=600, show_default=True,
              help="Planted divergence position in the trace.")
@click.option("--json", "as_json", is_flag=True)
def simulate_op(seed, fraud, steps, fault, as_json):
    """Run the optimistic-rollup scenario: deposit, batch, derive, withdraw."""
    from .scenarios import ScenarioConfig, run as run_scenario

    config = ScenarioConfig(
        seed=seed, rollup="optimistic", planted_fraud=fraud,
        dispute_steps=steps, fault_position=fault, **_DEFAULT_WORKLOAD,
    )
    with _config_errors():
        report = run_scenario(config)
    _emit_report(report, as_json)


@main.command(name="simulate-validity")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def simulate_validity(seed, as_json):
    """Run the validity-rollup scenario: message in, prove, settle, consume."""
    from .scenarios import ScenarioConfig, run as run_scenario

    config = ScenarioConfig(seed=seed, rollup="validity", **_DEFAULT_WORKLOAD)
    with _config_errors():
        report = run_scenario(config)
    _emit_report(report, as_json)


@main.command(name="dispute-demo")
@click.option("--steps", type=int, default=1024, show_default=True)
@click.option("--fault", type=int, default=600, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def dispute_demo(steps, fault, seed):
    """Play one bisection game with a planted fault and print the outcome."""
    from .oprollup import dispute as dispute_mod
    from .scenarios import ScenarioConfig

    with _config_errors():  # no scenario runs here to check the bounds
        ScenarioConfig(dispute_steps=steps, fault_position=fault).validate()
    registers = (0, 1 + random.Random(seed).randrange(5), 3, 0, 1, 0, 0, 0)
    game = dispute_mod.play_planted_fault(registers, steps, fault, challenger=0xC, defender=0xD)
    click.echo(f"{game.winner} wins, rounds={game.rounds}")
    if game.winner != dispute_mod.CHALLENGER:
        sys.exit(1)


@main.command(name="snark-demo")
@click.option("--input", "input_value", type=int, default=3, show_default=True,
              help="Input x for the cubic demo program.")
@click.option("--seed", type=int, default=0, show_default=True)
def snark_demo(input_value, seed):
    """Run the full pipeline on x*x*x + 8 and print every intermediate."""
    from .algebra import DEFAULT_PRIME, PairingGroup
    from .snark import run_pipeline

    group = PairingGroup(DEFAULT_PRIME)
    result = run_pipeline("x*x*x + 8", {"x": input_value}, group, random.Random(seed))
    click.echo("flattened program:")
    for statement in result.program.statements:
        click.echo(f"  {statement}")
    click.echo(f"s = {[e.value for e in result.solution]}")
    click.echo("R1CS constraints (a | b | c):")
    for a, b, c in result.r1cs.constraints:
        click.echo(f"  {list(a)} | {list(b)} | {list(c)}")

    def poly_str(poly):
        try:
            return str([str(f) for f in poly.to_rationals()])
        except ValueError:
            return str([c.value for c in poly.coeffs])

    click.echo("QAP polynomials (coefficients low to high, as rationals):")
    for tag, polys in (("A", result.qap.a_polys), ("B", result.qap.b_polys),
                       ("C", result.qap.c_polys)):
        for i, poly in enumerate(polys, start=1):
            click.echo(f"  {tag}{i}(x) = {poly_str(poly)}")
    click.echo(f"Z(x) = {poly_str(result.qap.z)}")
    click.echo(f"P(x) = {poly_str(result.p_poly)}")
    click.echo(f"H(x) = {poly_str(result.h_poly)}")
    click.echo(
        f"CRS: {len(result.crs.powers)} powers + {len(result.crs.shifted_powers)} shifts"
    )
    click.echo(f"proof: {result.proof.to_json()}")
    click.echo(f"output = {result.output.value}")
    click.echo(f"verified: {'true' if result.accepted else 'false'}")
    if not result.accepted:
        sys.exit(1)


@main.command(name="schnorr-demo")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--small-group", is_flag=True,
              help="Use the hand-checkable group (p=23, q=11, g=2).")
def schnorr_demo(seed, small_group):
    """Run one Schnorr interaction and print its transcript."""
    from .proofs import (
        DEFAULT_SCHNORR_GROUP,
        SMALL_SCHNORR_GROUP,
        schnorr_keygen,
        schnorr_round,
        schnorr_verify,
    )

    group = SMALL_SCHNORR_GROUP if small_group else DEFAULT_SCHNORR_GROUP
    rng = random.Random(seed)
    keys = schnorr_keygen(group, rng)
    transcript = schnorr_round(keys, rng)
    accepted = schnorr_verify(keys.public, group, transcript)
    click.echo(f"group: p={group.p} q={group.q} g={group.g}")
    click.echo(f"public key: {keys.public}")
    click.echo(f"transcript: {transcript.to_json()}")
    click.echo(f"accepted: {'true' if accepted else 'false'}")
    if not accepted:
        sys.exit(1)


@main.command(name="cost-report")
@click.option("--corpus", "corpus_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Hex-line batch corpus (default: the synthetic fixture).")
@click.option("--group-size", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cost_report(corpus_path, group_size, as_json):
    """Three-way data-availability cost comparison plus compression stats."""
    from .costbench import (
        compression_stats,
        da_cost_comparison,
        load_corpus,
        synthetic_batch_corpus,
    )
    from .validityrollup.statediff import MAINNET_DIFF_VECTOR, decode_state_diff

    diff = decode_state_diff(MAINNET_DIFF_VECTOR)
    if corpus_path:
        try:
            corpus = load_corpus(corpus_path)
        except ValueError as exc:  # a line that is not hex, or bytes that are not text
            raise click.BadParameter(f"{corpus_path}: {exc}", param_hint="'--corpus'")
        if not corpus:
            raise click.BadParameter(f"{corpus_path} holds no batch", param_hint="'--corpus'")
    else:
        corpus = synthetic_batch_corpus()
    report = da_cost_comparison(diff, optimistic_batches=corpus)
    if as_json:
        payload = report.as_dict()
        grouped = compression_stats(corpus, group_size)
        single = compression_stats(corpus, 1)
        payload["compression"] = {
            "grouped_gas": grouped.total_compressed_gas,
            "single_gas": single.total_compressed_gas,
            "raw_gas": single.total_raw_gas,
        }
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        click.echo(report.to_text())


@main.command(name="bloom-calc")
@click.option("-n", "expected", type=int, required=True, help="Expected insert count.")
@click.option("-p", "tolerance", type=float, required=True,
              help="Target false-positive rate in (0, 1).")
@click.option("--empirical", is_flag=True,
              help="Also measure the FP rate by Monte Carlo (needs --seed).")
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None,
              help="Mandatory with --empirical; drives the simulation.")
@click.option("--queries", type=click.IntRange(min=1), default=100_000, show_default=True)
def bloom_calc(expected, tolerance, empirical, seed, queries):
    """Size a Bloom filter; optionally validate the rate empirically."""
    from .costbench import BloomFilter, bloom_params, fp_rate

    try:
        m, k = bloom_params(expected, tolerance)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    click.echo(f"m={m} k={k}")
    click.echo(f"predicted fp rate: {fp_rate(m, k, expected):.3g}")
    if empirical:
        if seed is None:
            raise click.ClickException("--empirical requires --seed")
        rng = random.Random(seed)
        bloom = BloomFilter(m, k, seed=seed)
        for i in range(expected):
            bloom.insert(b"member-%d" % i)
        hits = sum(
            1 for i in range(queries) if bloom.query(b"absent-%d" % rng.randrange(2**48))
        )
        click.echo(f"empirical fp rate: {hits / queries:.3g} over {queries} queries")


if __name__ == "__main__":
    main()
