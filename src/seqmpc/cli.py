"""Command-line interface: single runs, parameter sweeps and verification.

Exit codes: 0 success, 1 configuration or usage error, 2 simulation
blow-up, 3 solver/verification error.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import click

from .controller import MODES
from .harness import (
    ConfigError,
    ScenarioConfig,
    compute_metrics,
    load_config,
    run_scenario,
    sweep,
    write_metrics_csv,
    write_spectrum_csv,
    write_sweep_csv,
)
from .plant import SimulationBlowUpError
from .solver import SolverError

EXIT_CONFIG = 1
EXIT_BLOWUP = 2
EXIT_SOLVER = 3


def _load(config_path, overrides) -> ScenarioConfig:
    """The config file (or the defaults) with each given override flag on
    top; a list field takes the flag's value as a one-item list."""
    cfg = load_config(config_path) if config_path else ScenarioConfig()
    given = {
        name: (value,) if isinstance(getattr(cfg, name), tuple) else value
        for name, value in overrides.items()
        if value is not None
    }
    try:
        return replace(cfg, **given)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc


def _out_dir(out_dir) -> Path:
    """`out_dir` as a Path, checked before step 0 and created only when the
    outputs are written: ConfigError unless it, or else its nearest existing
    ancestor, is a directory."""
    out = Path(out_dir)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} is not a directory")
    return out


def _common_options(fn):
    # each override flag stores its value under the ScenarioConfig field it sets
    options = [
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="Scenario config file (INI-style key/value sections)."),
        click.option("--horizon", "horizons", type=int, default=None,
                     help="Prediction horizon."),
        click.option("--nk", "n_ks", type=int, default=None, help="Machine-side candidate count."),
        click.option("--nl", "n_ls", type=int, default=None, help="Grid-side candidate count."),
        click.option("--lambda", "lambdas", type=float, default=None,
                     help="Switching-effort weight."),
        click.option("--mode", "modes", type=click.Choice(MODES), default=None),
        click.option("--duration", type=float, default=None, help="Simulated seconds."),
        click.option("--substeps", type=int, default=None, help="Plant sub-integrations per period."),
        click.option("--out", "out_dir", type=click.Path(), default="runs/latest",
                     help="Output directory for CSV files."),
    ]
    for opt in reversed(options):
        fn = opt(fn)
    return fn


@contextmanager
def _usage_errors_exit_config():
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_CONFIG
        raise


class _Cli(click.Group):
    """Usage errors (a bad flag or value, an unknown command) exit with
    EXIT_CONFIG: click's own code for them, 2, is EXIT_BLOWUP here."""

    def make_context(self, *args, **kwargs):  # parses the group's arguments
        with _usage_errors_exit_config():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):  # resolves the subcommand and parses its arguments
        with _usage_errors_exit_config():
            return super().invoke(ctx)


@click.group(cls=_Cli)
def main():
    """Sequential multistep MPC simulator for an NPC back-to-back PMSG plant."""


@main.command()
@_common_options
def run(config_path, out_dir, **overrides):
    """Simulate one scenario and write timeseries/metrics/spectrum CSV files."""
    try:
        cfg = _load(config_path, overrides)
        ctrl = cfg.controller()
        cfg.check_metric_windows()
        out = _out_dir(out_dir)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    try:
        series = run_scenario(cfg, ctrl)
    except SimulationBlowUpError as exc:
        click.echo(f"simulation blew up: {exc}", err=True)
        sys.exit(EXIT_BLOWUP)
    except SolverError as exc:
        click.echo(f"solver error: {exc}", err=True)
        sys.exit(EXIT_SOLVER)
    try:
        metrics = compute_metrics(series, cfg)
    except ConfigError as exc:
        # e.g. a run without fundamental current
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    out.mkdir(parents=True, exist_ok=True)
    series.write_csv(out / "timeseries.csv")
    write_metrics_csv(metrics, ctrl, out / "metrics.csv")
    write_spectrum_csv(series, cfg, out / "spectrum.csv")
    click.echo(f"{len(series)} steps -> {out}")
    for name, value in asdict(metrics).items():
        click.echo(f"  {name} = {value:.6g}")


@main.command(name="sweep")
@_common_options
def sweep_cmd(config_path, out_dir, **overrides):
    """Run the controller-parameter grid and write one metrics row per cell."""
    try:
        cfg = _load(config_path, overrides)
        cfg.controller_grid()  # the controller checks first: their messages are more specific
        cfg.check_metric_windows()
        out = _out_dir(out_dir)
        rows = sweep(cfg)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(rows, out / "metrics.csv")
    failed = [r for r in rows if r["status"] != "ok"]
    click.echo(f"{len(rows)} configurations -> {out / 'metrics.csv'}"
               + (f" ({len(failed)} failed)" if failed else ""))


@main.command()
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--cases", type=click.IntRange(min=1), default=25, help="Random cases per property.")
def verify(seed, cases):
    """Check the decoder and condensation against enumeration oracles."""
    from . import verify as verify_mod

    results = verify_mod.run_all(seed=seed, cases=cases)
    ok = True
    for name, passed, detail in results:
        status = "pass" if passed else "FAIL"
        click.echo(f"{status}  {name}: {detail}")
        ok = ok and passed
    if not ok:
        sys.exit(EXIT_SOLVER)


if __name__ == "__main__":
    main()
