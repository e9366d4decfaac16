"""Command-line entry point: trotter-shuffle <kind> [--config FILE] [overrides].

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import KINDS, ConfigError, ExperimentConfig, _brief, _sidecar_path, emit, run


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="trotter-shuffle",
        description="Run randomized exponential-product experiments and write "
                    "a CSV report with a JSON sidecar.")
    p.add_argument("kind", choices=KINDS, help="experiment kind")
    p.add_argument("--config", metavar="PATH", help="JSON config file")
    p.add_argument("--n", metavar="N[,N...]", help="override n_list (comma-separated)")
    p.add_argument("--d", type=int, help="override d, the dimension every matrix must have")
    p.add_argument("--trials", type=int, help="override trial count")
    p.add_argument("--seed", type=int, help="override master seed")
    p.add_argument("--eps", type=float, help="tail only: floor of the eps grid (default 0.05)")
    p.add_argument("--sigma", choices=("random", "identity"), help="permutation mode")
    p.add_argument("--out", metavar="PATH.csv", help="override output CSV path")
    return p


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    doc: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        except ValueError as exc:  # bad JSON, not UTF-8, or an int past 4,300 digits
            raise ConfigError(f"config: invalid JSON in {args.config}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    if doc.setdefault("kind", args.kind) != args.kind:
        raise ConfigError(f"kind: the config is {_brief(doc['kind'])}, the command {args.kind!r}")
    if args.n is not None:  # --n "" is an empty n_list, not the default
        try:
            doc["n_list"] = [int(x) for x in args.n.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"--n: expected comma-separated integers: {exc}") from exc
    for option, name in (("d", "d"), ("trials", "trials"), ("seed", "seed"), ("eps", "eps"),
                         ("sigma", "sigma_mode"), ("out", "out_path")):
        if getattr(args, option) is not None:
            doc[name] = getattr(args, option)
    cfg = ExperimentConfig.from_dict(doc)
    sidecar = _sidecar_path(cfg.out_path)
    for target in (Path(cfg.out_path), sidecar):  # file-system state: fail before any cell runs
        if args.config and target.resolve() == Path(args.config).resolve():
            raise ConfigError(f"out_path: {target} would overwrite the config file")
        if target.is_dir():
            raise ConfigError(f"out_path: {target} is a directory")
    if not sidecar.parent.is_dir():
        raise ConfigError(f"out_path: the directory {sidecar.parent} does not exist")
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        report = run(cfg)
        path = emit(report, cfg.out_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 3
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {path} and {_sidecar_path(path)}")
    for key, val in report.summary.items():
        print(f"  {key}: {val}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
