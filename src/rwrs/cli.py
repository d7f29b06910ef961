"""Command line entry point: config file plus --key=value overrides."""
from __future__ import annotations

import sys
from dataclasses import fields
from pathlib import Path

from .config import ConfigError, ExperimentConfig, parse_config
from .runner import run_experiment

USAGE = """\
usage: rwrs [CONFIG_FILE] [--key=value ...]

Runs one experiment described by a flat key-value config file
(`key: value` per line, `#` comments). Flags override file values.
Known keys:
  {keys}

Exit status: 0 all thresholds met, 1 threshold failure, 2 error.
"""


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if any(tok in ("-h", "--help") for tok in argv):
        keys = sorted(f.name for f in fields(ExperimentConfig))
        print(USAGE.format(keys=", ".join(keys)))
        return 0

    config_path: str | None = None
    overrides: dict[str, str] = {}
    for token in argv:
        if token.startswith("--"):
            if "=" not in token:
                print(f"error: flags must use --key=value form: {token!r}",
                      file=sys.stderr)
                return 2
            key, value = token[2:].split("=", 1)
            overrides[key] = value
        elif config_path is None:
            config_path = token
        else:
            print(f"error: unexpected argument {token!r}", file=sys.stderr)
            return 2

    try:
        text = Path(config_path).read_text() if config_path else ""
        config = parse_config(text, overrides)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        manifest = run_experiment(config)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name in manifest.outputs:
        print(f"wrote {name}")
    print("result: " + ("PASS" if manifest.passed else "FAIL"))
    return 0 if manifest.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
