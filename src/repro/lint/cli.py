"""Legacy ``repro-lint`` / ``python -m repro.lint`` entry: ``repro lint``."""

from repro.cli import alias

main = alias("lint")
