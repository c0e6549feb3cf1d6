"""Legacy ``repro-batch`` / ``python -m repro.runtime`` entry: ``repro batch``."""

from repro.cli import alias

main = alias("batch")
