"""Legacy ``repro-sweep`` / ``python -m repro.sweep`` entry: ``repro sweep``."""

from repro.cli import alias

main = alias("sweep")
