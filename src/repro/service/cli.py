"""Legacy ``repro-service`` / ``python -m repro.service`` entry: ``repro service``."""

from repro.cli import alias

main = alias("service")
