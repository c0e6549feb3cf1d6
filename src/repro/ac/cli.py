"""Legacy ``repro-ac`` / ``python -m repro.ac`` entry: ``repro ac``."""

from repro.cli import alias

main = alias("ac")
