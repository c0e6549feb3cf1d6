"""Legacy ``repro-pss`` / ``python -m repro.pss`` entry: ``repro pss``."""

from repro.cli import alias

main = alias("pss")
