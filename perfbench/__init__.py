"""The repository benchmark (see ``perfbench/README.md``)."""
