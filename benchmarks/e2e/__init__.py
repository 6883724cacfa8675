"""The benchmark of record (see README.md); entry point is ``run.py``."""
