"""End-to-end co-simulation benchmark; run ``perfbench/run.py``."""
