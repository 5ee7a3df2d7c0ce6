"""Layered benchmark harness (see layerbench/run.py)."""
