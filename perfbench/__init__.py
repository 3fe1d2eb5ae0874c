"""Pipeline benchmark for bernabs; see run.py."""
