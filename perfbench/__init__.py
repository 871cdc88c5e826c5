"""POM-TLB reproduction benchmark (see run.py)."""
