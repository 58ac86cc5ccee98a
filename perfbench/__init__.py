"""Partition-request benchmark: see README.md in this directory."""
