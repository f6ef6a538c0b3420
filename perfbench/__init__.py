"""Seeded end-to-end benchmark for asrboot (see README.md)."""
