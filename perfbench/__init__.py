"""End-to-end and per-layer benchmark for blockosc; see README.md."""
