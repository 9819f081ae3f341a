"""Placeholder module kept only for the frozen ``perfbench`` harness.

``perfbench/bench.py`` imports ``repro.sim.replay_kernel`` while it
warms the package's imports.  Warm sweeps run on the scalar stream
replay in :mod:`repro.sim.precompute`; this module defines nothing and
imports nothing.
"""
