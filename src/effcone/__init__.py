"""Exact certificates for invariant effective cones on spaces of pointed
rational curves, effectivity thresholds, and binary-form orbit counting."""

__version__ = "0.1.0"
