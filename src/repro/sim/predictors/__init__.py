"""Pluggable speculation backends (the predictor zoo).

The paper's Fig. 3 stride table is one backend among several behind the
:class:`~repro.sim.predictors.base.Predictor` protocol; see
``base.py`` for the contract and DESIGN.md ("Predictor backends") for
how the registry feeds the pipeline and the precompute stream factory.
Importing this package registers every built-in
backend:

* ``stride`` — the paper's PC-indexed stride table (reference backend),
* ``perceptron`` — Hermes-style hashed-perceptron dispatch gate,
* ``cache-level`` — Jalili–Erez serving-level gate trained on demand
  d-cache outcomes.
"""

from repro.sim.predictors.base import (
    Predictor,
    backend_names,
    create,
    get_backend,
    normalize_params,
    predictor_key,
    register,
    validate_backend,
)
from repro.sim.predictors.stride import (
    FUNCTIONING,
    LEARNING,
    AddressPredictionTable,
    TableEntry,
    UnboundedPredictor,
)
from repro.sim.predictors.cache_level import CacheLevelPredictor
from repro.sim.predictors.perceptron import PerceptronPredictor

__all__ = [
    "AddressPredictionTable",
    "CacheLevelPredictor",
    "FUNCTIONING",
    "LEARNING",
    "PerceptronPredictor",
    "Predictor",
    "TableEntry",
    "UnboundedPredictor",
    "backend_names",
    "create",
    "get_backend",
    "normalize_params",
    "predictor_key",
    "register",
    "validate_backend",
]
