"""Cache-level prediction gating speculative dispatch (Jalili & Erez).

Jalili & Erez (PAPERS.md) predict *which level of the hierarchy serves
a load* and act on the predicted level before the access resolves.  In
this machine the interesting boundary is L1: a speculative early access
for a load whose demand access will miss the d-cache buys little (the
miss dominates) while still occupying a memory port that a neighbouring
load could have used.  This backend therefore:

* generates candidate addresses with unchanged Fig. 3 stride hardware
  (an internal confidence-free
  :class:`~repro.sim.predictors.stride.AddressPredictionTable`);
* keeps one n-bit saturating *level counter* per table entry that
  predicts "the d-cache serves this load".  A probe dispatches the
  candidate only when the counter is above its midpoint; otherwise the
  prediction is withheld (counted in ``suppressed``) and the port is
  saved for demand traffic;
* trains the counter on the *demand* outcome of every routed load
  (``trains_on_demand``): increment when the demand access hit the
  d-cache, decrement when it missed.  A reallocated entry resets its
  counter to the optimistic midpoint + 1, mirroring the stride
  confidence boundary semantics (cold entries dispatch until proven
  miss-prone).

Because training consumes the demand-hit stream, the backend's state
depends on the d-cache contents — which the precompute layer already
models per config, including pollution from wrong-address speculative
fills.  Its streams assume every wrong-address access dispatched; a
replay where one found no port reruns in live mode, so only exact
streams are ever accepted.

Parameters (``EarlyGenConfig.predictor_params``): ``counter_bits``
(level-counter width, default 2, range [1, 4]).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.sim.predictors.base import Predictor, register
from repro.sim.predictors.stride import AddressPredictionTable

__all__ = ["CacheLevelPredictor"]


@register
class CacheLevelPredictor(Predictor):
    """Stride address generation gated by a predicted serving level."""

    name = "cache-level"
    trains_on_demand = True
    PARAM_DEFAULTS: Dict[str, int] = {"counter_bits": 2}

    __slots__ = ("entries", "confidence_bits", "_params", "_table",
                 "_level", "_level_max", "_level_mid", "_level_init",
                 "probes", "tag_hits", "predictions", "correct",
                 "suppressed")

    def __init__(self, entries: int, counter_bits: int = 2):
        self.entries = entries
        self.confidence_bits = 0
        self._params = (("counter_bits", counter_bits),)
        self._table = AddressPredictionTable(entries, 0)
        self._level_max = (1 << counter_bits) - 1
        self._level_mid = self._level_max // 2
        self._level_init = self._level_mid + 1
        self.reset()

    @classmethod
    def validate_config(cls, table_entries: int, confidence_bits: int,
                        params: Tuple[Tuple[str, int], ...]) -> None:
        if confidence_bits:
            raise ValueError(
                "the cache-level backend carries its own dispatch gate; "
                "table_confidence_bits must be 0")
        resolved = cls.resolved_params(params)
        if not 1 <= resolved["counter_bits"] <= 4:
            raise ValueError("cache-level counter_bits must be in [1, 4]")

    @classmethod
    def from_config(cls, table_entries: int, confidence_bits: int,
                    params: Tuple[Tuple[str, int], ...]
                    ) -> "CacheLevelPredictor":
        cls.validate_config(table_entries, confidence_bits, params)
        resolved = cls.resolved_params(params)
        return cls(table_entries, counter_bits=resolved["counter_bits"])

    def params_key(self) -> tuple:
        return (self.name, self.entries, 0, self._params)

    def reset(self) -> None:
        self._table.reset()
        self._level = [self._level_init] * self.entries
        self.probes = 0
        self.tag_hits = 0
        self.predictions = 0
        self.correct = 0
        #: Candidates withheld by a predicted-miss level counter.
        self.suppressed = 0

    # -- protocol ----------------------------------------------------------

    def probe(self, pc: int) -> Optional[int]:
        """The stride candidate, unless the load is predicted to miss."""
        self.probes += 1
        index, tag = self._table._split(pc)
        entry = self._table._table[index]
        if entry is None or entry.tag != tag:
            return None
        self.tag_hits += 1
        candidate = entry.predict()
        if candidate is None:
            return None
        if self._level[index] <= self._level_mid:
            self.suppressed += 1
            return None
        self.predictions += 1
        return candidate

    def update(self, pc: int, ca: int, predicted: Optional[int] = None,
               demand_hit: Optional[bool] = None) -> None:
        """Advance the stride engine and train the level counter.

        ``demand_hit`` is the demand d-cache outcome of this load; when
        the caller cannot supply it (``None``) the counter is left
        untouched, which keeps update unconditional and deterministic.
        """
        if predicted is not None and predicted == ca:
            self.correct += 1
        index, tag = self._table._split(pc)
        entry = self._table._table[index]
        realloc = entry is None or entry.tag != tag
        self._table.update(pc, ca)
        if realloc:
            self._level[index] = self._level_init
        elif demand_hit is not None:
            if demand_hit:
                if self._level[index] < self._level_max:
                    self._level[index] += 1
            elif self._level[index] > 0:
                self._level[index] -= 1
