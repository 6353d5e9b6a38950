"""Inference-pipeline configuration, including ablation switches."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

from repro.cln.model import GCLNConfig

_SWITCHES = (
    "data_normalization",
    "weight_regularization",
    "term_dropout",
    "fractional_sampling",
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class InferenceConfig:
    """Knobs for the end-to-end pipeline.

    The four boolean switches correspond to the columns of the paper's
    Table 3 ablation; everything defaults to the full method.  The
    remaining §6 hyperparameters are module constants where they are
    read (see :class:`~repro.cln.model.GCLNConfig`;
    ``schedule.FRACTIONAL_INTERVALS``, ``filters.GROWTH_RATIO_CAP``).
    """

    # Ablation switches (Table 3).
    data_normalization: bool = True
    weight_regularization: bool = True
    term_dropout: bool = True
    fractional_sampling: bool = True

    # Retry schedule: dropout rates tried across attempts (the paper
    # adjusts the rate by 0.1 per failed attempt).
    dropout_schedule: tuple[float, ...] = (0.6, 0.7, 0.5, 0.75)
    # Random seeds paired with attempts (cycled).
    seeds: tuple[int, ...] = (1, 2, 3, 4)

    # Training budget per attempt.
    max_epochs: int = 2000

    def __post_init__(self) -> None:
        # A config also arrives as JSON (serve, queue items), so check
        # types here: a string "no" would silently switch dropout on,
        # and a string or negative budget would fail deep in training.
        for name in _SWITCHES:
            if not isinstance(getattr(self, name), bool):
                raise ValueError(
                    f"{name} must be a bool, got {getattr(self, name)!r}"
                )
        if not _is_int(self.max_epochs) or self.max_epochs < 1:
            raise ValueError(
                f"max_epochs must be an int >= 1, got {self.max_epochs!r}"
            )
        # An empty schedule would run zero attempts (or divide by zero
        # cycling seeds) instead of solving.
        for name in ("dropout_schedule", "seeds"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                raise ValueError(f"{name} must be a tuple, got {value!r}")
            if not value:
                raise ValueError(f"{name} must not be empty")
        for seed in self.seeds:
            if not _is_int(seed):
                raise ValueError(f"seeds must be ints, got {seed!r}")
        # A rate of 1 drops every unprotected term, and GCLN refuses it.
        for rate in self.dropout_schedule:
            if not (
                isinstance(rate, Real)
                and not isinstance(rate, bool)
                and 0.0 <= rate < 1.0
            ):
                raise ValueError(
                    f"dropout_schedule entries must be numbers in [0, 1), "
                    f"got {rate!r}"
                )

    def gcln_for_attempt(self, dropout_rate: float) -> GCLNConfig:
        """GCLNConfig for one attempt, honoring ablation switches."""
        return GCLNConfig(
            dropout_rate=dropout_rate,
            term_dropout=self.term_dropout,
            weight_regularization=self.weight_regularization,
            max_epochs=self.max_epochs,
        )
