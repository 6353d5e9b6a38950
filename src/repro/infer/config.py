"""Inference-pipeline configuration, including ablation switches."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cln.model import GCLNConfig


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
        # An empty schedule would run zero attempts (or divide by zero
        # cycling seeds) instead of solving.
        for name in ("dropout_schedule", "seeds"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        # A rate of 1 drops every unprotected term, and GCLN refuses it.
        for rate in self.dropout_schedule:
            if not 0.0 <= rate < 1.0:
                raise ValueError(
                    f"dropout_schedule entries must be in [0, 1), got {rate}"
                )

    def gcln_for_attempt(self, dropout_rate: float) -> GCLNConfig:
        """GCLNConfig for one attempt, honoring ablation switches."""
        return GCLNConfig(
            dropout_rate=dropout_rate if self.term_dropout else 0.0,
            weight_regularization=self.weight_regularization,
            max_epochs=self.max_epochs,
        )
