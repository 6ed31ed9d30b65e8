"""Physical parameters for the focusing fractional Hartree equation.

The model is  i u_t - (-Delta)^s u + (|x|^{-gamma} * |u|^2) u = 0  on R^N,
truncated to a periodic box for computation.  All derived exponents are
recomputed from (N, s, gamma) on access and never stored independently.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PhysParams:
    """Dimension N, Levy index s, and convolution-kernel exponent gamma.

    Admissible window: N in {2, 3}, 0 < s < 1, 2s < gamma < min(N, 4s).
    The lower bound makes the problem L^2-supercritical, the upper bounds
    keep the kernel locally integrable and the energy subcritical.
    """

    N: int
    s: float
    gamma: float

    def __post_init__(self) -> None:
        if self.N not in (2, 3):
            raise ValueError(f"N must be 2 or 3, got {self.N}")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        lo, hi = 2.0 * self.s, min(float(self.N), 4.0 * self.s)
        if not lo < self.gamma < hi:
            raise ValueError(
                f"gamma must lie in (2s, min(N, 4s)) = ({lo}, {hi}), got {self.gamma}"
            )

    @property
    def s_c(self) -> float:
        """Critical Sobolev regularity (gamma - 2s)/2; positive in the admissible window."""
        return 0.5 * (self.gamma - 2.0 * self.s)

    @property
    def p_c(self) -> float:
        """Scale-invariant Lebesgue exponent 2N/(N - gamma + 2s)."""
        return 2.0 * self.N / (self.N - self.gamma + 2.0 * self.s)

    @property
    def q_c(self) -> float:
        """Space-time exponent (2N + 4s)/(N + 2s - gamma); the diagnostic
        space-time norm uses the same exponent in time and space."""
        return (2.0 * self.N + 4.0 * self.s) / (self.N + 2.0 * self.s - self.gamma)

    @property
    def mass_power(self) -> float:
        """Exponent (s - s_c)/s_c weighting the mass in scale-invariant products."""
        return (self.s - self.s_c) / self.s_c

    @property
    def supports_scattering(self) -> bool:
        """Whether s >= N/(2N - 1), the extra hypothesis needed by the
        global-dispersal half of the dichotomy classification."""
        return self.s >= self.N / (2.0 * self.N - 1.0)
