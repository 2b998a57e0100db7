"""Discrete univariate probability distributions.

``DiscreteDistribution`` is the representation of a *distance distribution*
(:math:`U_Q`, :math:`U_q`; Section 2.1) and of any other finite random
variable the paper manipulates.  Values are kept sorted in non-decreasing
order with their probabilities, which makes the stochastic order check a
single merge scan and makes quantiles O(log n).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

_PROB_TOL = 1e-9


class DiscreteDistribution:
    """A finite random variable: sorted support values with probabilities.

    Equal values are merged on construction, so two distributions are
    distributionally identical iff their ``values``/``probs`` arrays match.

    Attributes:
        values: sorted support, shape ``(n,)``.
        probs: matching probabilities, shape ``(n,)``, summing to ``total``.
    """

    __slots__ = ("values", "probs", "_cum")

    def __init__(
        self,
        values: Iterable[float],
        probs: Iterable[float] | None = None,
        *,
        normalize: bool = False,
    ) -> None:
        if not isinstance(values, np.ndarray):
            values = list(values)
        vals = np.asarray(values, dtype=float)
        if probs is None:
            if vals.size == 0:
                raise ValueError("distribution needs at least one value")
            ps = np.full(vals.shape, 1.0 / vals.size)
        else:
            if not isinstance(probs, np.ndarray):
                probs = list(probs)
            ps = np.asarray(probs, dtype=float)
        if vals.shape != ps.shape or vals.ndim != 1:
            raise ValueError("values and probs must be equal-length 1-d arrays")
        if vals.size == 0:
            raise ValueError("distribution needs at least one value")
        if np.any(ps < -_PROB_TOL):
            raise ValueError("probabilities must be non-negative")
        if normalize:
            total = ps.sum()
            if total <= 0:
                raise ValueError("cannot normalize zero total mass")
            ps = ps / total
        if ps[0] == ps[-1] and (ps == ps[0]).all():
            # Equal masses (every unweighted object and query): the sorted
            # values alone fix the result, so skip the argsort and gather.
            # The copy keeps the instance from sharing the caller's array.
            vals = np.sort(vals)
            ps = ps.copy()
            significant = ps[0] > _PROB_TOL
        else:
            order = np.argsort(vals, kind="stable")
            vals = vals[order]
            ps = ps[order]
            significant = (ps > _PROB_TOL).all()
        # Common case: all mass significant, no (near-)duplicate support —
        # the merge loop below would be the identity, so skip it.
        self._cum = None
        if significant and (vals.size == 1 or (np.diff(vals) > 1e-12).all()):
            self.values = vals
            self.probs = ps
            return
        # Merge duplicate support points so equality tests are canonical.
        keep_vals: list[float] = []
        keep_ps: list[float] = []
        for v, p in zip(vals, ps):
            if p <= _PROB_TOL:
                continue
            if keep_vals and abs(v - keep_vals[-1]) <= 1e-12:
                keep_ps[-1] += p
            else:
                keep_vals.append(float(v))
                keep_ps.append(float(p))
        if not keep_vals:
            raise ValueError("distribution has no probability mass")
        self.values = np.asarray(keep_vals)
        self.probs = np.asarray(keep_ps)

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return int(self.values.size)

    def __iter__(self):
        return iter(zip(self.values, self.probs))

    def __repr__(self) -> str:
        pairs = ", ".join(f"({v:g}, {p:g})" for v, p in zip(self.values, self.probs))
        return f"DiscreteDistribution([{pairs}])"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return bool(
            self.values.size == other.values.size
            and np.allclose(self.values, other.values, atol=1e-9)
            and np.allclose(self.probs, other.probs, atol=_PROB_TOL)
        )

    def __hash__(self) -> int:  # pragma: no cover - dict use is incidental
        return hash((self.values.tobytes(), self.probs.round(9).tobytes()))

    # ------------------------------------------------------------------ #
    # Statistics (Theorem 11 pruning ingredients and N1 aggregates)
    # ------------------------------------------------------------------ #

    def cum_probs(self) -> np.ndarray:
        """``[0, P(<= v_1), ..., total]`` — cumulative masses, cached.

        The distribution is immutable after construction, so the prefix-sum
        array every CDF evaluation needs is computed once.
        """
        if self._cum is None:
            self._cum = np.concatenate([[0.0], np.cumsum(self.probs)])
        return self._cum

    @property
    def total_mass(self) -> float:
        """Total probability mass (1.0 for normalized distributions)."""
        return float(self.cum_probs()[-1])

    def min(self) -> float:
        """Smallest support value."""
        return float(self.values[0])

    def max(self) -> float:
        """Largest support value."""
        return float(self.values[-1])

    def mean(self) -> float:
        """Expected value."""
        return float(np.dot(self.values, self.probs) / self.probs.sum())

    def variance(self) -> float:
        """Variance about the mean."""
        mu = self.mean()
        return float(np.dot((self.values - mu) ** 2, self.probs) / self.probs.sum())

    def cdf(self, x: float) -> float:
        """``Pr(X <= x)``."""
        idx = int(np.searchsorted(self.values, x + 1e-12, side="right"))
        return float(self.cum_probs()[idx])

    def quantile(self, phi: float) -> float:
        """The paper's ``phi-quantile`` (Definition 10).

        The value of the first sorted instance whose cumulative probability
        reaches ``phi``.

        Raises:
            ValueError: unless ``0 < phi <= total mass (+tolerance)``.
        """
        if not 0 < phi <= self.total_mass + _PROB_TOL:
            raise ValueError(f"phi must lie in (0, {self.total_mass}]; got {phi}")
        cum = np.cumsum(self.probs)
        idx = int(np.searchsorted(cum, phi - _PROB_TOL, side="left"))
        idx = min(idx, len(self.values) - 1)
        return float(self.values[idx])

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, float]]) -> "DiscreteDistribution":
        """Build from ``(value, probability)`` tuples."""
        if not pairs:
            raise ValueError("distribution needs at least one pair")
        vals, ps = zip(*pairs)
        return cls(vals, ps)

    @classmethod
    def point_mass(cls, value: float) -> "DiscreteDistribution":
        """Degenerate distribution concentrated at ``value``."""
        return cls([value], [1.0])

    def scaled(self, factor: float) -> "DiscreteDistribution":
        """Same support with all probabilities multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("scaling factor must be positive")
        return DiscreteDistribution(self.values, self.probs * factor)

    @classmethod
    def mixture(
        cls, components: Sequence[tuple["DiscreteDistribution", float]]
    ) -> "DiscreteDistribution":
        """Probability mixture ``sum_i w_i * X_i``.

        Used to assemble ``U_Q`` from the per-query-instance distributions
        ``U_q`` (the identity ``Pr(U_Q <= x) = sum_q p(q) Pr(U_q <= x)`` from
        the proof of Theorem 2).
        """
        if not components:
            raise ValueError("mixture needs at least one component")
        vals: list[float] = []
        ps: list[float] = []
        for dist, weight in components:
            if weight < 0:
                raise ValueError("mixture weights must be non-negative")
            vals.extend(dist.values.tolist())
            ps.extend((dist.probs * weight).tolist())
        return cls(vals, ps)
