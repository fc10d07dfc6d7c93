"""Divide-and-round by the trailing modulus of a base.

Two pillars of RNS-CKKS are expressed with the same primitive:

* **Rescale** (paper ``RS``): drop ``q_last`` and scale the message by
  ``1/q_last``;
* **Mod-down** after key switching: drop the special prime ``P`` and scale
  the key-switched accumulator by ``1/P``.

Given ``x`` over ``{q_1..q_{k-1}, d}`` (``d`` = dropped modulus), compute

    x'_j = (x_j - [x]_d) * d^{-1}   (mod q_j)

where ``[x]_d`` is *centered* into ``(-d/2, d/2]`` before subtraction, so
the result is the rounding-to-nearest of ``x/d`` up to 1/2 ulp — the
``round(q_l'/q_l * c)`` of the paper's RS definition.
"""

from __future__ import annotations

import numpy as np

from ..modmath import Modulus, inv_mod, mul_mod
from ..modmath.ops import sub_mod
from ..native import backend as _backend
from ..native import glue as _native
from .base import RNSBase

__all__ = ["LastModulusScaler"]


class LastModulusScaler:
    """Precomputed divide-and-round by the last modulus of ``base``."""

    def __init__(self, base: RNSBase):
        if len(base) < 2:
            raise ValueError("need at least two moduli to drop one")
        self.base = base
        self.kept = base.drop_last()
        self.dropped: Modulus = base[len(base) - 1]
        d = self.dropped.value
        #: d^{-1} mod q_j for every kept modulus.
        self._inv_d = np.array(
            [inv_mod(d % m.value, m) for m in self.kept], dtype=np.uint64
        )
        #: Harvey quotients floor(d^{-1} * 2**64 / q_j): the native fused
        #: tail multiplies by d^{-1} as a constant operand.
        self._inv_d_quot = np.array(
            [(int(v) << 64) // m.value for v, m in zip(self._inv_d, self.kept)],
            dtype=np.uint64,
        )
        #: d mod q_j (used to shift the centered residue non-negatively).
        self._d_mod = np.array([d % m.value for m in self.kept], dtype=np.uint64)
        self._half_d = d >> 1

    def divide_round(self, matrix: np.ndarray) -> np.ndarray:
        """Apply divide-and-round to a ``(k, n)`` matrix; returns ``(k-1, n)``.

        The last row must be the residues modulo the dropped modulus.
        The centered-residue correction and the final multiply run once
        over the whole ``(k-1, n)`` kept stack; bit-identical to the
        per-limb oracle :func:`repro.core.reference.divide_round_reference`.
        Under ``native`` the whole sequence is one fused compiled pass
        (``repro_scaler_tail``).
        """
        k, n = matrix.shape
        if k != len(self.base):
            raise ValueError("matrix does not match base")
        if _backend.is_native():
            out = _native.scaler_tail(
                matrix, self._half_d, self.kept.stacked,
                self._inv_d, self._inv_d_quot, self._d_mod,
            )
            if out is not None:
                return out
        last = matrix[-1]
        st = self.kept.stacked
        is_high = last.astype(np.uint64) > np.uint64(self._half_d)
        # r mod q_j for the centered representative (see the reference
        # oracle for the derivation).  When d < q_j the % is a value-exact no-op
        # (last < d < q_j), so it can run unconditionally across limbs.
        last_mod = last[None, :] % st.u64
        r = np.where(
            is_high[None, :],
            sub_mod(last_mod, self._d_mod[:, None], st),
            last_mod,
        )
        diff = sub_mod(matrix[:-1], r, st)
        return mul_mod(diff, self._inv_d[:, None], st)

    def exact_check_value(self, value: int) -> int:
        """Reference big-integer divide-and-round of a scalar (for tests).

        Computes ``round_half_up_centered(value / d) mod prod(kept)`` the
        same way :meth:`divide_round` does: using the centered residue.
        """
        q = self.base.product
        value = int(value) % q
        d = self.dropped.value
        r = value % d
        if r > d // 2:
            r -= d
        return ((value - r) // d) % self.kept.product
