"""The one-term asymptotic composition symbol, the tests' oracle for products
of quantized operators.

The exact composition of two operators is the product of their dense
matrices. Its one-term expansion a.b + sum_axis d_xi a . D_x b is built here
from the factors of the two separated forms, so it is itself a separated
symbol that `spdolab.operators.quantize` applies by FFT.
"""

from __future__ import annotations

from spdolab import catalog
from spdolab.symbols import Symbol, magnitude


def _stencil(p, axis: int, kind: str):
    """First derivative of the factor rule p(t, slc, coords) along one xi or x
    axis, by the fourth-order central stencil
    (8 (p(+h) - p(-h)) - (p(+2h) - p(-2h))) / 12h, with h = 1e-3 (1 + |xi|)
    in xi and h = 1e-3 in x."""

    def dp(t, slc, c):
        h = 1e-3 * (1.0 + magnitude(c)) if kind == "xi" else 1e-3

        def at(step):
            return p(t, slc, tuple(v + step if ax == axis else v for ax, v in enumerate(c)))

        return (8.0 * (at(h) - at(-h)) - (at(2.0 * h) - at(-2.0 * h))) / (12.0 * h)

    return dp


def composition_symbol(a: Symbol, b: Symbol, dim: int) -> Symbol:
    """One-term asymptotic composition: a.b + sum_axis d_xi a . D_x b, with
    D_x = -i d_x. The derivatives fall on the factors,
    d_xi (f g) = f d_xi g and D_x (f g) = (D_x f) g, so the result stays
    separated; a term of b with no x-factor adds nothing to D_x b."""
    total = catalog.symbol_product(a, b)
    for axis in range(dim):
        dx_b = tuple((_stencil(f, axis, "x"), g) for f, g in b.separated if f is not None)
        if not dx_b:
            continue
        dxi_a = Symbol(f"dxi{axis}[{a.name}]", a.order - 1.0,
                       tuple((f, _stencil(g, axis, "xi")) for f, g in a.separated),
                       a.requires_path)
        d_x_b = catalog.symbol_scale(-1j, Symbol(f"dx{axis}[{b.name}]", b.order, dx_b,
                                                 b.requires_path))
        total = catalog.symbol_sum(total, catalog.symbol_product(dxi_a, d_x_b))
    total.name = f"comp1[{a.name};{b.name}]"
    total.order = a.order + b.order
    return total
