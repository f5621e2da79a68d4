"""Built-in symbol catalog.

Symbols are assembled from three kinds of factors: polynomial/bracket factors
in the frequency variable, trigonometric profiles or complex modulations in
the spatial variable, and affine multipliers in the driving path value w(t).
Every entry, and every tau-coefficient of a principal symbol, is a short sum
of separated terms f_r(t, w, x) g_r(t, w, xi) (`Symbol.separated`), from
which its evaluation rule is derived; quantization applies each term by FFT,
and the combinators below only combine terms. Derivatives are numerical:
order verification differentiates the rule, and asymptotic composition the
factors.

Entries are addressable by selector strings of the form `name` or
`name:arg1,arg2,...` (all arguments numeric); see CATALOG_SYMBOLS and
CATALOG_PRINCIPALS for the registry.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from .symbols import Coords, PrincipalSymbol, SeparatedTerm, Symbol, abs2, magnitude


def _broadcast_shape(x: Coords, xi: Coords):
    return np.broadcast_shapes(*(np.shape(a) for a in x + xi))


def _const_like(x: Coords, xi: Coords, value: complex) -> np.ndarray:
    return np.full(_broadcast_shape(x, xi), value, dtype=complex)


def _ones(t, slc, coords):
    return _const_like((), coords, 1.0)


def _x_free(name: str, order: float, g, requires_path: bool = False) -> Symbol:
    """A symbol with no x-dependence: the one-term separated form (1, g)."""
    return Symbol(name, order, ((None, g),), requires_path)


# ---------------------------------------------------------------------------
# elementary symbols


def constant(value: complex, name: str | None = None) -> Symbol:
    return _x_free(name or f"const[{value}]", 0.0,
                   lambda t, slc, xi: _const_like((), xi, value))


def one() -> Symbol:
    return constant(1.0, "one")


def zero_symbol() -> Symbol:
    return constant(0.0, "zero")


def lambda_symbol(s: float) -> Symbol:
    """Bracket multiplier (1 + |xi|^2)^(s/2) of order s."""
    return _x_free(f"lambda[{s}]", s, lambda t, slc, xi: (1.0 + abs2(xi)) ** (s / 2.0))


def xi_symbol(axis: int = 0) -> Symbol:
    return _x_free(f"xi{axis}", 1.0, lambda t, slc, xi: xi[axis].astype(complex))


def xi_power(degree: int, axis: int = 0) -> Symbol:
    if degree == 0:
        return one()
    if degree == 1:
        return xi_symbol(axis)
    return _x_free(f"xi{axis}^{degree}", float(degree),
                   lambda t, slc, xi: xi[axis].astype(complex) ** degree)


def xi_magnitude() -> Symbol:
    """|xi|, order 1."""
    return _x_free("abs-xi", 1.0, lambda t, slc, xi: magnitude(xi).astype(complex))


def trig_profile(c0: float, c_sin: float, c_cos: float, k: int = 1, axis: int = 0) -> Symbol:
    """x-dependent order-0 factor c0 + c_sin*sin(kx) + c_cos*cos(kx)."""

    def f(t, slc, x):
        v = c0 + c_sin * np.sin(k * x[axis]) + c_cos * np.cos(k * x[axis])
        return np.asarray(v, dtype=complex)

    return Symbol(f"trig[{c0},{c_sin},{c_cos};k={k}]", 0.0, separated=((f, _ones),))


def modulation(k: int, axis: int = 0) -> Symbol:
    """Complex modulation e^{i k x}; shifts Fourier modes by k under quantization."""
    return Symbol(f"mod[{k}]", 0.0,
                  separated=((lambda t, slc, x: np.exp(1j * k * np.asarray(x[axis])), _ones),))


def brownian_affine(gamma: float) -> Symbol:
    """Path-dependent multiplier 1 + gamma * w(t), adapted by construction."""

    def g(t, slc, xi):
        w = 0.0 if slc is None else slc.value(t)
        return _const_like((), xi, 1.0 + gamma * w)

    return _x_free(f"affine-w[{gamma}]", 0.0, g, requires_path=gamma != 0.0)


# ---------------------------------------------------------------------------
# combinators
#
# Each combines separated terms: a scale scales every g_r, a sum concatenates
# the terms, a product multiplies them out, and the conjugate conjugates both
# factors. Factor rules take (t, slc, coords), with None meaning 1.


def _times(p, q):
    if p is None or q is None:
        return q if p is None else p
    return lambda t, slc, c: p(t, slc, c) * q(t, slc, c)


def _conj(p):
    return None if p is None else (lambda t, slc, c: np.conj(p(t, slc, c)))


def _scaled(c: complex, g):
    return lambda t, slc, xi: c * g(t, slc, xi)


def symbol_scale(c: complex, a: Symbol, name: str | None = None) -> Symbol:
    return Symbol(name or f"{c}*{a.name}", a.order,
                  tuple((f, _scaled(c, g)) for f, g in a.separated), a.requires_path)


def symbol_sum(a: Symbol, b: Symbol, name: str | None = None) -> Symbol:
    return Symbol(name or f"({a.name}+{b.name})", max(a.order, b.order),
                  a.separated + b.separated, a.requires_path or b.requires_path)


def symbol_product(a: Symbol, b: Symbol, name: str | None = None) -> Symbol:
    return Symbol(name or f"{a.name}*{b.name}", a.order + b.order,
                  tuple((_times(fa, fb), _times(ga, gb))
                        for fa, ga in a.separated for fb, gb in b.separated),
                  a.requires_path or b.requires_path)


def symbol_conjugate(a: Symbol) -> Symbol:
    return Symbol(f"conj[{a.name}]", a.order,
                  tuple((_conj(f), _conj(g)) for f, g in a.separated), a.requires_path)


def with_declared_order(a: Symbol, order: float) -> Symbol:
    """Same evaluation rule with a (possibly wrong) declared order, for auditing."""
    return dataclasses.replace(a, order=order)


# ---------------------------------------------------------------------------
# named symbol registry


def _trig_lambda(c0, c_sin, c_cos, s):
    return symbol_product(trig_profile(c0, c_sin, c_cos), lambda_symbol(s),
                          name=f"trig-lambda[{c0},{c_sin},{c_cos};{s}]")


def _mod_xi(k):
    return symbol_product(modulation(int(k)), xi_symbol(), name=f"mod-xi[{int(k)}]")


def _brownian_lambda(gamma, s):
    return symbol_product(brownian_affine(gamma), lambda_symbol(s),
                          name=f"brownian-lambda[{gamma},{s}]")


def _xi_poly(*coeffs):
    sym = constant(coeffs[0]) if coeffs else zero_symbol()
    for d, c in enumerate(coeffs[1:], start=1):
        if c != 0:
            sym = symbol_sum(sym, symbol_scale(c, xi_power(d)))
    sym.name = f"xi-poly{list(coeffs)}"
    return sym


CATALOG_SYMBOLS: dict[str, tuple[Callable[..., Symbol], str]] = {
    "one": (one, "constant 1 (identity operator), order 0"),
    "zero": (zero_symbol, "constant 0, order 0"),
    "const": (lambda c: constant(c), "const:c -> constant c, order 0"),
    "lambda": (lambda_symbol, "lambda:s -> (1+|xi|^2)^(s/2), order s"),
    "xi": (xi_symbol, "xi -> frequency coordinate, order 1"),
    "c-dx": (lambda c=1.0: symbol_scale(c, xi_symbol(), name=f"c-dx[{c}]"),
             "c-dx:c -> c xi, the real symbol of c D_x = -i c d/dx (self-adjoint)"),
    "xi2": (lambda: xi_power(2), "xi squared, order 2"),
    "xi-poly": (_xi_poly, "xi-poly:c0,c1,... -> sum c_d xi^d"),
    "abs-xi": (xi_magnitude, "|xi|, order 1"),
    "trig": (trig_profile, "trig:c0,csin,ccos[,k] -> x-profile, order 0"),
    "trig-lambda": (_trig_lambda,
                    "trig-lambda:c0,csin,ccos,s -> (c0+csin sin x+ccos cos x)(1+|xi|^2)^(s/2)"),
    "mod": (lambda k: modulation(int(k)), "mod:k -> e^{ikx}, order 0"),
    "mod-xi": (_mod_xi, "mod-xi:k -> e^{ikx} xi, order 1"),
    "affine-w": (brownian_affine, "affine-w:gamma -> 1+gamma w(t), order 0"),
    "brownian-lambda": (_brownian_lambda,
                        "brownian-lambda:gamma,s -> (1+gamma w(t))(1+|xi|^2)^(s/2)"),
}


def make_symbol(selector: str) -> Symbol:
    """Build a catalog symbol from `name` or `name:arg1,arg2,...`."""
    name, _, argstr = selector.partition(":")
    name = name.strip()
    if name not in CATALOG_SYMBOLS:
        known = ", ".join(sorted(CATALOG_SYMBOLS))
        raise ValueError(f"unknown symbol {name!r}; catalog has: {known}")
    factory = CATALOG_SYMBOLS[name][0]
    args = [float(a) for a in argstr.split(",")] if argstr.strip() else []
    try:
        return factory(*args)
    except TypeError as exc:
        raise ValueError(f"bad arguments for symbol {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# principal symbols (monic polynomials in tau)


def _zeros(t, slc, xi):
    return _const_like((), xi, 0.0)


def _tau_coefficients(name: str, *terms: SeparatedTerm) -> tuple[Symbol, ...]:
    """c_0, ..., c_{m-1} of a degree-m principal symbol, one separated term
    each; c_k has frequency order m - k."""
    m = len(terms)
    return tuple(Symbol(f"c{k}[{name}]", float(m - k), (term,)) for k, term in enumerate(terms))


def wave_principal(c: float) -> PrincipalSymbol:
    """tau^2 - c^2 |xi|^2, roots +-c|xi| (real, simple away from xi = 0)."""
    name = f"wave[{c}]"
    return PrincipalSymbol(name, 2, _tau_coefficients(
        name, (None, lambda t, slc, xi: (c * c) * abs2(xi)), (None, _zeros)))


def laplace_principal() -> PrincipalSymbol:
    """tau^2 + |xi|^2, roots +-i|xi| (complex conjugate pair)."""
    return PrincipalSymbol("laplace", 2, _tau_coefficients(
        "laplace", (None, lambda t, slc, xi: -abs2(xi)), (None, _zeros)))


def double_root_principal() -> PrincipalSymbol:
    """(tau - xi)^2: the simple-root hypothesis fails everywhere."""
    return PrincipalSymbol("double-root", 2, _tau_coefficients(
        "double-root", (None, lambda t, slc, xi: -(xi[0] ** 2)),
        (None, lambda t, slc, xi: 2.0 * xi[0])))


def mixed_cubic_principal() -> PrincipalSymbol:
    """(tau - xi)(tau^2 + |xi|^2): one real and two conjugate branches."""
    return PrincipalSymbol("mixed-cubic", 3, _tau_coefficients(
        "mixed-cubic", (None, lambda t, slc, xi: xi[0] * abs2(xi)),
        (None, lambda t, slc, xi: -abs2(xi)), (None, lambda t, slc, xi: xi[0])))


def variable_wave_principal(c0: float = 2.0, c1: float = 0.5, gamma: float = 0.0) -> PrincipalSymbol:
    """tau^2 - q^2 |xi|^2 with q = c0 + c1 sin x + gamma w(t); roots +-q|xi|."""

    def q_squared(t, slc, x0):
        w = 0.0 if slc is None else slc.value(t)
        q = c0 + c1 * np.sin(x0) + gamma * w
        return q * q

    if c1 == 0.0:  # q is free of x
        term = (None, lambda t, slc, xi: q_squared(t, slc, 0.0) * abs2(xi))
    else:
        term = (lambda t, slc, x: q_squared(t, slc, x[0]), lambda t, slc, xi: abs2(xi))
    name = f"variable-wave[{c0},{c1},{gamma}]"
    return PrincipalSymbol(name, 2, (Symbol(f"c0[{name}]", 2.0, (term,), gamma != 0.0),
                                     Symbol(f"c1[{name}]", 1.0, ((None, _zeros),))))


def from_roots_principal(unit_roots: Sequence[complex], name: str | None = None,
                         trig_eps: Sequence[float] | None = None) -> PrincipalSymbol:
    """Monic principal symbol with branch roots mu_k |xi| for xi on the ray.

    Coefficients come from the root polynomial and are xi-homogeneous; optional
    per-coefficient trig modulation (1 + eps_k sin x) adds x-dependence while
    keeping root separation for small eps.
    """
    mu = np.asarray(list(unit_roots), dtype=complex)
    m = len(mu)
    # numpy returns [1, p_{m-1}, ..., p_0] for tau^m + sum p_k tau^k
    poly = np.poly(mu)
    minus_c = -poly[1:][::-1]  # c_k for k = m-1 ... 0 reversed to k-ascending
    eps = list(trig_eps) if trig_eps is not None else [0.0] * m

    def term(k):
        ck, ek = complex(minus_c[k]), float(eps[k])
        if ek:
            return (lambda t, slc, x: ck * (1.0 + ek * np.sin(x[0])),
                    lambda t, slc, xi: magnitude(xi) ** (m - k))
        return (None, lambda t, slc, xi: ck * magnitude(xi) ** (m - k))

    label = name or f"from-roots[{','.join(str(z) for z in mu)}]"
    return PrincipalSymbol(label, m, _tau_coefficients(label, *(term(k) for k in range(m))))


def random_principal(m: int, rng: np.random.Generator, *, min_separation: float = 0.6,
                     trig: bool = False) -> PrincipalSymbol:
    """Random catalog-style principal symbol with well-separated unit-scale roots."""
    while True:
        mu = rng.uniform(-2.0, 2.0, m) + 1j * rng.uniform(-2.0, 2.0, m)
        d = [abs(a - b) for i, a in enumerate(mu) for b in mu[i + 1:]]
        if not d or min(d) >= min_separation:
            break
    eps = rng.uniform(-0.2, 0.2, m) if trig else None
    return from_roots_principal(mu, name=f"random[m={m}]", trig_eps=eps)


CATALOG_PRINCIPALS: dict[str, tuple[Callable[..., PrincipalSymbol], str]] = {
    "wave": (wave_principal, "wave:c -> tau^2 - c^2|xi|^2, roots +-c|xi|"),
    "laplace": (laplace_principal, "tau^2 + |xi|^2, roots +-i|xi|"),
    "double-root": (double_root_principal, "(tau - xi)^2, degenerate"),
    "mixed-cubic": (mixed_cubic_principal, "(tau - xi)(tau^2 + |xi|^2)"),
    "variable-wave": (variable_wave_principal,
                      "variable-wave:c0,c1,gamma -> tau^2 - (c0+c1 sin x+gamma w)^2|xi|^2"),
    "from-roots": (lambda *mu: from_roots_principal([complex(v) for v in mu]),
                   "from-roots:mu1,mu2,... -> monic polynomial with roots mu_k|xi|"),
}


def make_principal(selector: str) -> PrincipalSymbol:
    """Build a catalog principal symbol from `name` or `name:arg1,...`."""
    name, _, argstr = selector.partition(":")
    name = name.strip()
    if name not in CATALOG_PRINCIPALS:
        known = ", ".join(sorted(CATALOG_PRINCIPALS))
        raise ValueError(f"unknown principal symbol {name!r}; catalog has: {known}")
    factory = CATALOG_PRINCIPALS[name][0]
    args = [float(a) for a in argstr.split(",")] if argstr.strip() else []
    try:
        return factory(*args)
    except TypeError as exc:
        raise ValueError(f"bad arguments for principal {name!r}: {exc}") from exc
