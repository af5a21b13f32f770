"""Constructors for the named algebras and parametric families.

Every builder returns an exact-rational `Algebra` (float parameters flip the
algebra into float mode) with its unit set, canonical basis labels, and a
``family`` tag so downstream tools can recognise where the table came from.

Four-dimensional tables all share the bimodule rows

    1*x = x*1 = x,   i*i = -1,

and differ in the products of the last two basis vectors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .core import Algebra, ParameterError, parse_scalar

FAMILY_NAMES = ("ak", "tn", "tc", "tp", "mplus", "mzero", "quaternions", "complex")
# families whose every algebra is a tn-family point (see tn_params)
TN_FAMILIES = ("tn", "mplus", "mzero", "quaternions")


def _vec(n, entries: Mapping[int, object]):
    out = [Fraction(0)] * n
    for k, c in entries.items():
        out[k] = c
    return out


def _neg(v):
    return [-c for c in v]


def ak(k: int, **coeffs) -> Algebra:
    """Commutative family of dimension 2k+2 on basis 1, e1, v11, v12, ..., vk2.

    e1 squares to -1 and commutes with everything; e1 rotates each plane
    (v_i1, v_i2); each v_ij squares to a positive multiple of 1 and all
    mixed v-products vanish.  Coefficients a11, a12, ... default to 1 and
    must be positive.
    """
    try:
        whole = Fraction(k)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole.denominator != 1 or isinstance(k, bool):
        raise ParameterError(f"k must be an integer, got {k!r}")
    k = int(whole)
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    names = [f"a{i}{j}" for i in range(1, k + 1) for j in (1, 2)]
    unknown = set(coeffs) - set(names)
    if unknown:
        raise ParameterError(f"unknown ak parameters: {sorted(unknown)}")
    a = {}
    for name in names:
        value = parse_scalar(coeffs.get(name, 1))
        if value <= 0:
            raise ParameterError(f"{name} must be positive, got {value}")
        a[name] = value

    n = 2 * k + 2
    labels = ["1", "e1"] + [f"v{i}{j}" for i in range(1, k + 1) for j in (1, 2)]

    def idx(i, j):  # v_ij position; i, j are 1-based
        return 2 + 2 * (i - 1) + (j - 1)

    zero = [Fraction(0)] * n
    sc = [[list(zero) for _ in range(n)] for _ in range(n)]

    def put(p, q, entries):
        sc[p][q] = _vec(n, entries)

    for p in range(n):
        put(0, p, {p: Fraction(1)})
        put(p, 0, {p: Fraction(1)})
    put(1, 1, {0: Fraction(-1)})
    for i in range(1, k + 1):
        v1, v2 = idx(i, 1), idx(i, 2)
        put(1, v1, {v2: Fraction(1)})
        put(v1, 1, {v2: Fraction(1)})
        put(1, v2, {v1: Fraction(-1)})
        put(v2, 1, {v1: Fraction(-1)})
        put(v1, v1, {0: a[f"a{i}1"]})
        put(v2, v2, {0: a[f"a{i}2"]})

    unit = _vec(n, {0: Fraction(1)})
    return Algebra(sc, labels=labels, unit=unit,
                   family=("ak", {"k": k, **a}))


def _four_dim(j_row, k_row, labels, family):
    """Assemble a 4-dim table from the products of the last two basis vectors.

    j_row = (j*j, j*k) and k_row = (k*j, k*k) as coordinate vectors; the
    1 and i rows are the fixed bimodule rows of all these tables.
    """
    one = _vec(4, {0: 1})
    i = _vec(4, {1: 1})
    j = _vec(4, {2: 1})
    kv = _vec(4, {3: 1})
    ij, ik = family.pop("_ij"), family.pop("_ik")
    ji, ki = family.pop("_ji"), family.pop("_ki")
    sc = [
        [one, i, j, kv],
        [i, _neg(one), ij, ik],
        [j, ji, j_row[0], j_row[1]],
        [kv, ki, k_row[0], k_row[1]],
    ]
    fam_name = family.pop("_name")
    return Algebra(sc, labels=labels, unit=one, family=(fam_name, family))


def tn(a=0, b=0, c=0, d=0, f=0, g=0, h=0, e=0) -> Algebra:
    """Noncommutative middle-plane-associative table on basis 1, i, j, k."""
    a, b, c, d = (parse_scalar(x) for x in (a, b, c, d))
    f, g, h, e = (parse_scalar(x) for x in (f, g, h, e))
    jj = [a, b, c, d]
    jk = [f, g, h, e]
    return _four_dim(
        (jj, jk), (_neg(jk), list(jj)),
        labels=["1", "i", "j", "k"],
        family={
            "_name": "tn",
            "_ij": _vec(4, {3: 1}), "_ik": _vec(4, {2: -1}),
            "_ji": _vec(4, {3: -1}), "_ki": _vec(4, {2: 1}),
            "a": a, "b": b, "c": c, "d": d, "f": f, "g": g, "h": h, "e": e,
        },
    )


def tn_special_case(a, b) -> Algebra:
    """The fully plane-associative slice of the tn family: c=d=e=h=0, f=b, g=-a."""
    a = parse_scalar(a)
    b = parse_scalar(b)
    return tn(a=a, b=b, f=b, g=-a)


def tc(a=0, b=0, f=0, g=0, h=0) -> Algebra:
    """Commutative middle-plane-associative table; h must be 0 or 1."""
    a, b, f, g, h = (parse_scalar(x) for x in (a, b, f, g, h))
    if h not in (0, 1):
        raise ParameterError(f"h must be 0 or 1, got {h}")
    jj = [a, b, Fraction(0), Fraction(0)]
    jk = [f, g, h, Fraction(0)]
    return _four_dim(
        (jj, jk), (list(jk), _neg(jj)),
        labels=["1", "i", "j", "k"],
        family={
            "_name": "tc",
            "_ij": _vec(4, {3: 1}), "_ik": _vec(4, {2: -1}),
            "_ji": _vec(4, {3: 1}), "_ki": _vec(4, {2: -1}),
            "a": a, "b": b, "f": f, "g": g, "h": h,
        },
    )


def tp(alpha1=0, alpha2=0, beta1=0, beta2=0, delta1=0, delta2=0,
       gamma1=0, gamma2=0) -> Algebra:
    """Reflection-canonical table on basis 1, i, w, v with v = w*i built in.

    The last two rows take values in the span of {1, i}:
    w*w = alpha1 + alpha2 i, w*v = beta1 + beta2 i,
    v*w = delta1 + delta2 i, v*v = gamma1 + gamma2 i.
    """
    ps = {name: parse_scalar(val) for name, val in (
        ("alpha1", alpha1), ("alpha2", alpha2), ("beta1", beta1),
        ("beta2", beta2), ("delta1", delta1), ("delta2", delta2),
        ("gamma1", gamma1), ("gamma2", gamma2))}
    ww = [ps["alpha1"], ps["alpha2"], Fraction(0), Fraction(0)]
    wv = [ps["beta1"], ps["beta2"], Fraction(0), Fraction(0)]
    vw = [ps["delta1"], ps["delta2"], Fraction(0), Fraction(0)]
    vv = [ps["gamma1"], ps["gamma2"], Fraction(0), Fraction(0)]
    return _four_dim(
        (ww, wv), (vw, vv),
        labels=["1", "i", "w", "v"],
        family={
            "_name": "tp",
            # i*w = -v, i*v = w, w*i = v, v*i = -w
            "_ij": _vec(4, {3: -1}), "_ik": _vec(4, {2: 1}),
            "_ji": _vec(4, {3: 1}), "_ki": _vec(4, {2: -1}),
            **ps,
        },
    )


def mplus() -> Algebra:
    """Fixed table with j*j = k*k = 1; imaginary units form a two-sheet
    hyperboloid.  Equal to tn(a=1, g=-1) with the other constants zero."""
    out = tn(a=1, g=-1)
    return Algebra(out.sc, labels=out.labels, unit=out.unit,
                   family=("mplus", {"tn": {"a": Fraction(1), "g": Fraction(-1)}}))


def mzero() -> Algebra:
    """Fixed table with all products of j, k equal to zero; imaginary units
    form two parallel planes.  Equal to tn() with every constant zero."""
    out = tn()
    return Algebra(out.sc, labels=out.labels, unit=out.unit,
                   family=("mzero", {"tn": {}}))


def quaternions() -> Algebra:
    """The quaternion algebra; imaginary units form the unit sphere.
    Equal to tn(a=-1, g=1) with the other constants zero."""
    out = tn(a=-1, g=1)
    return Algebra(out.sc, labels=out.labels, unit=out.unit,
                   family=("quaternions", {"tn": {"a": Fraction(-1), "g": Fraction(1)}}))


def complex_numbers() -> Algebra:
    one = [Fraction(1), Fraction(0)]
    i = [Fraction(0), Fraction(1)]
    sc = [[one, i], [i, _neg(one)]]
    return Algebra(sc, labels=["1", "i"], unit=one, family=("complex", {}))


_BUILDERS = {
    "ak": ak,
    "tn": tn,
    "tc": tc,
    "tp": tp,
    "mplus": mplus,
    "mzero": mzero,
    "quaternions": quaternions,
    "complex": complex_numbers,
}


def build(family: str, **params) -> Algebra:
    """Build a catalog algebra by family name; see FAMILY_NAMES."""
    try:
        builder = _BUILDERS[family]
    except KeyError:
        raise ParameterError(
            f"unknown family {family!r}; expected one of {', '.join(FAMILY_NAMES)}"
        ) from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for family {family!r}: {exc}") from None


def tn_params(algebra: Algebra) -> dict:
    """The tn constants (a..e) of an algebra that is a tn-family point."""
    if algebra.family is None:
        raise ParameterError("algebra does not carry a family tag")
    name, params = algebra.family
    if name not in TN_FAMILIES:
        raise ParameterError(f"family {name!r} is not a tn-family point")
    if name == "tn":
        return dict(params)
    base = {k: Fraction(0) for k in "abcdfghe"}
    base.update(params["tn"])
    return base
