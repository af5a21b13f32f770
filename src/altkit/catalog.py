"""Constructors for the named algebras and parametric families.

Every builder returns an exact-rational `Algebra` (float parameters flip the
algebra into float mode) with its unit set and canonical basis labels.

Each family is stated once, as data: its fixed entries ``(i, j, k, c)``,
where the table holds ``e_i * e_j = c e_k + ...``, and for each parameter p
its slots ``(i, j, k, c)``, where the table holds ``c*p``.  A table is thus
affine in its parameters by construction, S_0 + sum_p p S_p.  One builder,
`_table`, hands the entries of every table to `core.table_cube`, with the
rows that every catalog table shares: 1*x = x*1 = x and e1*e1 = -1, so
basis vector 0 is the unit and basis vector 1 an imaginary unit.
`recognise` reads the same data back: it names the family and parameters
of a table from its cube, whatever the table's source, and
`Algebra.family` is its answer.
"""

from __future__ import annotations

import functools
import inspect
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    Algebra,
    ParameterError,
    nonzero_entries,
    parse_scalar,
    table_cube,
    tolerance,
)

FAMILY_NAMES = ("ak", "tn", "tc", "tp", "mplus", "mzero", "quaternions", "complex")

_ZERO = Fraction(0)
_IJK = ("1", "i", "j", "k")

# the tn points with names of their own, at their nonzero tn constants
_TN_POINTS = {"mplus": {"a": 1, "g": -1}, "mzero": {},
              "quaternions": {"a": -1, "g": 1}}
# families whose every algebra is a tn-family point (see tn_params)
TN_FAMILIES = ("tn", *_TN_POINTS)

# tn on (1, i, j, k): i*j = k, i*k = -j, j*i = -k, k*i = j;
# j*j = k*k = a + b i + c j + d k and j*k = -k*j = f + g i + h j + e k
_TN = (
    ((1, 2, 3, 1), (1, 3, 2, -1), (2, 1, 3, -1), (3, 1, 2, 1)),
    {**{p: ((2, 2, m, 1), (3, 3, m, 1)) for m, p in enumerate("abcd")},
     **{p: ((2, 3, m, 1), (3, 2, m, -1)) for m, p in enumerate("fghe")}},
)
# tc on (1, i, j, k): i*j = j*i = k, i*k = k*i = -j;
# j*j = -k*k = a + b i and j*k = k*j = f + g i + h j
_TC = (
    ((1, 2, 3, 1), (1, 3, 2, -1), (2, 1, 3, 1), (3, 1, 2, -1)),
    {**{p: ((2, 2, m, 1), (3, 3, m, -1)) for m, p in enumerate("ab")},
     **{p: ((2, 3, m, 1), (3, 2, m, 1)) for m, p in enumerate("fgh")}},
)
# tp on (1, i, w, v): i*w = -v, i*v = w, w*i = v, v*i = -w;
# w*w = alpha1 + alpha2 i, w*v = beta1 + beta2 i,
# v*w = delta1 + delta2 i, v*v = gamma1 + gamma2 i
_TP = (
    ((1, 2, 3, -1), (1, 3, 2, 1), (2, 1, 3, 1), (3, 1, 2, -1)),
    {f"{name}{m + 1}": ((x, y, m, 1),)
     for name, x, y in (("alpha", 2, 2), ("beta", 2, 3), ("delta", 3, 2),
                        ("gamma", 3, 3))
     for m in (0, 1)},
)
# tp's parameter names, in the order its table scalars are reported
TP_PARAMS = tuple(_TP[1])


def _table(labels, fixed, slots, params) -> Algebra:
    """The table with the shared rows, the ``fixed`` entries and, at each
    slot of parameter p, ``c * params[p]``: one product, never a sum, so a
    signed float zero keeps its sign.  An exact zero leaves the slot empty.
    The entries go straight into the cube through `table_cube`, with no
    dense table to parse."""
    n = len(labels)
    entries = {(i, j, k): c for i, j, k, c in _shared(n) + list(fixed)}
    for p, slot in slots.items():
        value = params[p]
        if value or isinstance(value, float):
            for i, j, k, c in slot:
                entries[i, j, k] = c * value
    index = tuple(np.array(list(entries), dtype=np.intp).T)
    cube, scale = table_cube(n, index, list(entries.values()))
    one, zero = (1.0, 0.0) if cube.dtype == float else (Fraction(1), _ZERO)
    return Algebra._built(cube, scale, tuple(labels), tolerance(None),
                          (one,) + (zero,) * (n - 1))


def _shared(n: int) -> list:
    """The entries every catalog table holds: 1*x = x*1 = x, e1*e1 = -1."""
    return ([(0, x, x, 1) for x in range(n)] + [(x, 0, x, 1) for x in range(1, n)]
            + [(1, 1, 0, -1)])


def _ak_statement(k: int) -> tuple:
    """ak's (labels, fixed, slots) at k.  v_i1, v_i2 sit at 2i, 2i+1:
    e1*v_i1 = v_i1*e1 = v_i2, e1*v_i2 = v_i2*e1 = -v_i1, and the slots
    v_i1*v_i1 = a_i1 and v_i2*v_i2 = a_i2."""
    fixed, slots = [], {}
    for i in range(1, k + 1):
        v1, v2 = 2 * i, 2 * i + 1
        fixed += [(1, v1, v2, 1), (v1, 1, v2, 1), (1, v2, v1, -1), (v2, 1, v1, -1)]
        slots[f"a{i}1"] = ((v1, v1, 0, 1),)
        slots[f"a{i}2"] = ((v2, v2, 0, 1),)
    labels = ["1", "e1"] + [f"v{i}{j}" for i in range(1, k + 1) for j in (1, 2)]
    return labels, fixed, slots


def _ak_params(k: int, coeffs: dict) -> dict:
    """ak's params at k: each coefficient a11, a12, ..., ak2 given in
    ``coeffs`` or 1, and positive (ParameterError)."""
    names = [f"a{i}{j}" for i in range(1, k + 1) for j in (1, 2)]
    unknown = [p for p in coeffs if p not in names]
    if unknown:
        raise ParameterError(f"family 'ak' has no parameter {', '.join(unknown)} "
                             f"at k = {k}; it takes k, {', '.join(names)}")
    a = {}
    for name in names:
        value = parse_scalar(coeffs.get(name, 1))
        if value <= 0:
            raise ParameterError(f"{name} must be positive, got {value}")
        a[name] = value
    return {"k": k, **a}


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
    return _table(*_ak_statement(k), _ak_params(k, coeffs))


def tn(a=0, b=0, c=0, d=0, f=0, g=0, h=0, e=0) -> Algebra:
    """Noncommutative middle-plane-associative table on basis 1, i, j, k."""
    params = dict(zip("abcdfghe", map(parse_scalar, (a, b, c, d, f, g, h, e))))
    return _table(_IJK, *_TN, params)


def tn_special_case(a, b) -> Algebra:
    """The fully plane-associative slice of the tn family: c=d=e=h=0, f=b, g=-a."""
    a, b = parse_scalar(a), parse_scalar(b)
    return tn(a=a, b=b, f=b, g=-a)


def _tc_params(params: dict) -> dict:
    """tc's params, checked: h must be 0 or 1 (ParameterError)."""
    if params["h"] not in (0, 1):
        raise ParameterError(f"h must be 0 or 1, got {params['h']}")
    return params


def tc(a=0, b=0, f=0, g=0, h=0) -> Algebra:
    """Commutative middle-plane-associative table; h must be 0 or 1."""
    params = dict(zip("abfgh", map(parse_scalar, (a, b, f, g, h))))
    return _table(_IJK, *_TC, _tc_params(params))


def tp(alpha1=0, alpha2=0, beta1=0, beta2=0, delta1=0, delta2=0,
       gamma1=0, gamma2=0) -> Algebra:
    """Reflection-canonical table on basis 1, i, w, v with v = w*i built in.

    The last two rows take values in the span of {1, i}:
    w*w = alpha1 + alpha2 i, w*v = beta1 + beta2 i,
    v*w = delta1 + delta2 i, v*v = gamma1 + gamma2 i.
    """
    params = dict(zip(TP_PARAMS, map(parse_scalar, (
        alpha1, alpha2, beta1, beta2, delta1, delta2, gamma1, gamma2))))
    return _table(("1", "i", "w", "v"), *_TP, params)


def mplus() -> Algebra:
    """Fixed table with j*j = k*k = 1; imaginary units form a two-sheet
    hyperboloid.  Equal to tn(a=1, g=-1) with the other constants zero."""
    return tn(**_TN_POINTS["mplus"])


def mzero() -> Algebra:
    """Fixed table with all products of j, k equal to zero; imaginary units
    form two parallel planes.  Equal to tn() with every constant zero."""
    return tn(**_TN_POINTS["mzero"])


def quaternions() -> Algebra:
    """The quaternion algebra; imaginary units form the unit sphere.
    Equal to tn(a=-1, g=1) with the other constants zero."""
    return tn(**_TN_POINTS["quaternions"])


def complex_numbers() -> Algebra:
    return _table(("1", "i"), (), {}, {})


_BUILDERS = dict(zip(FAMILY_NAMES, (ak, tn, tc, tp, mplus, mzero, quaternions,
                                     complex_numbers)))


def build(family: str, **params) -> Algebra:
    """Build a catalog algebra by family name; see FAMILY_NAMES.  The
    parameter names are checked against the builder's signature first."""
    try:
        builder = _BUILDERS[family]
    except KeyError:
        raise ParameterError(
            f"unknown family {family!r}; expected one of {', '.join(FAMILY_NAMES)}"
        ) from None
    spec = [p for p in inspect.signature(builder).parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD]
    accepted = [p.name for p in spec]
    unknown = [p for p in params if p not in accepted]
    if builder is ak:  # its coefficients depend on k, and ak checks them
        accepted.append("a11, a12, ..., ak1, ak2")
        unknown = []
    missing = [p.name for p in spec if p.default is p.empty and p.name not in params]
    if unknown or missing:
        problem = (f"has no parameter {', '.join(unknown)}" if unknown
                   else f"needs parameter {', '.join(missing)}")
        raise ParameterError(f"family {family!r} {problem}; it takes "
                             f"{', '.join(accepted) or 'no parameters'}")
    return builder(**params)


def _statements(n: int) -> list:
    """(name, fixed, slots, check) of each family with n-dim tables, where
    check(values) is the builder's own check of the values read off the
    slots (ParameterError off the family) and returns the family's params."""
    out = [("complex", (), {}, dict)] if n == 2 else []
    if n == 4:
        out += [("tn", *_TN, dict), ("tc", *_TC, _tc_params), ("tp", *_TP, dict)]
    if n >= 4 and n % 2 == 0:
        k = (n - 2) // 2
        out.append(("ak", *_ak_statement(k)[1:], functools.partial(_ak_params, k)))
    return out


def _slot_values(cells: dict, n: int, scale, fixed, slots) -> Optional[dict]:
    """Each parameter's value, in the cube's numbers, when the nonzero
    ``cells`` of an n-dim cube (exact entries times ``scale``) are the
    shared rows, the ``fixed`` entries and one value per parameter at its
    slots, with no other nonzero entry; else None."""
    rest = dict(cells)
    if any(rest.pop((i, j, k), 0) != c * scale for i, j, k, c in _shared(n) + list(fixed)):
        return None
    values = {}
    for p, ((i, j, k, c), *others) in slots.items():
        values[p] = value = c * rest.pop((i, j, k), 0)  # c = +-1: the slot's p
        if any(rest.pop((i, j, k), 0) != c * value for i, j, k, c in others):
            return None
    return None if rest else values


def recognise(algebra: Algebra) -> Optional[tuple]:
    """(name, params) of the catalog family whose point ``algebra`` is in
    its given basis, as its builder makes it, or None.

    A point has the unit e_0, the shared rows and its family's fixed
    entries, at each slot of parameter p the entry c*p for one p, and no
    other nonzero entry; its params pass the builder's check (ak's positive
    coefficients, tc's h in {0, 1}).  Every test is exact: each slot
    coefficient c is +-1, so a float table's entries give p with no
    rounding, and its params are those floats.  A tn point equal to mplus,
    mzero or the quaternions takes that name, with all eight tn constants
    as its params.  The cube is read once and no Algebra is built.
    """
    n = algebra.dim
    if algebra.unit != (1,) + (0,) * (n - 1):
        return None
    index, entries = nonzero_entries(algebra.cube)
    cells = dict(zip(zip(*(a.tolist() for a in index)), entries))
    scale = algebra._scale
    param = float if algebra.scalar_mode == "float" else (lambda v: Fraction(v, scale))
    for name, fixed, slots, check in _statements(n):
        values = _slot_values(cells, n, scale, fixed, slots)
        if values is None:
            continue
        try:
            params = check({p: param(v) for p, v in values.items()})
        except ParameterError:
            continue
        if name == "tn":
            name = next((point for point, given in _TN_POINTS.items()
                         if all(v == given.get(p, 0) for p, v in params.items())),
                        name)
        return name, params
    return None


def tn_params(algebra: Algebra) -> dict:
    """The tn constants (a..e) of an algebra that is a tn-family point."""
    family = algebra.family
    if family is None:
        raise ParameterError("algebra is not a catalog family point in its given basis")
    name, params = family
    if name not in TN_FAMILIES:
        raise ParameterError(f"family {name!r} is not a tn-family point")
    return dict(params)
