"""Core hinge-loss MRF representation.

A model couples a variable table (free and observed unit-interval
variables) with weighted hinge potentials ``(max{l(y, x), 0})^p`` and hard
linear constraints. Potentials are grouped into templates; every potential
carries the weight of its template.
"""

from __future__ import annotations

import copy
import enum
import functools
import itertools
import json
import math
import sys
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

FORMAT_NAME = "softlogic-ground-model"
FORMAT_VERSION = 1


class ModelError(ValueError):
    """Raised for structurally invalid models or assignments."""


@dataclass(frozen=True, order=True)
class GroundAtom:
    """Identity label of one variable: a predicate applied to constants."""

    predicate: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return "%s(%s)" % (self.predicate, ", ".join('"%s"' % a for a in self.args))


_REAL = (int, float, np.integer, np.floating)


class VariableTable:
    """Dense index space over ground atoms.

    Every atom gets one integer index; observed atoms carry a fixed value in
    [0, 1], the rest are free. Free-variable assignments are arrays aligned
    with ``free_indices`` (ascending index order); ``position[i]`` is index
    ``i``'s place in them, -1 if ``i`` is observed. A table from `from_blocks`
    builds ``labels``, ``observed`` and ``free_indices`` when first read.
    """

    def __init__(self, labels, observed=None):
        self.labels: tuple[GroundAtom, ...] = tuple(labels)
        observed = dict(observed or {})
        for idx, value in observed.items():
            if not 0 <= idx < len(self.labels):
                raise ModelError("observed index %d out of range" % idx)
            if isinstance(value, bool) or not isinstance(value, _REAL) or not 0 <= value <= 1:
                raise ModelError(
                    "observed value %r for %s outside [0, 1]" % (value, self.labels[idx])
                )
        index = sorted(observed)
        self._set(len(self.labels), np.array(index, dtype=np.intp),
                  np.array([float(observed[i]) for i in index]))

    @classmethod
    def from_blocks(cls, blocks, observed_index, observed_values) -> "VariableTable":
        """The table over ``blocks``, ``(predicate, domains)`` pairs whose
        atoms take consecutive indices in the order of ``itertools.product``
        over the domains; the atoms at the ascending ``observed_index`` are
        observed at ``observed_values``, already checked to lie in [0, 1]."""
        table = cls.__new__(cls)
        table._blocks = blocks
        size = sum(math.prod(map(len, domains)) for _, domains in blocks)
        table._set(size, observed_index, observed_values)
        return table

    def _set(self, size, observed_index, observed_values):
        self.size = size
        self._observed = observed_index, observed_values
        free = np.ones(size, dtype=bool)
        free[observed_index] = False
        self._free = np.flatnonzero(free)
        self.position = np.full(size, -1, dtype=np.intp)
        self.position[self._free] = np.arange(self._free.size)

    @functools.cached_property
    def labels(self) -> tuple[GroundAtom, ...]:
        return tuple(GroundAtom(name, args) for name, domains in self._blocks
                     for args in itertools.product(*domains))

    @functools.cached_property
    def observed(self) -> dict[int, float]:
        return dict(zip(*(a.tolist() for a in self._observed)))

    @functools.cached_property
    def free_indices(self) -> tuple[int, ...]:
        return tuple(self._free.tolist())

    @property
    def n_free(self) -> int:
        return self._free.size

    def free_assignment(self, y) -> np.ndarray:
        """``y`` as a float array, checked to hold one value per free variable."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n_free,):
            raise ModelError(
                "assignment has shape %s, expected (%d,)" % (y.shape, self.n_free)
            )
        return y

    def full_values(self, y: np.ndarray) -> np.ndarray:
        """Expand a free assignment into a value per table index."""
        y = self.free_assignment(y)
        values = np.empty(self.size, dtype=float)
        values[self._free] = y
        index, observed = self._observed
        values[index] = observed
        return values


class LinearFunction:
    """Sparse affine function ``offset + sum_i coeff_i * value_i``.

    Terms are stored sorted by variable index; duplicate indices are merged
    and zero coefficients dropped.
    """

    __slots__ = ("terms", "offset")

    def __init__(self, terms=(), offset: float = 0.0):
        merged: dict[int, float] = {}
        for idx, coeff in terms:
            merged[idx] = merged.get(idx, 0.0) + float(coeff)
        self.terms: tuple[tuple[int, float], ...] = tuple(
            (idx, c) for idx, c in sorted(merged.items()) if c != 0.0
        )
        self.offset = float(offset)

    def value(self, values) -> float:
        return self.offset + sum(c * values[i] for i, c in self.terms)

    def negated(self) -> "LinearFunction":
        return LinearFunction([(i, -c) for i, c in self.terms], -self.offset)

    def __eq__(self, other):
        return (
            isinstance(other, LinearFunction)
            and self.terms == other.terms
            and self.offset == other.offset
        )

    def __hash__(self):
        return hash((self.terms, self.offset))

    def __repr__(self):
        parts = ["%+g*y[%d]" % (c, i) for i, c in self.terms]
        parts.append("%+g" % self.offset)
        return "LinearFunction(%s)" % " ".join(parts)


@dataclass(frozen=True)
class HingePotential:
    """One weighted loss term ``(max{l(y, x), 0})^p`` with p in {1, 2}.

    The weight itself lives on the template; ``origin`` records the source
    rule and substitution for diagnostics.
    """

    linfun: LinearFunction
    exponent: int = 1
    template_id: int = 0
    origin: str = ""

    def __post_init__(self):
        if self.exponent not in (1, 2):
            raise ModelError("hinge exponent must be 1 or 2, got %r" % (self.exponent,))


class Relation(enum.Enum):
    EQ = "eq"
    LEQ = "leq"


@dataclass(frozen=True)
class LinearConstraint:
    """Hard constraint ``l(y, x) = 0`` (EQ) or ``l(y, x) <= 0`` (LEQ)."""

    linfun: LinearFunction
    relation: Relation = Relation.LEQ


@dataclass(frozen=True)
class TemplateInfo:
    """Registry entry for one source rule: its text and grounding count."""

    source: str
    groundings: int = 0


def _numbers(values, row, what, ok=np.isfinite) -> np.ndarray:
    """``values`` as floats if each is a number (not a bool) that ``ok`` accepts.

    Otherwise raises a `ModelError` reading ``row(k)``, ``what`` and the
    value, for the first value ``k`` that is not accepted.
    """
    try:
        if all(issubclass(t, _REAL) and t is not bool for t in set(map(type, values))):
            array = np.array(values, dtype=float)
            if ok(array).all():
                return array
    except OverflowError:  # an integer too large for a float
        pass
    bad = (k for k, v in enumerate(values) if isinstance(v, bool) or not isinstance(v, _REAL)
           or not abs(v) <= sys.float_info.max or not ok(np.float64(v)))
    k = next(bad)
    raise ModelError("%s %s %r" % (row(k), what, values[k]))


def dot(a, b) -> float:
    """``a @ b`` without BLAS, whose threads can take milliseconds on long vectors."""
    return float(np.einsum("i,i->", a, b))


def _indices(size):
    """An ``ok`` test for `_numbers`: integers in ``[0, size)``."""
    return lambda a: (a >= 0) & (a < size) & (a == np.floor(a))


def _concat(arrays, dtype):
    return np.concatenate(arrays).astype(dtype, copy=False) if arrays else np.zeros(0, dtype)


def _merge_terms(row, index, coeff, n):
    """CSR terms of ``n`` rows from lists of (row, variable index, coefficient) arrays.

    As in `LinearFunction`, each row's terms are sorted by variable index,
    duplicates summed in their given order and zero coefficients dropped.
    """
    row, index, coeff = _concat(row, np.intp), _concat(index, np.intp), _concat(coeff, float)
    order = np.lexsort((index, row))
    row, index = row[order], index[order]
    start = np.ones(row.size, dtype=bool)
    start[1:] = (row[1:] != row[:-1]) | (index[1:] != index[:-1])
    # bincount adds each term's coefficients one by one, from 0.0.
    coeff = np.bincount(np.cumsum(start) - 1, coeff[order], minlength=int(start.sum()))
    row, index = row[start], index[start]
    nonzero = coeff != 0.0
    row, index, coeff = row[nonzero], index[nonzero], coeff[nonzero]
    return index, coeff, np.bincount(row, minlength=n)


def fold_rows(table: VariableTable, functions, kind: str):
    """``(positions, coeffs, arity, offsets)`` of ``(terms, offset)`` rows.

    The one path from linear functions over table indices, ``terms`` being
    ``(index, coefficient)`` pairs, to `FoldedRows`. Terms merge as in
    `LinearFunction`, observed terms are added into the offset in term
    order, and an unknown index or a non-finite number raises a
    `ModelError` naming the row (``kind`` and number).
    """
    lengths = [len(terms) for terms, _ in functions]
    pairs = [pair for terms, _ in functions for pair in terms]
    indices, coeffs = [i for i, _ in pairs], [c for _, c in pairs]
    constants = [offset for _, offset in functions]
    n = len(constants)
    term_row = np.repeat(np.arange(n), lengths)
    at_term = lambda t: "%s %d" % (kind, term_row[t])
    index = _numbers(indices, at_term, "references unknown variable", _indices(table.size))
    coeff = _numbers(coeffs, at_term, "has non-finite coefficient")
    offsets = _numbers(constants, lambda r: "%s %d" % (kind, r), "has non-finite offset")
    index, coeff, arity = _merge_terms([term_row], [index], [coeff], n)
    row = np.repeat(np.arange(n), arity)
    position = table.position[index]
    observed = position < 0
    # ufunc.at adds in order, so each offset takes its observed terms one by one.
    values = [table.observed[i] for i in index[observed].tolist()]
    np.add.at(offsets, row[observed], coeff[observed] * values)
    free = ~observed
    return position[free], coeff[free], np.bincount(row[free], minlength=n), offsets


class FoldedRows:
    """Linear functions over the free assignment, observations folded in.

    Row ``r`` is ``offsets[r] + coeffs[s] @ y[positions[s]]`` with
    ``s = slice(indptr[r], indptr[r + 1])`` (CSR form); ``positions`` index
    the free assignment and ``arity`` counts each row's terms. Rows left
    with no free term are constants and still count. ``norm2[r]`` is the
    squared norm of row ``r``'s coefficients. ``FIELDS`` names the
    constructor's arrays, in order, with their dtypes.
    """

    FIELDS = (("positions", np.intp), ("coeffs", float), ("arity", np.intp), ("offsets", float))

    def __init__(self, positions, coeffs, arity, offsets):
        self.size = offsets.size
        self.positions = positions
        self.coeffs = coeffs
        self.arity = arity
        self.offsets = offsets

    @classmethod
    def concatenate(cls, parts):
        """The rows of ``parts``, all of this class, one part after another."""
        return cls(*(_concat([getattr(p, name) for p in parts], dtype)
                     for name, dtype in cls.FIELDS))

    def take(self, rows):
        """Rows ``rows`` of these, in that order, as rows of this class."""
        arity = self.arity[rows]
        terms = np.repeat(self.indptr[rows] - np.cumsum(arity) + arity, arity)
        terms += np.arange(terms.size)
        return type(self)(self.positions[terms], self.coeffs[terms], arity,
                          *(getattr(self, name)[rows] for name, _ in self.FIELDS[3:]))

    @functools.cached_property
    def indptr(self):
        return np.concatenate(([0], np.cumsum(self.arity)))

    @functools.cached_property
    def term_row(self):
        return np.repeat(np.arange(self.size), self.arity)

    @functools.cached_property
    def norm2(self):
        return np.bincount(self.term_row, self.coeffs * self.coeffs, minlength=self.size)

    def functions(self, table: VariableTable):
        """Each row as the ``(terms, offset)`` that `fold_rows` takes, over table indices."""
        indices = table._free[self.positions].tolist()
        terms = list(map(list, zip(indices, self.coeffs.tolist())))
        bounds = self.indptr.tolist()
        return [(terms[a:b], o) for a, b, o in zip(bounds, bounds[1:], self.offsets.tolist())]

    def values(self, y) -> np.ndarray:
        """Every row's value at the free assignment ``y``."""
        terms = self.coeffs * y[self.positions]
        return self.offsets + np.bincount(self.term_row, terms, minlength=self.size)

    def row(self, r):
        """``(positions, coeffs, offset)`` of row ``r``."""
        s = slice(self.indptr[r], self.indptr[r + 1])
        return self.positions[s], self.coeffs[s], self.offsets[r]

    def by_term(self, rows, arity: int):
        """Positions and coeffs of ``rows``, all of one arity, as ``(arity, rows)`` arrays."""
        at = self.indptr[rows] + np.arange(arity)[:, None]
        return self.positions[at], self.coeffs[at]


class PotentialRows(FoldedRows):
    """Folded hinge potentials with their exponents and template ids."""

    FIELDS = FoldedRows.FIELDS + (("exponent", np.intp), ("template_id", np.intp))

    def __init__(self, positions, coeffs, arity, offsets, exponent, template_id):
        super().__init__(positions, coeffs, arity, offsets)
        self.exponent = exponent
        self.template_id = template_id

    def objects(self, table, origins):
        """Each row as a `HingePotential`, with ``origins[r]`` as its origin."""
        rows = zip(self.functions(table), self.exponent.tolist(), self.template_id.tolist())
        return [
            HingePotential(LinearFunction(*function), exponent, tid, origins[r])
            for r, (function, exponent, tid) in enumerate(rows)
        ]

    def hinges(self, values, rows=slice(None)) -> np.ndarray:
        """``(max{v, 0})^p`` of row values; ``rows`` picks the exponents (last axis)."""
        h = np.maximum(values, 0.0)
        return np.where(self.exponent[rows] == 2, h * h, h)


class ConstraintRows(FoldedRows):
    """Folded hard constraints with their relations."""

    FIELDS = FoldedRows.FIELDS + (("is_eq", bool),)

    def __init__(self, positions, coeffs, arity, offsets, is_eq):
        super().__init__(positions, coeffs, arity, offsets)
        self.is_eq = is_eq

    def objects(self, table):
        """Each row as a `LinearConstraint`."""
        return [
            LinearConstraint(LinearFunction(*function), Relation.EQ if eq else Relation.LEQ)
            for function, eq in zip(self.functions(table), self.is_eq.tolist())
        ]

    def violations(self, values) -> np.ndarray:
        return np.where(self.is_eq, np.abs(values), np.maximum(values, 0.0))


class _Built(Sequence):
    """A sequence of known length whose items are built on first access."""

    def __init__(self, size: int, build):
        self._size = size
        self._build = build
        self._items = None

    def __len__(self):
        return self._size

    def _built(self):
        if self._items is None:
            self._items = tuple(self._build())
        return self._items

    def __getitem__(self, k):
        return self._built()[k]

    def __iter__(self):
        return iter(self._built())


def _checked_weights(weights, n_templates: int) -> np.ndarray:
    weights = np.asarray(weights, dtype=float).copy()
    weights.flags.writeable = False
    if weights.shape != (n_templates,):
        raise ModelError(
            "weight vector length %d != template count %d" % (weights.size, n_templates)
        )
    if not np.all(np.isfinite(weights)):
        raise ModelError("template weights must be finite")
    if np.any(weights < 0):
        raise ModelError("template weights must be nonnegative")
    return weights


class HlMrf:
    """A ground hinge-loss MRF.

    Immutable after construction; shares structure freely across threads.
    The density itself is never normalized here -- only the energy is
    exposed, which is all MAP inference and the implemented learners need.
    Everything that evaluates or saves the model reads ``potential_rows``,
    ``constraint_rows`` and ``origins`` (``origins[r]`` is potential row
    ``r``'s origin, and iterating gives them all in row order);
    ``with_weights`` copies share them. Objects given to the constructor
    and the rows of a model file go through `fold_rows`. A model built from
    objects keeps them as ``potentials`` and ``constraints``; others build
    these from their rows when they are first read.
    """

    def __init__(self, table, potentials=(), constraints=(), templates=(), weights=None):
        potentials, constraints = tuple(potentials), tuple(constraints)
        templates = tuple(templates)
        self._build(
            table,
            [(p.linfun.terms, p.linfun.offset, p.exponent, p.template_id, p.origin)
             for p in potentials],
            [(c.linfun.terms, c.linfun.offset, c.relation is Relation.EQ) for c in constraints],
            templates,
            np.zeros(len(templates)) if weights is None else weights,
        )
        self.potentials, self.constraints = potentials, constraints

    def _build(self, table, potentials, constraints, templates, weights):
        """Fold ``(terms, offset, exponent, template id, origin)`` potentials
        and ``(terms, offset, is_eq)`` constraints over table indices."""

        def column(k, what, ok):
            values = [p[k] for p in potentials]
            return _numbers(values, lambda r: "potential %d" % r, what, ok).astype(np.intp)

        potential_rows = PotentialRows(
            *fold_rows(table, [p[:2] for p in potentials], "potential"),
            column(2, "has an exponent other than 1 or 2:", lambda a: (a == 1) | (a == 2)),
            column(3, "references unknown template", _indices(len(templates))),
        )
        constraint_rows = ConstraintRows(
            *fold_rows(table, [c[:2] for c in constraints], "constraint"),
            np.array([c[2] for c in constraints], dtype=bool),
        )
        self._set(table, potential_rows, constraint_rows, templates, weights,
                  [p[4] for p in potentials])

    @classmethod
    def from_rows(cls, table, potential_rows, constraint_rows, templates, weights, origins):
        """A model over rows that reference free variables only; ``origins[r]``
        is potential row ``r``'s origin string, and iterating ``origins``
        gives every row's in row order."""
        model = cls.__new__(cls)
        model._set(table, potential_rows, constraint_rows, templates, weights, origins)
        return model

    def _set(self, table, potential_rows, constraint_rows, templates, weights, origins):
        self.table = table
        self.templates: tuple[TemplateInfo, ...] = tuple(templates)
        self.weights = _checked_weights(weights, len(self.templates))
        self.potential_rows, self.constraint_rows = potential_rows, constraint_rows
        self.origins = origins
        self.potentials: Sequence[HingePotential] = _Built(
            potential_rows.size, functools.partial(potential_rows.objects, table, origins)
        )
        self.constraints: Sequence[LinearConstraint] = _Built(
            constraint_rows.size, functools.partial(constraint_rows.objects, table)
        )
        constant = np.flatnonzero(potential_rows.arity == 0)
        constant_tids = potential_rows.template_id[constant]
        for tid in np.unique(constant_tids):
            # Degenerate groundings are kept (they contribute 0) so that
            # modeling bugs stay visible: one warning per template.
            rows = constant[constant_tids == tid]
            warnings.warn(
                "template %d has %d potential(s) with constant linear function, the first (%s)"
                % (tid, rows.size, origins[rows[0]] or "unknown"),
                stacklevel=4,
            )
        counts = np.bincount(potential_rows.template_id, minlength=len(self.templates))
        for tid, info in enumerate(self.templates):
            if info.groundings != counts[tid]:
                raise ModelError(
                    "template %d records %d groundings but has %d potentials"
                    % (tid, info.groundings, counts[tid])
                )

    @property
    def n_free(self) -> int:
        return self.table.n_free

    def with_weights(self, weights) -> "HlMrf":
        """Copy of this model with a new template weight vector.

        The copy shares the structure and its folded rows; only the weights
        are checked.
        """
        model = copy.copy(self)
        model.weights = _checked_weights(weights, len(self.templates))
        return model

    def _hinges(self, y) -> np.ndarray:
        rows = self.potential_rows
        return rows.hinges(rows.values(self.table.free_assignment(y)))

    def energy(self, y) -> float:
        """Total weighted hinge loss ``sum_j w_j (max{l_j, 0})^p_j``."""
        return dot(self.weights[self.potential_rows.template_id], self._hinges(y))

    def template_features(self, y) -> np.ndarray:
        """Per-template sums of unweighted potential values."""
        return np.bincount(
            self.potential_rows.template_id, self._hinges(y), minlength=len(self.templates)
        )

    def check_feasible(self, y, tol: float = 1e-9):
        """Return (feasible, violated) for the hard constraints at ``y``."""
        if tol < 0:
            raise ModelError("tolerance must be nonnegative")
        rows = self.constraint_rows
        gaps = rows.violations(rows.values(self.table.free_assignment(y)))
        violated = [self.constraints[k] for k in np.flatnonzero(gaps > tol)]
        return (not violated, violated)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """The version-1 document of the model, written from its rows."""

        def linfuns(rows):
            return [{"terms": t, "offset": o} for t, o in rows.functions(self.table)]

        rows, constraint_rows = self.potential_rows, self.constraint_rows
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "variables": [
                {
                    "predicate": atom.predicate,
                    "args": list(atom.args),
                    "observed": self.table.observed.get(i),
                }
                for i, atom in enumerate(self.table.labels)
            ],
            "templates": [
                {"source": t.source, "groundings": t.groundings, "weight": float(w)}
                for t, w in zip(self.templates, self.weights)
            ],
            "potentials": [
                {"linfun": lf, "exponent": e, "template": t, "origin": origin}
                for lf, e, t, origin in zip(
                    linfuns(rows), rows.exponent.tolist(), rows.template_id.tolist(), self.origins
                )
            ],
            "constraints": [
                {"linfun": lf, "relation": (Relation.EQ if eq else Relation.LEQ).value}
                for lf, eq in zip(linfuns(constraint_rows), constraint_rows.is_eq.tolist())
            ],
        }

    @classmethod
    def from_dict(cls, data) -> "HlMrf":
        """A model from a version-1 document; a malformed one raises `ModelError`."""
        if not isinstance(data, dict) or data.get("format") != FORMAT_NAME:
            raise ModelError("not a %s document" % FORMAT_NAME)
        version = data.get("version")
        if isinstance(version, bool) or version != FORMAT_VERSION:
            raise ModelError("unsupported model format version %r" % (version,))
        model = cls.__new__(cls)
        try:
            variables, templates = data["variables"], data["templates"]
            for i, v in enumerate(variables):
                if not (isinstance(v["predicate"], str) and isinstance(v["args"], list)
                        and all(isinstance(a, str) for a in v["args"])):
                    raise ModelError("variable %d needs a predicate name and string args" % i)
            table = VariableTable(
                [GroundAtom(v["predicate"], tuple(v["args"])) for v in variables],
                {i: v["observed"] for i, v in enumerate(variables) if v["observed"] is not None},
            )
            for key in ("groundings", "weight"):
                what = "%s is not a finite number:" % key
                _numbers([t[key] for t in templates], lambda k: "template %d" % k, what)
            model._build(
                table,
                [(p["linfun"]["terms"], p["linfun"]["offset"], p["exponent"], p["template"],
                  p.get("origin", "")) for p in data["potentials"]],
                [(c["linfun"]["terms"], c["linfun"]["offset"],
                  Relation(c["relation"]) is Relation.EQ) for c in data["constraints"]],
                tuple(TemplateInfo(t["source"], t["groundings"]) for t in templates),
                [t["weight"] for t in templates],
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            what = "missing key %s" % exc if isinstance(exc, KeyError) else exc
            raise ModelError("malformed %s document: %s" % (FORMAT_NAME, what)) from None
        return model

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "HlMrf":
        return cls.from_dict(json.loads(text))
