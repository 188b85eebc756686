"""Core hinge-loss MRF representation.

A model couples a variable table (free and observed unit-interval
variables) with weighted hinge potentials ``(max{l(y, x), 0})^p`` and hard
linear constraints. Potentials are grouped into templates; every potential
carries the weight of its template.
"""

from __future__ import annotations

import enum
import json
import warnings
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


class VariableTable:
    """Dense index space over ground atoms.

    Every atom gets one integer index; observed atoms carry a fixed value in
    [0, 1], the rest are free. Free-variable assignments are arrays aligned
    with ``free_indices`` (ascending index order).
    """

    def __init__(self, labels, observed=None):
        self.labels: tuple[GroundAtom, ...] = tuple(labels)
        observed = dict(observed or {})
        for idx, value in observed.items():
            if not 0 <= idx < len(self.labels):
                raise ModelError("observed index %d out of range" % idx)
            if not 0.0 <= value <= 1.0:
                raise ModelError(
                    "observed value %r for %s outside [0, 1]" % (value, self.labels[idx])
                )
        self.observed: dict[int, float] = {i: float(v) for i, v in sorted(observed.items())}
        self.free_indices: tuple[int, ...] = tuple(
            i for i in range(len(self.labels)) if i not in self.observed
        )
        self._free_position = {idx: pos for pos, idx in enumerate(self.free_indices)}

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def n_free(self) -> int:
        return len(self.free_indices)

    def is_observed(self, index: int) -> bool:
        return index in self.observed

    def free_position(self, index: int) -> int:
        return self._free_position[index]

    def full_values(self, y: np.ndarray) -> np.ndarray:
        """Expand a free assignment into a value per table index."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n_free,):
            raise ModelError(
                "assignment has shape %s, expected (%d,)" % (y.shape, self.n_free)
            )
        values = np.empty(self.size, dtype=float)
        values[list(self.free_indices)] = y
        for idx, v in self.observed.items():
            values[idx] = v
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

    def indices(self) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self.terms)

    def value(self, values) -> float:
        return self.offset + sum(c * values[i] for i, c in self.terms)

    def fold_observed(self, table: VariableTable) -> "LinearFunction":
        """Substitute fixed values for observed variables into the offset."""
        offset = self.offset
        kept = []
        for idx, coeff in self.terms:
            if table.is_observed(idx):
                offset += coeff * table.observed[idx]
            else:
                kept.append((idx, coeff))
        return LinearFunction(kept, offset)

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

    def value(self, values) -> float:
        return max(self.linfun.value(values), 0.0) ** self.exponent


class Relation(enum.Enum):
    EQ = "eq"
    LEQ = "leq"


@dataclass(frozen=True)
class LinearConstraint:
    """Hard constraint ``l(y, x) = 0`` (EQ) or ``l(y, x) <= 0`` (LEQ)."""

    linfun: LinearFunction
    relation: Relation = Relation.LEQ

    def violation(self, values) -> float:
        v = self.linfun.value(values)
        return abs(v) if self.relation is Relation.EQ else max(v, 0.0)


@dataclass(frozen=True)
class TemplateInfo:
    """Registry entry for one source rule: its text and grounding count."""

    source: str
    groundings: int = 0


class HlMrf:
    """A ground hinge-loss MRF.

    Immutable after construction; shares structure freely across threads.
    The density itself is never normalized here -- only the energy is
    exposed, which is all MAP inference and the implemented learners need.
    """

    def __init__(self, table, potentials=(), constraints=(), templates=(), weights=None):
        self.table: VariableTable = table
        self.potentials: tuple[HingePotential, ...] = tuple(potentials)
        self.constraints: tuple[LinearConstraint, ...] = tuple(constraints)
        self.templates: tuple[TemplateInfo, ...] = tuple(templates)
        if weights is None:
            weights = np.zeros(len(self.templates))
        self.weights = np.asarray(weights, dtype=float).copy()
        self.weights.flags.writeable = False
        self._validate()

    def _validate(self):
        if self.weights.shape != (len(self.templates),):
            raise ModelError(
                "weight vector length %d != template count %d"
                % (self.weights.size, len(self.templates))
            )
        if not np.all(np.isfinite(self.weights)):
            raise ModelError("template weights must be finite")
        if np.any(self.weights < 0):
            raise ModelError("template weights must be nonnegative")
        counts = [0] * len(self.templates)
        for pot in self.potentials:
            if not 0 <= pot.template_id < len(self.templates):
                raise ModelError("potential references unknown template %d" % pot.template_id)
            counts[pot.template_id] += 1
            if not pot.linfun.terms:
                # Degenerate groundings are kept (they contribute 0) so that
                # modeling bugs stay visible.
                warnings.warn(
                    "potential with constant linear function (%s)" % (pot.origin or "unknown"),
                    stacklevel=3,
                )
        for tid, info in enumerate(self.templates):
            if info.groundings != counts[tid]:
                raise ModelError(
                    "template %d records %d groundings but has %d potentials"
                    % (tid, info.groundings, counts[tid])
                )
        for i, con in enumerate(self.constraints):
            for idx, _ in con.linfun.terms:
                if not 0 <= idx < self.table.size:
                    raise ModelError("constraint %d references unknown variable %d" % (i, idx))
        for pot in self.potentials:
            for idx, _ in pot.linfun.terms:
                if not 0 <= idx < self.table.size:
                    raise ModelError("potential references unknown variable %d" % idx)

    @property
    def n_free(self) -> int:
        return self.table.n_free

    def with_weights(self, weights) -> "HlMrf":
        """Copy of this model with a new template weight vector."""
        return HlMrf(self.table, self.potentials, self.constraints, self.templates, weights)

    def potential_weight(self, pot: HingePotential) -> float:
        return float(self.weights[pot.template_id])

    def energy(self, y) -> float:
        """Total weighted hinge loss ``sum_j w_j (max{l_j, 0})^p_j``."""
        values = self.table.full_values(y)
        return float(
            sum(self.weights[p.template_id] * p.value(values) for p in self.potentials)
        )

    def template_features(self, y) -> np.ndarray:
        """Per-template sums of unweighted potential values."""
        values = self.table.full_values(y)
        phi = np.zeros(len(self.templates))
        for pot in self.potentials:
            phi[pot.template_id] += pot.value(values)
        return phi

    def check_feasible(self, y, tol: float = 1e-9):
        """Return (feasible, violated) for the hard constraints at ``y``."""
        if tol < 0:
            raise ModelError("tolerance must be nonnegative")
        values = self.table.full_values(y)
        violated = [c for c in self.constraints if c.violation(values) > tol]
        return (not violated, violated)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        def linfun_dict(lf):
            return {"terms": [[i, c] for i, c in lf.terms], "offset": lf.offset}

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
                {
                    "linfun": linfun_dict(p.linfun),
                    "exponent": p.exponent,
                    "template": p.template_id,
                    "origin": p.origin,
                }
                for p in self.potentials
            ],
            "constraints": [
                {"linfun": linfun_dict(c.linfun), "relation": c.relation.value}
                for c in self.constraints
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HlMrf":
        if data.get("format") != FORMAT_NAME:
            raise ModelError("not a %s document" % FORMAT_NAME)
        if data.get("version") != FORMAT_VERSION:
            raise ModelError("unsupported model format version %r" % data.get("version"))

        def linfun(d):
            return LinearFunction([(int(i), float(c)) for i, c in d["terms"]], d["offset"])

        labels = [GroundAtom(v["predicate"], tuple(v["args"])) for v in data["variables"]]
        observed = {
            i: v["observed"] for i, v in enumerate(data["variables"]) if v["observed"] is not None
        }
        table = VariableTable(labels, observed)
        templates = [TemplateInfo(t["source"], t["groundings"]) for t in data["templates"]]
        weights = [t["weight"] for t in data["templates"]]
        potentials = [
            HingePotential(linfun(p["linfun"]), p["exponent"], p["template"], p.get("origin", ""))
            for p in data["potentials"]
        ]
        constraints = [
            LinearConstraint(linfun(c["linfun"]), Relation(c["relation"]))
            for c in data["constraints"]
        ]
        return cls(table, potentials, constraints, templates, weights)

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "HlMrf":
        return cls.from_dict(json.loads(text))
