"""Text-based data ingestion: universe, predicates, observations.

The input has three kinds of statements, in any order as long as names are
declared before use:

    Person = {"Alexis", "Bob"}            // constants, grouped into types
    Advises(Professor, Student)           // open predicate
    Department(Person, Subject) (closed)  // closed predicate
    Advises("Alexis", "Don") = 1          // observation

Unlisted atoms of closed predicates are observed at 0; unlisted atoms of
open predicates stay unobserved. Constants may belong to several types.
Constants take double or single quotes and backslash escapes, and ``//``
and ``/* */`` comments may stand between any two tokens. `statements` reads
one whole statement at a time with one regular expression; only a statement
that fails is tokenized, to locate the error. Observations are stored once,
as rows per predicate, which `Coding` reads and `DataSet.observations` views.

`load_data` walks the statements up to the first observation. From there
it reads the plain observations (double-quoted constants without escapes,
blanks between tokens, no comments) in one bulk pass: one `re.findall`,
then every check of `DataSet.add_observation` on whole columns, per
predicate, before anything is stored. If other text follows, the pass
stores only the plain observations before it, and the statement walk goes
on from that text. A failed check leaves the data set as it was, and the
statement walk goes on from the first observation and locates the error.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..lang.ast import LangError
from ..lang.lexer import IDENT, NUMBER, STRING, tokenize, unquote
from ..model import _REAL, GroundAtom, VariableTable


class DataError(LangError):
    pass


@dataclass(frozen=True)
class PredicateDef:
    name: str
    arg_types: tuple[str, ...]
    closed: bool = False

    @property
    def arity(self) -> int:
        return len(self.arg_types)


class Coding:
    """A data set's constants as integer codes, its observations as arrays,
    and its variable table.

    A constant's code is its rank in the sorted union of all types'
    constants, so code order is string order; ``radix`` exceeds every
    code. ``types`` maps each type to its constants' codes, ascending.
    ``observed`` maps each predicate with observations to its rows as an
    argument-code matrix, in lexicographic order, and a value vector.

    ``table`` indexes the atoms of the open predicates, predicates by name
    and each one's atoms in `DataSet.atoms_of` order from ``base[name]``
    on; open atoms with an observation enter it as observed. Closed and
    functional predicates never become model variables: their values are
    constants folded into linear functions at grounding time.
    """

    def __init__(self, data: "DataSet"):
        self.constants: list[str] = sorted(set().union(*data.universe.values()))
        self.code: dict[str, int] = {c: k for k, c in enumerate(self.constants)}
        self.radix = max(1, len(self.constants))
        code = self.code
        self.types = {
            name: np.array([code[c] for c in data.constants_of(name)], dtype=np.intp)
            for name in data.universe
        }
        self.observed: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name, rows in data._rows.items():
            flat = map(code.__getitem__, itertools.chain.from_iterable(rows))
            codes = np.fromiter(flat, np.intp).reshape(len(rows), -1)
            order = np.lexsort(codes.T[::-1])
            self.observed[name] = (codes[order], np.fromiter(rows.values(), float)[order])

        self.base: dict[str, int] = {}
        self._arg_types: dict[str, tuple[str, ...]] = {}
        labels = []
        for name in sorted(data.predicates):
            if data.predicates[name].closed or name in data.functionals:
                continue
            self.base[name] = len(labels)
            self._arg_types[name] = data.predicates[name].arg_types
            labels.extend(data.atoms_of(name))
        observed = {}
        for name in self.base:
            if name in self.observed:
                codes, values = self.observed[name]
                observed.update(zip(self.indices(name, codes).tolist(), values.tolist()))
        self.table = VariableTable(labels, observed)

    def type_codes(self, name: str) -> np.ndarray:
        if name not in self.types:
            raise DataError("unknown type %s" % name)
        return self.types[name]

    def indices(self, predicate, args) -> np.ndarray:
        """Table indices of open atoms (rows of argument codes).

        `DataSet.atoms_of` is a product over sorted type constants, so an
        atom's index is the mixed-radix number of its constants' ranks.
        """
        index = np.zeros(len(args), dtype=np.intp)
        for position, type_name in enumerate(self._arg_types[predicate]):
            constants = self.types[type_name]
            index = index * len(constants) + np.searchsorted(constants, args[:, position])
        return index + self.base[predicate]


class _Observations(Mapping):
    """A read-only ``GroundAtom -> value`` view of a data set's rows."""

    def __init__(self, rows):
        self._rows = rows

    def __getitem__(self, atom):
        return self._rows[atom.predicate][atom.args]

    def __iter__(self):
        return (GroundAtom(name, args) for name, rows in self._rows.items() for args in rows)

    def __len__(self) -> int:
        return sum(map(len, self._rows.values()))


class DataSet:
    """Typed universe, predicate declarations, and observations.

    Types are defined through `define_type` and observations added through
    `add_observation`, which keep the lookup structures beside them: a
    member set and a sorted tuple per type, each observed predicate's rows
    ``{args: value}`` (``observations`` is a read-only view of them), and
    the one `coding` that grounding reads, rebuilt on first use after any change.
    """

    def __init__(self, universe=None, predicates=(), functionals=None):
        self.universe: dict[str, tuple[str, ...]] = {}
        self._members: dict[str, frozenset[str]] = {}
        self._sorted: dict[str, tuple[str, ...]] = {}
        for type_name, constants in (universe or {}).items():
            self.define_type(type_name, constants)
        self.predicates: dict[str, PredicateDef] = {}
        self._rows: dict[str, dict[tuple[str, ...], float]] = {}
        self.observations: Mapping[GroundAtom, float] = _Observations(self._rows)
        for p in predicates:
            self.declare_predicate(p.name, p.arg_types, p.closed)
        self._coding: Coding | None = None
        # Functionally defined predicates: name -> fn(*constants) -> [0, 1].
        # They behave as closed predicates whose values are computed on use.
        self.functionals: dict[str, callable] = dict(functionals or {})

    def define_type(self, name: str, constants):
        """Declare a type with its constants, in the order given."""
        constants = tuple(constants)
        if name in self.universe:
            raise DataError("type %s defined twice" % name)
        members = frozenset(constants)
        if len(members) != len(constants):
            raise DataError("type %s lists a constant twice" % name)
        self.universe[name] = constants
        self._members[name] = members
        self._sorted[name] = tuple(sorted(constants))
        self._coding = None

    def declare_predicate(self, name: str, arg_types, closed: bool = False):
        """Declare a predicate over defined types."""
        arg_types = tuple(arg_types)
        if name in self.predicates:
            raise DataError("predicate %s declared twice" % name)
        if not arg_types:
            raise DataError("predicate %s has no argument types" % name)
        for t in arg_types:
            if t not in self.universe:
                raise DataError("predicate %s uses undefined type %s" % (name, t))
        self.predicates[name] = PredicateDef(name, arg_types, closed)
        self._coding = None

    def has_constant(self, type_name: str, constant: str) -> bool:
        """Whether a constant is declared with a type (False for unknown types)."""
        members = self._members.get(type_name)
        return members is not None and constant in members

    def add_observation(self, atom: GroundAtom, value: float):
        """Observe ``atom`` at ``value`` in [0, 1]; `load_data` calls `_observe`."""
        args = atom.args
        if type(args) is not tuple or not all(isinstance(a, str) for a in args):
            raise DataError("observation %r: arguments must be a tuple of strings" % (atom,))
        if isinstance(value, bool) or not isinstance(value, _REAL):
            raise DataError("observed value %r for %s is not a real number" % (value, atom))
        self._observe(atom.predicate, args, value)

    def _observe(self, name: str, args: tuple[str, ...], value: float):
        pred = self.predicates.get(name)
        if pred is None:
            raise DataError("observation for undeclared predicate %s" % name)
        if len(args) != pred.arity:
            raise DataError("%s takes %d arguments" % (name, pred.arity))
        for arg, type_name in zip(args, pred.arg_types):
            if arg not in self._members[type_name]:
                raise DataError('constant "%s" is not declared with type %s' % (arg, type_name))
        if not 0.0 <= value <= 1.0:
            atom = GroundAtom(name, args)
            raise DataError("observed value %r for %s outside [0, 1]" % (value, atom))
        self._rows.setdefault(name, {})[args] = float(value)
        self._coding = None

    def coding(self) -> Coding:
        """The coding of the constants, observations and variable table, built on first use."""
        if self._coding is None:
            self._coding = Coding(self)
        return self._coding

    def register_functional(self, name: str, arg_types, fn):
        self.declare_predicate(name, arg_types, closed=True)
        self.functionals[name] = fn

    def constants_of(self, type_name: str) -> tuple[str, ...]:
        """Constants of a type in lexicographic (grounding) order."""
        if type_name not in self._sorted:
            raise DataError("unknown type %s" % type_name)
        return self._sorted[type_name]

    def atoms_of(self, predicate: str):
        """All well-typed ground atoms of one predicate, in grounding order."""
        pred = self.predicates[predicate]
        domains = [self.constants_of(t) for t in pred.arg_types]
        for combo in itertools.product(*domains):
            yield GroundAtom(predicate, combo)

    def base(self):
        """The full base: every atom of every declared predicate."""
        for name in sorted(self.predicates):
            if name in self.functionals:
                continue
            yield from self.atoms_of(name)

    def base_size(self) -> int:
        total = 0
        for name, pred in self.predicates.items():
            if name in self.functionals:
                continue
            count = 1
            for t in pred.arg_types:
                count *= len(self.universe.get(t, ()))
            total += count
        return total

    def observed_value(self, atom: GroundAtom):
        """Observation for an atom: a value in [0, 1] or None if unobserved."""
        pred = self.predicates.get(atom.predicate)
        if pred is None:
            raise DataError("unknown predicate %s" % atom.predicate)
        if atom.predicate in self.functionals:
            value = float(self.functionals[atom.predicate](*atom.args))
            if not 0.0 <= value <= 1.0:
                raise DataError("functional predicate %s returned %r" % (atom.predicate, value))
            return value
        return self._rows.get(atom.predicate, {}).get(atom.args, 0.0 if pred.closed else None)


# A comment matches only as a whole: a line comment runs to the end of its
# line and a block comment to its first "*/", however the match backtracks.
_COMMENT = r"//[^\n]*(?![^\n])|/\*(?:[^*]|\*(?!/))*\*/"
_GAP = r"[ \t\r\n]*(?:(?:%s)[ \t\r\n]*)*" % _COMMENT
_STATEMENT = re.compile(
    r"""{gap}(?:(?P<name>{ident}){gap}(?:
      =(?P<type>{gap}\{{(?:{gap}{string}(?:{gap},{gap}{string})*)?{gap}\}})
    | \((?P<predicate>{gap}{ident}(?:{gap},{gap}{ident})*{gap})\)
      (?P<closed>{gap}\({gap}closed{gap}\))?
    | \((?P<observation>{gap}{string}(?:{gap},{gap}{string})*{gap})\){gap}={gap}(?P<value>{number})
    ))?""".format(gap=_GAP, ident=IDENT, string=STRING, number=NUMBER),
    re.VERBOSE | re.DOTALL,
)
_KINDS = {"type": "type", "predicate": "predicate", "closed": "predicate", "value": "observation"}
_ITEM = re.compile(r"%s|(%s|%s)" % (_COMMENT, STRING, IDENT), re.DOTALL)
# One plain observation as (name, arguments, value), or else the first
# character of anything else, with an empty name.
_PLAIN = re.compile(
    r'{b}({ident}){b}\(({b}"[^"\\\n]*"(?:{b},{b}"[^"\\\n]*")*){b}\){b}={b}({number})'
    r"|{b}[^ \t\r\n]".format(b=r"[ \t\r\n]*", ident=IDENT, number=NUMBER)
)
_CONSTANT = re.compile(r'"([^"]*)"')


def statements(text: str, start: int = 0):
    """Yield each statement of a data text from ``start`` on as (kind, name,
    items, value, offset).

    ``kind`` is "type", "predicate" or "observation"; ``value`` is the observed
    value, else whether the predicate is closed; ``offset`` is where the name
    starts. A statement that does not parse raises a located error.
    """
    for m in _STATEMENT.finditer(text, start):
        last = m.lastgroup
        if last is None and m.end() == len(text):
            return
        if last is None or not m["name"][0].isalpha():
            raise statement_error(text, m.end() if last is None else m.start("name"))
        kind = _KINDS[last]
        items = [s if kind == "predicate" else unquote(s) for s in _ITEM.findall(m[kind]) if s]
        value = float(m["value"]) if kind == "observation" else last == "closed"
        yield kind, m["name"], tuple(items), value, m.start("name")


def statement_error(text: str, offset: int, message: str | None = None) -> DataError:
    """The error at the statement starting at ``offset``: ``message``, or why
    the statement does not parse. A lexing error anywhere is raised instead.
    """
    tokens = tokenize(text)
    k = len(tokenize(text[:offset])) - 1  # the statement's first token
    at, after = tokens[k], tokens[k + 1]
    if message is None:
        if at.kind != "IDENT":
            message = "expected a type or predicate name, found %r" % at.text
        elif after.kind == "EQ":
            message = "malformed type definition"
        elif after.kind != "LPAREN":
            message, at = "expected '=' or '(' after %s" % at.text, after
        elif tokens[k + 2].kind in ("IDENT", "STRING"):
            kind = "predicate declaration" if tokens[k + 2].kind == "IDENT" else "observation"
            message = "malformed " + kind
        else:
            message, at = "expected type names or quoted constants after '('", tokens[k + 2]
    return DataError(message, at.line, at.column)


def _observe_plain(data: DataSet, text: str, offset: int) -> int:
    """Store the plain observations from ``offset`` up to the first other
    text in one pass, if they all pass the checks of `DataSet._observe`;
    otherwise store nothing. Returns where the statement walk goes on: after
    the stored observations, or at ``offset``. ``data`` must hold no
    observations yet.
    """
    columns = _plain_columns(_PLAIN.findall(text, offset))
    end = len(text)
    if "" in columns:  # some text is no plain observation: read up to it
        end = next(m.start() for m in _PLAIN.finditer(text, offset) if not m[1])
        columns = _plain_columns(_PLAIN.findall(text, offset, end))
    rows = {}
    for name, (arg_texts, value_texts) in columns.items():
        pred = data.predicates.get(name)
        if pred is None:
            return offset
        k = pred.arity
        # A plain constant holds no quote, so each row has two per argument.
        if set(map(str.count, arg_texts, itertools.repeat('"'))) != {2 * k}:
            return offset
        constants = _CONSTANT.findall("".join(arg_texts))
        members = [data._members[t] for t in pred.arg_types]
        if not all(map(frozenset.issuperset, members, (constants[j::k] for j in range(k)))):
            return offset
        values = list(map(float, value_texts))
        if not (0.0 <= min(values) and max(values) <= 1.0):
            return offset
        rows[name] = dict(zip(zip(*[iter(constants)] * k), values))
    data._rows.update(rows)
    data._coding = None
    return end


def _plain_columns(matches) -> dict[str, tuple[list[str], list[str]]]:
    """The argument and value texts of `_PLAIN` matches, per predicate name."""
    columns: dict[str, tuple[list[str], list[str]]] = {}
    for name, run in itertools.groupby(matches, operator.itemgetter(0)):
        _, args, values = zip(*run)
        arg_texts, value_texts = columns.setdefault(name, ([], []))
        arg_texts += args
        value_texts += values
    return columns


def _store(data: DataSet, text: str, kind, name, items, value, offset):
    """Add one statement of `statements` to ``data``; a failed check raises
    the error located at the statement."""
    try:
        if kind == "observation":
            data._observe(name, items, value)
        elif kind == "type":
            data.define_type(name, items)
        else:
            data.declare_predicate(name, items, value)
    except DataError as exc:
        raise statement_error(text, offset, str(exc)) from None


def load_data(text: str) -> DataSet:
    """Read the text format described in the module docstring."""
    data = DataSet()
    walk = statements(text)
    for statement in walk:
        if statement[0] == "observation":
            walk = statements(text, _observe_plain(data, text, statement[-1]))
            break
        _store(data, text, *statement)
    for statement in walk:
        _store(data, text, *statement)
    return data
