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
one whole statement at a time with one regular expression (a type's
constant list in bounded runs, so in time linear in its length); only a
statement that fails is tokenized, to locate the error.

Observations are stored as arrays, per predicate: each argument as its
constant's rank in its type's sorted constants (a type never changes once
declared, so neither do the ranks), and one value column, in the order
observed. On first use after a change they are merged into one row per
atom, the last observation of an atom winning. `Coding` takes the global
codes from them with one ``take`` per column, and `DataSet.observations`
and `DataSet.observed_value` build ``{args: value}`` only when they look
an atom up.

`load_data` walks the statements up to the first observation. From there
it reads the plain observations (non-empty double-quoted constants without
escapes, blanks between tokens, no comments) in one bulk pass: one
`re.findall` with a group per constant, then every check of
`DataSet.add_observation` on whole columns, per predicate, before anything
is stored: a constant's rank comes from its type's ``{constant: rank}``
dict, where a miss fails the membership check, and the values must lie in
[0, 1]. If other text follows, the pass stores only the plain observations
before it, and the statement walk goes on from that text. A failed check
leaves the data set as it was, and the statement walk goes on from the
first observation and locates the error.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..lang.ast import LangError
from ..lang.lexer import IDENT, NUMBER, STRING, tokenize, unquote
from ..model import _REAL, GroundAtom, VariableTable, _concat


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
    argument-code matrix, in lexicographic order, and a value vector: the
    data set's type-local rank columns, each taken through its type's codes.

    ``table`` indexes the atoms of the open predicates, predicates by name
    and each one's atoms in `DataSet.atoms_of` order from ``base[name]``
    on; open atoms with an observation enter it as observed. Closed and
    functional predicates never become model variables: their values are
    constants folded into linear functions at grounding time. ``memo``
    holds what grounding derives from the coding alone, so it lives
    exactly as long as the coding.
    """

    def __init__(self, data: "DataSet"):
        self.constants = tuple(sorted(set().union(*data.universe.values())))
        self.code = dict(zip(self.constants, range(len(self.constants))))
        self.radix = max(1, len(self.constants))
        self.types = {
            name: np.fromiter(map(self.code.__getitem__, data.constants_of(name)), np.intp)
            for name in data.universe
        }
        self.observed: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name, rows in data._rows.items():
            ranks, values, _ = rows.table()
            types = data.predicates[name].arg_types
            codes = [self.types[t][column] for t, column in zip(types, ranks.T)]
            self.observed[name] = np.stack(codes, axis=1), values
        self.memo: dict = {}

        self.base: dict[str, int] = {}
        self._arg_types: dict[str, tuple[str, ...]] = {}
        blocks, observed_index, observed_values = [], [], []
        size = 0
        for name in sorted(data.predicates):
            if data.predicates[name].closed or name in data.functionals:
                continue
            self.base[name] = size
            self._arg_types[name] = data.predicates[name].arg_types
            domains = tuple(map(data.constants_of, self._arg_types[name]))
            blocks.append((name, domains))
            if name in data._rows:
                ranks, values, _ = data._rows[name].table()
                observed_index.append(size + _mixed_radix(ranks, map(len, domains)))
                observed_values.append(values)
            size += math.prod(map(len, domains))
        self.table = VariableTable.from_blocks(
            blocks, _concat(observed_index, np.intp), _concat(observed_values, float)
        )

    def type_codes(self, name: str) -> np.ndarray:
        if name not in self.types:
            raise DataError("unknown type %s" % name)
        return self.types[name]

    def indices(self, predicate, args) -> np.ndarray:
        """Table indices of open atoms (rows of argument codes).

        `DataSet.atoms_of` is a product over sorted type constants, so an
        atom's index is the mixed-radix number of its constants' ranks.
        """
        types = [self.types[t] for t in self._arg_types[predicate]]
        ranks = np.stack([np.searchsorted(constants, column)
                          for constants, column in zip(types, args.T)], axis=1)
        return _mixed_radix(ranks, map(len, types)) + self.base[predicate]


def _mixed_radix(rows, radixes) -> np.ndarray:
    """Each row of ``rows`` as one number, its column k a digit below ``radixes[k]``."""
    index = np.zeros(len(rows), dtype=np.int64)
    for column, radix in zip(rows.T, radixes):
        index = index * radix + column
    return index


def _keys(radix, *matrices):
    """Integer keys of the rows of equal-width code matrices below
    ``radix``, in row order.

    Rows pack into one int64 each in mixed radix when that cannot
    overflow; otherwise they are ranked together.
    """
    width = matrices[0].shape[1]
    if radix**width < 2**63:
        return [_mixed_radix(rows, [radix] * width) for rows in matrices]
    _, rank = np.unique(np.concatenate(matrices), axis=0, return_inverse=True)
    return np.split(rank.ravel(), np.cumsum([len(m) for m in matrices[:-1]]))


class _Rows:
    """One predicate's observations in the order they were made: rows of
    type-local ranks (a constant's place in its type's sorted constants,
    which no later declaration changes) and values.

    A bulk read adds whole arrays, `DataSet._observe` one row at a time.
    `table` merges them on first use after a change, and `atoms` builds the
    ``{args: value}`` view only when something looks an atom up; a row
    added one at a time updates that view once built, so lookups between
    single additions stay cheap.
    """

    def __init__(self, domains):
        self.domains = domains  # each argument type's sorted constants
        self._parts: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending: list[tuple[tuple[int, ...], float]] = []
        self._table = self._atoms = None

    def extend(self, ranks, values):
        self._flush()
        self._parts.append((ranks, values))
        self._table = self._atoms = None

    def add(self, args, ranks, value):
        self._pending.append((ranks, value))
        self._table = None
        if self._atoms is not None:  # a new atom goes last, a repeated one keeps its place
            self._atoms[args] = value

    def _flush(self):
        if self._pending:
            ranks, values = zip(*self._pending)
            self._parts.append((np.array(ranks, dtype=np.intp), np.array(values)))
            self._pending = []

    def table(self):
        """``(ranks, values, first)``: one row per atom, in lexicographic
        order, with its last value and the row where it was first observed."""
        if self._table is None:
            self._flush()
            ranks = np.concatenate([r for r, _ in self._parts])
            values = np.concatenate([v for _, v in self._parts])
            (key,) = _keys(max(map(len, self.domains)), ranks)
            if (key[1:] > key[:-1]).all():  # in order already, each atom once
                self._table = ranks, values, np.arange(len(key))
            else:
                order = np.argsort(key, kind="stable")
                key = key[order]
                new = np.ones(len(key) + 1, dtype=bool)
                new[1:-1] = key[1:] != key[:-1]
                last = new[1:]
                self._table = ranks[order[last]], values[order[last]], order[new[:-1]]
        return self._table

    def atoms(self) -> dict[tuple[str, ...], float]:
        """``{args: value}``, atoms in the order they were first observed."""
        if self._atoms is None:
            ranks, values, first = self.table()
            order = np.argsort(first)
            columns = [map(domain.__getitem__, column)
                       for domain, column in zip(self.domains, ranks[order].T.tolist())]
            self._atoms = dict(zip(zip(*columns), values[order].tolist()))
        return self._atoms


class _Observations(Mapping):
    """A read-only ``GroundAtom -> value`` view of a data set's rows."""

    def __init__(self, rows):
        self._rows = rows

    def __getitem__(self, atom):
        return self._rows[atom.predicate].atoms()[atom.args]

    def __iter__(self):
        return (GroundAtom(name, args) for name, rows in self._rows.items() for args in rows.atoms())

    def __len__(self) -> int:
        return sum(len(rows.table()[1]) for rows in self._rows.values())


class DataSet:
    """Typed universe, predicate declarations, and observations.

    Types are defined through `define_type` and observations added through
    `add_observation`, which keep the lookup structures beside them: a
    ``{constant: rank}`` dict and a sorted tuple per type, each observed
    predicate's rows (``observations`` is a read-only view of them), and
    the one `coding` that grounding reads, rebuilt on first use after any change.
    """

    def __init__(self, universe=None, predicates=(), functionals=None):
        self.universe: dict[str, tuple[str, ...]] = {}
        self._rank: dict[str, dict[str, int]] = {}
        self._sorted: dict[str, tuple[str, ...]] = {}
        for type_name, constants in (universe or {}).items():
            self.define_type(type_name, constants)
        self.predicates: dict[str, PredicateDef] = {}
        self._rows: dict[str, _Rows] = {}
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
        ordered = tuple(sorted(constants))
        rank = dict(zip(ordered, range(len(ordered))))
        if len(rank) != len(constants):
            raise DataError("type %s lists a constant twice" % name)
        self.universe[name] = constants
        self._rank[name] = rank
        self._sorted[name] = ordered
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
        rank = self._rank.get(type_name)
        return rank is not None and constant in rank

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
        ranks = []
        for arg, type_name in zip(args, pred.arg_types):
            rank = self._rank[type_name].get(arg)
            if rank is None:
                raise DataError('constant "%s" is not declared with type %s' % (arg, type_name))
            ranks.append(rank)
        if not 0.0 <= value <= 1.0:
            atom = GroundAtom(name, args)
            raise DataError("observed value %r for %s outside [0, 1]" % (value, atom))
        self._rows_of(pred).add(args, tuple(ranks), float(value))
        self._coding = None

    def _rows_of(self, pred: PredicateDef) -> _Rows:
        rows = self._rows.get(pred.name)
        if rows is None:
            rows = self._rows[pred.name] = _Rows(tuple(map(self.constants_of, pred.arg_types)))
        return rows

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
        default = 0.0 if pred.closed else None
        rows = self._rows.get(atom.predicate)
        return default if rows is None else rows.atoms().get(atom.args, default)


# A comment matches only as a whole: a line comment runs to the end of its
# line and a block comment to its first "*/", however the match backtracks.
_COMMENT = r"//[^\n]*(?![^\n])|/\*(?:[^*]|\*(?!/))*\*/"
_GAP = r"[ \t\r\n]*(?:(?:%s)[ \t\r\n]*)*" % _COMMENT
_STATEMENT = re.compile(
    r"""{gap}(?:(?P<name>{ident}){gap}(?:
      =(?P<type>{gap}\{{)
    | \((?P<predicate>{gap}{ident}(?:{gap},{gap}{ident})*{gap})\)
      (?P<closed>{gap}\({gap}closed{gap}\))?
    | \((?P<observation>{gap}{string}(?:{gap},{gap}{string})*{gap})\){gap}={gap}(?P<value>{number})
    ))?""".format(gap=_GAP, ident=IDENT, string=STRING, number=NUMBER),
    re.VERBOSE | re.DOTALL,
)
# A type's constant list after its "{": empty, or runs of at most 256
# constants, each run ending at a comma before the next run or at the "}".
# Bounded runs keep the work per constant flat however long the list is.
_EMPTY_LIST = re.compile(r"%s\}" % _GAP)
_LIST_RUN = re.compile(
    r"{gap}{string}(?:{gap},{gap}{string}){{0,255}}{gap}(?:(,)|\}})".format(gap=_GAP, string=STRING),
    re.DOTALL,
)
_KINDS = {"type": "type", "predicate": "predicate", "closed": "predicate", "value": "observation"}
_ITEM = re.compile(r"%s|(%s|%s)" % (_COMMENT, STRING, IDENT), re.DOTALL)


@functools.lru_cache(maxsize=None)
def _plain(arity: int):
    """A plain observation of up to ``arity`` arguments as (name, constant
    1, ..., constant ``arity``, value), absent constants empty, or else the
    first character of anything else, with an empty name. A plain constant
    is double-quoted, not empty, and holds no escape or newline."""
    constant, blank = r'"([^"\\\n]+)"', r"[ \t\r\n]*"
    constants = ""
    for _ in range(arity - 1):
        constants = r"(?:{b},{b}{c}{more})?".format(b=blank, c=constant, more=constants)
    return re.compile(
        r"{b}({ident}){b}\({b}{c}{more}{b}\){b}={b}({number})|{b}[^ \t\r\n]".format(
            b=blank, ident=IDENT, c=constant, more=constants, number=NUMBER
        )
    )


def statements(text: str, start: int = 0):
    """Yield each statement of a data text from ``start`` on as (kind, name,
    items, value, offset).

    ``kind`` is "type", "predicate" or "observation"; ``value`` is the observed
    value, else whether the predicate is closed; ``offset`` is where the name
    starts. A statement that does not parse raises a located error.
    """
    pos = start
    while True:
        m = _STATEMENT.match(text, pos)
        last = m.lastgroup
        if last is None and m.end() == len(text):
            return
        if last is None or not m["name"][0].isalpha():
            raise statement_error(text, m.end() if last is None else m.start("name"))
        kind = _KINDS[last]
        pos = m.end()
        if kind == "type":
            pos = _list_end(text, pos)
            if pos is None:
                raise statement_error(text, m.start("name"))
            items = [unquote(s) for s in _ITEM.findall(text, m.end(), pos) if s]
        else:
            items = [s if kind == "predicate" else unquote(s) for s in _ITEM.findall(m[kind]) if s]
        value = float(m["value"]) if kind == "observation" else last == "closed"
        yield kind, m["name"], tuple(items), value, m.start("name")


def _list_end(text: str, pos: int):
    """Where the constant list that starts at ``pos``, after its "{", ends
    (after its "}"), or None if it does not parse."""
    m = _EMPTY_LIST.match(text, pos)
    while m is None or m.lastindex:
        m = _LIST_RUN.match(text, m.end() if m else pos)
        if m is None:
            return None
    return m.end()


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
    the stored observations, or at ``offset``.

    Each argument column maps to type-local ranks through its type's
    ``{constant: rank}`` dict, where a miss fails the membership check, and
    the values become one array checked against [0, 1].
    """
    arity = max((p.arity for p in data.predicates.values()), default=0)
    if not arity:
        return offset
    plain = _plain(arity)
    end = len(text)
    runs: dict[str, list] = {}
    for name, run in itertools.groupby(plain.findall(text, offset), operator.itemgetter(0)):
        if not name:  # some text is no plain observation: read up to it
            end = next(m.start() for m in plain.finditer(text, offset) if not m[1])
            break
        runs.setdefault(name, []).append(tuple(zip(*run))[1:])
    read = []
    for name, parts in runs.items():
        pred = data.predicates.get(name)
        if pred is None:
            return offset
        *columns, values = (tuple(itertools.chain.from_iterable(c)) for c in zip(*parts))
        # A plain constant is not empty, so an empty one is an absent
        # argument, even where a type declares the constant "".
        if not all(map(all, columns[:pred.arity])) or any(map(any, columns[pred.arity:])):
            return offset
        try:
            ranks = np.stack([
                np.fromiter(map(data._rank[t].__getitem__, column), np.intp)
                for t, column in zip(pred.arg_types, columns)
            ], axis=1)
        except KeyError:  # an unknown constant
            return offset
        values = np.fromiter(map(float, values), float)
        if not (0.0 <= values.min() and values.max() <= 1.0):
            return offset
        read.append((pred, ranks, values))
    for pred, ranks, values in read:
        data._rows_of(pred).extend(ranks, values)
    data._coding = None
    return end


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
