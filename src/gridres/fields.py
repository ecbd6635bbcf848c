"""Declarative field tables for the domain objects and scenario documents.

@table makes a class a frozen dataclass whose fields are table rows,
declared with num, text, flag, choice, obj or seq: a JSON key, a kind of
value, a default and a constraint. The rows drive three jobs: a
constructed object is checked (InvalidInputError lists every violation);
load() walks a JSON document, collects every violation with its JSON
path (lines[3].impedance_pu: must be finite and > 0) and builds the
objects without checking them again; dump() writes an object as JSON.

A number has one test, its row's check: a real, not a bool, that a float
holds and that lies inside the row's bounds; load() applies it after the
JSON type gate. require() applies rows, or number() rules, to the scalar
arguments of the engine functions and raises one InvalidInputError.

A rule spanning several fields is the class's invariants() method, run
on both paths once every field is valid. A list drops its items that
have violations, so the rules of the object holding it still run. JSON
null counts as an absent key, except where a number row gives it a
meaning.

load() checks a list of strings, or of the objects of a flat table, a
column at a time: one pass per row over all its items (a number column
by its types, a finite sum, its least cell and, under an upper bound,
its greatest), then each item's invariants, with no path strings. A
flat table's rows are all text, flag, choice or number rows, none under
a dotted key and no number with a null meaning. Any other list, and a
list in which that pass finds a problem, takes the per-item walk, which
is the one source of violation messages: the same text in the same
order either way.
"""

import dataclasses
import math
import numbers
from itertools import repeat

from .errors import InvalidInputError, ScenarioValidationError

_REQUIRED = dataclasses.MISSING
_INVALID = object()   # the parse result of a node that has violations
_STR, _DICT, _FLOAT, _REAL = {str}, {dict}, {float}, {float, int}


def _join(path, key):
    if type(key) is int:
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def _fail(out, path, key, message):
    out.append(f"{_join(path, key)}: {message}")
    return _INVALID


class _Type:
    """A row holding a str or a bool. parse(raw, path, key, out) is the value
    of the JSON node raw at path.key, or _INVALID after adding violations."""

    null = dump = None    # dump(value) -> JSON value; None: the value itself

    def __init__(self, kind, name):
        self.kind, self.message = kind, f"must be a {name}"

    def parse(self, raw, path, key, out):
        return raw if type(raw) is self.kind else _fail(out, path, key, self.message)

    def check(self, x):
        return None if isinstance(x, self.kind) else self.message

    def column(self, cells):
        """The values of a list of JSON nodes, each parsed as this row's
        value, or None if any node has a violation."""
        return cells if set(map(type, cells)) <= {self.kind} else None


class _Number(_Type):
    def __init__(self, gt=None, ge=None, le=None, null=None):
        self.null, self.le = null, le
        self.dump = None if null is None else lambda x: None if x == null else x
        lo = -math.inf if gt is None and ge is None else gt if gt is not None else ge
        hi = math.inf if le is None else le
        self.ok = {(True, True): lambda x: lo < x < hi,       # NaN fails all four
                   (True, False): lambda x: lo < x <= hi,
                   (False, True): lambda x: lo <= x < hi,
                   (False, False): lambda x: lo <= x <= hi}[ge is None, le is None and null is None]
        cond = (f"in [{ge:g}, {le:g}]" if le is not None else f"> {gt:g}"
                if gt is not None else f">= {ge:g}" if ge is not None else "")
        self.message = (f"must be {cond} or null" if null is not None else
                        f"must be finite and {cond}" if cond else "must be finite")

    def parse(self, raw, path, key, out):
        if type(raw) is float and self.ok(raw):    # check's float path, inlined
            return raw
        if raw is None:
            return self.null
        problem = self.check(raw) if type(raw) in (float, int) else "must be a number"
        return float(raw) if problem is None else _fail(out, path, key, problem)

    def check(self, x):
        if type(x) is not float:
            if type(x) is bool or not isinstance(x, numbers.Real):
                return "must be a number"
            try:
                x = float(x)
            except OverflowError:    # an int beyond the float range
                return self.message
        return None if self.ok(x) else self.message

    def column(self, cells):
        types = set(map(type, cells))
        if not types <= _FLOAT:    # ints are converted as parse converts them
            if not types <= _REAL:
                return None
            try:
                cells = list(map(float, cells))
            except OverflowError:
                return None
        # A finite sum holds no NaN and no infinity (one that overflows only
        # sends the list to the walk), and ok holds on an interval: the
        # least cell decides it for every cell, with the greatest below le.
        if math.isfinite(sum(cells)) and self.ok(min(cells)) and (
                self.le is None or self.ok(max(cells))):
            return cells
        return None


class _Choice(_Type):
    def __init__(self, options):
        self.values = {getattr(o, "value", o): o for o in options}
        self.names = {o: k for k, o in self.values.items()}
        self.types = {type(o) for o in options}
        self.message = f"must be one of {sorted(self.values)}"

    def parse(self, raw, path, key, out):
        if type(raw) is str and raw in self.values:
            return self.values[raw]
        return _fail(out, path, key, self.message)

    def check(self, x):
        return None if type(x) in self.types and x in self.names else self.message

    def column(self, cells):
        if set(map(type, cells)) <= _STR and set(cells) <= self.values.keys():
            return list(map(self.values.__getitem__, cells))
        return None

    def dump(self, x):
        return self.names[x]


class _Object(_Type):
    def __init__(self, cls):
        super().__init__(cls, cls.__name__)
        self.dump = dump

    def parse(self, raw, path, key, out):
        return _parse(self.kind, raw, _join(path, key), out)

    def column(self, cells):
        return _columns(self.kind, cells)


class _Seq(_Type):
    """A list; the items that have violations are left out. parse checks
    a list of strings or of a flat table's objects a row at a time
    (column) and walks any other list, or one in which that finds a
    problem, an item at a time to list the violations."""

    def __init__(self, item):
        self.item = _Type(str, "string") if item is str else _Object(item)
        self.columns = item is str or item.__table__.flat
        self.message = f"must be a list of {'str' if item is str else item.__name__}"

    def parse(self, raw, path, key, out):
        items = self.item.column(raw) if self.columns and type(raw) is list else None
        return self.walk(raw, path, key, out) if items is None else tuple(items)

    def walk(self, raw, path, key, out):
        if type(raw) is not list:
            return _fail(out, path, key, "must be a list")
        path = _join(path, key)
        items = [self.item.parse(x, path, i, out) for i, x in enumerate(raw)]
        return tuple(x for x in items if x is not _INVALID)

    def check(self, x):
        if isinstance(x, (tuple, list)) and all(map(isinstance, x, repeat(self.item.kind))):
            return None
        return self.message

    def dump(self, x):
        return [self.item.dump(v) for v in x] if self.item.dump else list(x)


def _row(spec, default, key):
    return dataclasses.field(default=default, metadata={"spec": spec, "key": key})


def num(default=_REQUIRED, *, gt=None, ge=None, le=None, null=None, key=None):
    """A number row: finite unless null stands for a non-finite value."""
    return _row(_Number(gt, ge, le, null), default, key)


def text(default=_REQUIRED, *, key=None):
    return _row(_Type(str, "string"), default, key)


def flag(default=_REQUIRED, *, key=None):
    return _row(_Type(bool, "boolean"), default, key)


def choice(options, default=_REQUIRED, *, key=None):
    """One of options (strings or the members of a str Enum)."""
    return _row(_Choice(options), default, key)


def obj(cls, default=_REQUIRED, *, key=None):
    return _row(_Object(cls), default, key)


def seq(item, default=_REQUIRED, *, key=None):
    """A list of strings (item str) or of objects of a table class."""
    return _row(_Seq(item), default, key)


def duplicates(path, ids) -> list[str]:
    """A violation for each id that repeats an earlier one in ids."""
    if len(set(ids)) == len(ids):
        return []
    seen = set()     # set.add returns None: the test below adds unseen ids
    return [f"{path}[{i}]: duplicate id" for i in ids if i in seen or seen.add(i)]


class _Table:
    """The compiled rows of a table class, in the forms each job uses."""

    def __init__(self, cls):
        self.rule = getattr(cls, "invariants", _no_rule)
        self.rows, self.checks, self.dumps, self.specs = [], [], [], {}
        for f in dataclasses.fields(cls):
            spec, name = f.metadata["spec"], f.metadata["key"] or f.name
            *parents, key = name.split(".")
            parents = tuple(parents)
            self.rows.append((f.name, parents, key, name, spec, f.default,
                              spec.null is not None))
            self.checks.append((f.name, spec.check))
            self.dumps.append((f.name, parents, key, spec.dump))
            self.specs[f.name] = spec
        # A list of a flat table's objects takes the column pass (_columns).
        self.flat = all(type(spec) in (_Type, _Choice, _Number) and spec.null is None
                        and not parents for _attr, parents, _key, _name, spec, *_ in self.rows)


def _no_rule(_self):
    return ()


def table(cls):
    """Make cls a frozen dataclass checked against its rows. A row's JSON
    key is the field name, or its key: a dotted path into nested objects."""
    cls.__post_init__ = _post_init
    cls = dataclasses.dataclass(frozen=True)(cls)
    cls.__table__ = _Table(cls)
    return cls


def row(cls, attr):
    """The row of a table class that holds attr; row.check(value) tests a value."""
    return cls.__table__.specs[attr]


def number(*, gt=None, ge=None, le=None):
    """The rule of a number row, for an argument that no table holds."""
    return _Number(gt, ge, le)


def require(*checks):
    """Check (name, rule, value) triples, a rule being a row or a number();
    raise one InvalidInputError listing name: problem for each rejected value."""
    out = [f"{name}: {problem}" for name, rule, value in checks
           if (problem := rule.check(value))]
    if out:
        raise InvalidInputError("; ".join(dict.fromkeys(out)))


def _post_init(self):
    table, out = type(self).__table__, []
    for attr, check in table.checks:     # a loop: no comprehension frame per object
        if problem := check(getattr(self, attr)):
            out.append(f"{attr}: {problem}")
    if out := out or table.rule(self):
        raise InvalidInputError("; ".join(f"{type(self).__name__}.{v}" for v in out))


def _node(doc, parents, path, out):
    """The object at doc[parents[0]]..., {} if absent, None if not an object."""
    for i, part in enumerate(parents):
        doc = doc.get(part)
        if doc is None:
            return {}
        if type(doc) is not dict:
            _fail(out, path, ".".join(parents[:i + 1]), "must be an object")
            return None
    return doc


def _parse(cls, doc, path, out):
    """The object a JSON node describes, or _INVALID; adds violations to out."""
    if type(doc) is not dict:
        out.append(f"{path or 'document'}: must be an object")
        return _INVALID
    table = cls.__table__
    values, valid = {}, True
    for attr, parents, key, name, spec, default, nullable in table.rows:
        node = _node(doc, parents, path, out) if parents else doc
        if node is None:
            valid = False
            continue
        raw = node.get(key)
        if raw is None and not (nullable and key in node):
            if default is _REQUIRED:
                _fail(out, path, name, "missing")
                valid = False
            else:
                values[attr] = default
            continue
        value = values[attr] = spec.parse(raw, path, name, out)
        valid = valid and value is not _INVALID
    if not valid:
        return _INVALID
    result = object.__new__(cls)     # the rows are checked: skip __post_init__
    result.__dict__.update(values)
    problems = table.rule(result)
    if problems:
        out.extend(_join(path, v) for v in problems)
        return _INVALID
    return result


def _fill(cells, fill, column):
    """column(cells) with the None cells left out and put back as fill."""
    given = [x for x in cells if x is not None]
    if not given:
        return [fill] * len(cells)
    values = column(given)
    if values is None:
        return None
    given = iter(values)
    return [fill if x is None else next(given) for x in cells]


def _columns(cls, docs):
    """The objects of a flat table that a list of JSON nodes describes, or
    None if any node has a violation: one pass per row over the list, and
    no path strings."""
    if not set(map(type, docs)) <= _DICT:
        return None
    if not docs:
        return []
    table = cls.__table__
    dicts = [{} for _ in docs]
    for attr, _parents, key, _name, spec, default, _nullable in table.rows:
        cells = [n.get(key) for n in docs]
        if None not in cells:
            values = spec.column(cells)
        elif default is _REQUIRED:
            return None
        else:
            values = _fill(cells, default, spec.column)
        if values is None:
            return None
        for d, value in zip(dicts, values):
            d[attr] = value
    # As _parse: no __post_init__, the rows are checked, and each object
    # takes a dict filled in row order (filling an object's own __dict__
    # row by row leaves its attributes slower to read).
    objects = list(map(object.__new__, repeat(cls, len(docs))))
    for result, values in zip(objects, dicts):
        result.__dict__.update(values)
    if table.rule is not _no_rule and any(map(table.rule, objects)):
        return None
    return objects


def version_violations(doc, version) -> list[str]:
    """The violation of a JSON object whose schema_version is not the
    integer version (not true, not 1.0); none if version is None."""
    if version is None or type(doc) is not dict:
        return []
    got = doc.get("schema_version")
    if type(got) is int and got == version:
        return []
    return [f"schema_version: must be {version}, got {got!r}"]


def load(cls, doc, version=None):
    """Build cls from a JSON document (carrying schema_version == version,
    if given) or raise ScenarioValidationError listing every violation."""
    out = version_violations(doc, version)
    result = _parse(cls, doc, "", out)
    if out:
        raise ScenarioValidationError(list(dict.fromkeys(out)))
    return result


def dump(obj) -> dict:
    """The JSON document of a table object."""
    doc = {}
    for attr, parents, key, convert in type(obj).__table__.dumps:
        value = getattr(obj, attr)
        if convert is not None:
            value = convert(value)
        if parents:
            node = doc
            for part in parents:
                node = node.setdefault(part, {})
            node[key] = value
        else:
            doc[key] = value
    return doc
