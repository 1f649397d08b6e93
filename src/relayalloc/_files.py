"""Artifact file I/O: atomic writes, and the one strict rule that every
JSON artifact reader applies (no string or boolean is taken for a number,
and nothing is coerced)."""

import contextlib
import itertools
import json
import os
from dataclasses import fields

import numpy as np

from .errors import SchemaError

_JSON_TYPES = {"int": {int}, "float": {int, float}, "str": {str}, "None": {type(None)}}
# bad JSON fields raise these; OverflowError: an integer too large for a float64
MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


@contextlib.contextmanager
def atomic_open(path: str, newline: str | None = None):
    """Write to ``path + ".tmp"``, then move it over ``path``.

    If the body raises, the temporary file is removed and ``path`` keeps
    its previous contents.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_json(text: str, where: str, what: str, read, fmt: str | None = None):
    """``read(doc)`` for the JSON object ``text`` holds. SchemaError, its
    message starting ``where: ``, when ``text`` is not a JSON object, when
    its ``format`` is not ``fmt`` (if given) or when ``read`` raises one of
    ``MALFORMED`` (a malformed ``what``); other errors pass through."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}: not valid JSON: {exc}") from exc
    if type(doc) is not dict:
        raise SchemaError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    if fmt is not None and doc.get("format") != fmt:
        raise SchemaError(f"{where}: expected format {fmt!r}, got {doc.get('format')!r}")
    try:
        return read(doc)
    except MALFORMED as exc:
        raise SchemaError(f"{where}: malformed {what}: {exc}") from exc


def typed(cls, doc: dict) -> dict:
    """``doc``, if each value's JSON type matches the annotation of the
    ``cls`` field it names (``int | None`` takes null, no field takes a
    boolean); TypeError otherwise."""
    if type(doc) is not dict:
        raise TypeError(f"expected a JSON object, got {doc!r}")
    for f in fields(cls):
        kinds = {t for k in f.type.split(" | ") for t in _JSON_TYPES.get(k, ())}
        if f.name in doc and type(doc[f.name]) not in kinds:
            raise TypeError(f"{f.name} must be {f.type}, got {doc[f.name]!r}")
    return doc


def numbers(values, ndim: int, kind: str = "float") -> np.ndarray:
    """``values``, JSON lists nested ``ndim`` deep, as an array, if every
    entry has the JSON type ``kind`` under the rule of ``typed``;
    TypeError otherwise."""
    entries = [values]
    for _ in range(ndim):
        if any(type(x) is not list for x in entries):
            raise TypeError(f"expected lists nested {ndim} deep")
        entries = list(itertools.chain.from_iterable(entries))
    wrong = set(map(type, entries)) - _JSON_TYPES[kind]
    if wrong:
        raise TypeError(f"expected {kind} entries, got {', '.join(t.__name__ for t in wrong)}")
    return np.array(values, dtype=float if kind == "float" else int)
