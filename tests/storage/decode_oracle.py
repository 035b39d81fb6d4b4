"""The row-at-a-time decode a load ran before it decoded a column at a
time: the oracle of ``tests/storage/test_decode_differential.py``.

Each stored row's values went through ``decode_value`` and
``Tuple.from_sequence`` one by one, and each stamp through
``decode_stamp``.  Kept as it was but for one fix: values that are not a
list are refused.  The old decode iterated whatever it was given, so a
dict decoded into its keys and a string into its characters.
"""

from repro.errors import ConstraintViolation, StorageError
from repro.relational.relation import Relation
from repro.relational.tuple import Tuple
from repro.storage.serializer import (_ROW_SHAPES, decode_stamp,
                                      decode_value, schema_from_dict)


def tuple_from_list(schema, values, memo):
    if type(values) is not list:  # the one fix
        raise StorageError(f"stored values {values!r} are not a list")
    return Tuple.from_sequence(
        schema, [decode_value(value, memo) for value in values])


def decode_rows(schema, row_type, data, memo):
    for values, *stamps in data:
        yield row_type(tuple_from_list(schema, values, memo),
                       *[decode_stamp(stamp, memo) for stamp in stamps])


def relation_from_dict(data, memo=None):
    """Any store shape back from ``serializer.store_to_dict`` output."""
    schema = schema_from_dict(data["schema"])
    kind = data.get("kind")
    memo = {} if memo is None else memo
    if kind == "static":
        return Relation(schema, (tuple_from_list(schema, values, memo)
                                 for values in data["tuples"]))
    if kind in _ROW_SHAPES:
        store_type, row_type = _ROW_SHAPES[kind]
        # Every row decodes before the store refuses an element open twice.
        rows = list(decode_rows(schema, row_type, data["rows"], memo))
        try:
            return store_type(schema, rows)
        except ConstraintViolation as exc:  # (an element open twice)
            raise StorageError(str(exc)) from exc
    raise StorageError(f"unknown relation kind {kind!r}")
