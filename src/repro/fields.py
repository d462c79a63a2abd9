"""Pickling an object as the bare list of its field values.

Python's own pickled form for a ``__slots__`` class is a ``(None, {name:
value})`` pair, and a ``__getstate__`` that returns a list builds a
container too.  A pickler's memo keeps every state it has written until the
dump ends, so a checkpoint of a 256-node engine would hold one such container
per lane, direction, packet, node, source and message beside the object
itself.  :func:`field_list` gives a class a form with no state container on
either side.

``copy`` rebuilds an object from the same reduction but hands the list items
back one ``append`` at a time; :func:`copied` is ``__copy__`` and
``__deepcopy__`` for such a class, rebuilding it as the unpickler does.
"""

from __future__ import annotations

import copy
import copyreg
import operator


def copied(self, memo=None):
    """A copy of ``self`` rebuilt from its ``__reduce_ex__`` — deep (each
    field value through ``copy.deepcopy``) when ``copy.deepcopy`` passes a
    ``memo``, shallow from ``copy.copy``."""
    rebuild, args, *rest = self.__reduce_ex__(4)
    twin = rebuild(*args)
    if rest:  # not reduced to an object a module holds (the fault sentinel)
        if memo is not None:
            memo[id(self)] = twin
        twin.extend([v if memo is None else copy.deepcopy(v, memo) for v in rest[-1]])
    return twin


def field_list(cls: type, names: tuple | None = None) -> type:
    """Make ``cls`` pickle as its field values — ``names``, by default its
    ``__slots__``, each set on every instance — in that order: the list items
    of an empty instance (``__reduce_ex__``), handed back to ``extend`` by
    the unpickler.  Returns ``cls``, so it also decorates.  Every class given
    has at least two fields, so its pickle holds one batch of list items and
    never a lone ``append``."""
    names = cls.__slots__ if names is None else names
    values = operator.attrgetter(*names)

    def __reduce_ex__(self, protocol):
        return copyreg.__newobj__, (type(self),), None, iter(values(self))

    # ``self.a, self.b, ... = items``: one unpacking, as a hand-written
    # ``__setstate__`` would do it (a loop of ``setattr`` made a restore 1.6
    # times as slow), and a ValueError for a count that is not the table's
    namespace: dict = {}
    targets = "".join(f"self.{name}, " for name in names)
    exec(f"def extend(self, items):\n    {targets}= items\n", namespace)

    cls.__reduce_ex__ = __reduce_ex__
    cls.extend = namespace["extend"]
    cls.__copy__ = cls.__deepcopy__ = copied
    return cls
