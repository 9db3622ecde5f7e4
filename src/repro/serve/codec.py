"""The JSON-lines codec: one request or reply object per line.

Both ends of the wire — the server (:mod:`repro.serve.server`) and its
clients (:mod:`repro.serve.client`, and through them a replica
forwarding writes to its primary) — frame with these two functions, so
there is one spelling of the protocol.

* **Strict JSON both ways.** ``NaN``, ``Infinity`` and numbers that
  overflow a double (``1e999``) are refused at decode with a
  ``ValueError`` (``orjson.JSONDecodeError`` subclasses it), so a
  non-finite vector never reaches an index or its log.
* **Compact replies.** ``{"ids":[1,2],"dists":[0.5,1.0]}`` — no spaces.
  Every float is written as the shortest text that parses back to the
  same double, so values round-trip bit for bit; only the spelling may
  differ from Python's ``json`` (``0.00001`` for ``1e-05``).
* numpy scalars (e.g. inside ``stats``) encode through ``.item()``; a
  float that is not finite encodes as ``null``.
"""

from __future__ import annotations

import orjson

__all__ = ["decode_line", "encode_line"]


def _default(value):
    """Last-resort coercion for numpy scalars (and anything else: its str)."""
    item = getattr(value, "item", None)
    if item is not None:
        return item()
    return str(value)


def decode_line(line: bytes):
    """One JSON text (bytes or str, no framing newline needed) -> object."""
    return orjson.loads(line)


def encode_line(obj) -> bytes:
    """``obj`` -> one compact JSON line, newline included."""
    return orjson.dumps(obj, default=_default, option=orjson.OPT_APPEND_NEWLINE)
