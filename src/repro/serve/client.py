"""Clients for the JSON-lines ANN server (:mod:`repro.serve.server`).

Two flavours over the same newline-framed protocol:

* :class:`AsyncServeClient` — asyncio streams; used by the server
  itself (workers forwarding writes to the primary) and by any async
  application code.
* :class:`ServeClient` — a plain blocking socket for tests, shell
  drivers and the CI smoke lane; no event loop required.

Both expose ``request(dict) -> dict`` (one request line in, the
matching response line out) plus typed conveniences.  ``query`` returns
``(ids, dists)`` as numpy arrays — byte-identical to a local
``index.query`` against the same state, because the codec
(:mod:`repro.serve.codec`) round-trips every finite double exactly.
Error responses raise :class:`ServerError`; ``{"error": "overloaded"}``
shed responses raise the :class:`Overloaded` subclass so callers can
implement backoff.

The wire protocol is documented in :mod:`repro.serve.server` and the
README "Serving" section.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Optional, Tuple

import numpy as np

from repro.serve.codec import decode_line, encode_line

__all__ = ["AsyncServeClient", "Overloaded", "ServeClient", "ServerError"]

#: maximum response-line length accepted by the async reader (a query
#: against a huge k can produce long lines; 32 MB is far beyond any
#: realistic response and still bounds memory)
_LINE_LIMIT = 32 << 20


class ServerError(RuntimeError):
    """The server answered ``{"error": ...}``; ``.response`` has it all."""

    def __init__(self, response: dict):
        super().__init__(str(response.get("error", response)))
        self.response = response


class Overloaded(ServerError):
    """Admission control shed the request (``{"shed": true}``)."""


def _decode(line: bytes) -> dict:
    response = decode_line(line)
    if not isinstance(response, dict):
        raise ServerError({"error": f"non-object response: {response!r}"})
    return response


def _raise_on_error(response: dict) -> dict:
    if "error" in response:
        if response.get("shed"):
            raise Overloaded(response)
        raise ServerError(response)
    return response


def _query_result(response: dict) -> Tuple[np.ndarray, np.ndarray]:
    _raise_on_error(response)
    ids = np.asarray(response["ids"], dtype=np.int64)
    dists = np.asarray(response["dists"], dtype=np.float64)
    return ids, dists


def _query_request(
    q: np.ndarray, k: int, min_version: Optional[int], kwargs: dict
) -> dict:
    request = {"query": np.asarray(q, dtype=np.float64).tolist(), "k": int(k)}
    if min_version is not None:
        request["min_version"] = int(min_version)
    request.update(kwargs)
    return request


class AsyncServeClient:
    """One connection to the server, request/response serialized.

    ``request`` holds an internal lock, so a single client instance is
    safe to share between tasks (requests queue up); open several
    clients for real concurrency.  For explicit pipelining (many
    requests on the wire at once over one connection) use ``send`` /
    ``recv`` directly — responses come back in request order.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncServeClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=_LINE_LIMIT
        )
        return cls(reader, writer)

    async def send(self, request: dict) -> None:
        self._writer.write(encode_line(request))
        await self._writer.drain()

    async def recv(self) -> dict:
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return _decode(line)

    async def request(self, request: dict) -> dict:
        async with self._lock:
            await self.send(request)
            return await self.recv()

    def at_eof(self) -> bool:
        """Whether the server closed the connection and every response
        it sent has been read (a reused client is stale)."""
        return self._reader.at_eof()

    # -- typed conveniences -------------------------------------------

    async def query(
        self,
        q: np.ndarray,
        k: int = 1,
        min_version: Optional[int] = None,
        **kwargs,
    ) -> Tuple[np.ndarray, np.ndarray]:
        response = await self.request(
            _query_request(q, k, min_version, kwargs)
        )
        return _query_result(response)

    async def insert(self, vector: np.ndarray) -> dict:
        request = {"insert": np.asarray(vector, dtype=np.float64).tolist()}
        return _raise_on_error(await self.request(request))

    async def delete(self, handle: int) -> dict:
        return _raise_on_error(
            await self.request({"delete": int(handle)})
        )

    async def stats(self) -> dict:
        return _raise_on_error(await self.request({"stats": True}))["stats"]

    async def ping(self) -> bool:
        return bool((await self.request({"ping": True})).get("pong"))

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # peer already gone
            pass

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


class ServeClient:
    """Blocking JSON-lines client (plain socket, no event loop).

    Mirrors :class:`AsyncServeClient`'s surface; one request at a time.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def send(self, request: dict) -> None:
        self._file.write(encode_line(request))
        self._file.flush()

    def recv(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return _decode(line)

    def request(self, request: dict) -> dict:
        self.send(request)
        return self.recv()

    # -- typed conveniences -------------------------------------------

    def query(
        self,
        q: np.ndarray,
        k: int = 1,
        min_version: Optional[int] = None,
        **kwargs,
    ) -> Tuple[np.ndarray, np.ndarray]:
        return _query_result(
            self.request(_query_request(q, k, min_version, kwargs))
        )

    def insert(self, vector: np.ndarray) -> dict:
        request = {"insert": np.asarray(vector, dtype=np.float64).tolist()}
        return _raise_on_error(self.request(request))

    def delete(self, handle: int) -> dict:
        return _raise_on_error(self.request({"delete": int(handle)}))

    def stats(self) -> dict:
        return _raise_on_error(self.request({"stats": True}))["stats"]

    def ping(self) -> bool:
        return bool(self.request({"ping": True}).get("pong"))

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
