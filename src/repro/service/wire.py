"""Wire format helpers: canonical payloads, cache keys, structured errors.

Everything the service caches or sends is a JSON document.  The helpers
here pin down the two properties the whole subsystem rests on:

* **Canonical keys** -- the result cache is content-addressed: a request is
  hashed over its *canonicalized* dict
  (:func:`~repro.api.executor.canonical_request`: platform aliases
  resolved, spec defaults applied), so two requests that mean the
  same run hash the same no matter how the client spelled them (key order,
  defaulted vs explicit fields, ``x60`` vs ``SpacemiT X60``).
* **Deterministic bodies** -- cached response bodies are serialized once,
  compactly, preserving the exporters' deterministic key order, so a cache
  hit serves byte-identical content to the miss that filled it *and* a
  client re-dumping a payload with ``indent=2`` reproduces the in-process
  CLI's ``to_json()`` bytes exactly (``json.loads``/``dumps`` round-trips
  key order and float repr).

Errors travel as ``{"error": {"type": ..., "message": ...}}`` so clients
can tell a validation problem from a dead worker from a timeout without
parsing prose.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.keys import cache_key, canonical_json, encode_body

__all__ = ["cache_key", "canonical_json", "encode_body", "error_payload"]

# canonical_json / encode_body / cache_key live in repro.cache.keys now --
# the disk store and the sweep engine address the same artifacts the
# service does, and sharing one key scheme is what makes a sweep-filled
# cache serve daemon requests (and vice versa).  Re-exported here so the
# service subsystem keeps one import site for its wire format.


def error_payload(kind: str, message: str,
                  retry_after: Optional[float] = None) -> dict:
    entry: dict = {"type": kind, "message": message}
    if retry_after is not None:
        entry["retry_after"] = retry_after
    return {"error": entry}
