"""Canonical serialization and content addresses for every repro cache.

One key scheme serves three consumers -- the in-memory compile memo, the
disk-persistent artifact store (:mod:`repro.cache.store`) and the service
result cache (:mod:`repro.service.cache`) -- so an artifact computed by any
of them is addressable by all of them.  The scheme:

* **Canonical JSON** -- keys hash over ``json.dumps(..., sort_keys=True)``
  of the request dict, so two spellings of the same request (key order,
  defaulted vs explicit fields) share an address.
* **Kind namespacing** -- the sha256 runs over ``{"kind": ..., "request":
  ...}``; artifacts of different kinds (``module`` / ``run`` /
  ``compare``) can never collide even where their request dicts
  could.
* **Full lowering configuration** -- a compiled module's address covers
  *everything* that feeds target selection and the optimization pipeline
  (arch, march, vector extension/VLEN/lanes, vectorizer toggle), not just
  the march string: march is free-form while
  :func:`~repro.compiler.targets.registry.target_for_platform` keys on
  ``(arch, vector.supported, vlen_bits)``, so two descriptors agreeing on
  march and lanes can still lower differently and must never alias.
"""

from __future__ import annotations

import hashlib
import json


#: Disk-store kind for serialized response payloads.  The service result
#: cache and the sweep engine share it (with ``cache_key("run", ...)``
#: digests), so a sweep-filled store serves daemon requests and vice versa.
RESULT_KIND = "result"


def canonical_json(payload: object) -> str:
    """The key-order-insensitive serialization cache keys hash over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def encode_body(payload: object) -> bytes:
    """Serialize a payload to the bytes caches store and serve.

    Key order is *preserved*, not sorted: the exporters build their dicts in
    a fixed order, so the bytes are deterministic anyway, and preserving it
    lets clients re-dump payloads into output byte-identical to the
    in-process CLI's.
    """
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def cache_key(kind: str, canonical_request: dict) -> str:
    """Content address of one request: sha256 over (kind, canonical dict)."""
    body = canonical_json({"kind": kind, "request": canonical_request})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def lowering_config(descriptor, enable_vectorizer: bool) -> dict:
    """The canonical lowering configuration of one platform descriptor.

    Everything that can change the compiled module or its target lowering,
    and nothing that cannot: ``arch``/``vector.supported``/``vlen_bits``
    select the target (see ``targets/registry.py``), ``sp_lanes`` and the
    vectorizer toggle parameterize the optimization pipeline, and ``march``
    plus the extension name ride along so a future lowering that branches
    on them is covered the day it lands.
    """
    vector = descriptor.vector
    return {
        "arch": descriptor.arch,
        "march": descriptor.march,
        "vector_extension": vector.extension or "",
        "vector_supported": bool(vector.supported),
        "vlen_bits": int(vector.vlen_bits),
        "sp_lanes": int(vector.sp_lanes()),
        "enable_vectorizer": bool(enable_vectorizer),
    }


def module_key(source: str, filename: str, descriptor,
               enable_vectorizer: bool) -> str:
    """Content address of one compiled module: source + full lowering config."""
    return cache_key("module", {
        "source": source,
        "filename": filename,
        "lowering": lowering_config(descriptor, enable_vectorizer),
    })
