"""The compiled canonical serde codec, ``_serde_native.c``.

The pure-Python encoder in :mod:`repro.serde` walks every container
element at interpreter speed; on the protocol hot path (the trusted
context encodes every state entry and client row a batch changes
before it seals them, and the streaming verifier canonicalises keys
per record) that walk is a large share of the sealed-operation cost.
The C extension produces byte-identical encodings by walking the
object graph in C; :mod:`repro._cbuild` compiles it, with the same
builder and cache as the crypto fastpath.

Importing this module builds (or loads) the codec into :data:`MODULE`,
so that importing it alone leaves the build in place, compiled before
anything that is timed.

Contract with :mod:`repro.serde`, which calls ``set_fallback(encode_cb,
decode_cb)`` on :data:`MODULE` with its pure functions:
``encode`` and ``decode`` route every value or blob the C walker
declines (ints beyond 64 bits, subclasses, excessive nesting, malformed
or non-bytes input) through those functions, which own every error
type and message, so :mod:`repro.serde` can bind its public names to
the compiled functions with no Python wrapper frame.
"""

from __future__ import annotations

import pathlib

from repro import _cbuild

#: The compiled codec module, or None when it cannot be built (the
#: pure-Python serde still works).
MODULE = _cbuild.load(
    "_lcm_serde", pathlib.Path(__file__).resolve().with_name("_serde_native.c")
)
