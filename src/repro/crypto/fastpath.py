"""The two crypto tiers behind the AEAD, the hash chain and Alg. 2.

A backend is either **native** or it is not, and callers ask exactly
that — ``BACKEND.native``:

``c`` (native)
    ``fastpath.c``, a CPython extension module whose functions take
    bytes and lists and build their results in C.  It holds the SHA-256
    compression function and every fused primitive built on it: the CTR
    block loop, whole AEAD boxes singly and in batches, the hash-chain
    step, batched SHA-256, the protocol codecs (client INVOKE seal /
    REPLY open, and the enclave's whole-batch INVOKE open and REPLY
    seal), and ``modexp``, the Montgomery exponentiation behind the
    attested DH channel (:mod:`repro.crypto.dh`).  The compression
    function (SHA-NI or portable) and, on AVX-512F CPUs, a 16-lane
    keystream kernel are chosen when the module loads; ``kernels`` names
    the choice, plus ``+mont64`` when the compiler has the 128-bit
    integers ``modexp`` needs (without them it always falls back to
    ``pow``).  :mod:`repro._cbuild` compiles it once per source and
    compile command and reuses the build across processes; the first
    import needs a C compiler and Python's headers, later ones nothing
    but the build.
``python`` (not native)
    The SHA-256-CTR block loop on hashlib, and nothing else: the AEAD
    layer, the hash chain and the trusted context compose everything
    above it from hashlib themselves, and DH stays on Python's ``pow``.
    It is the only tier that runs without a compiler, and the reference
    the parity suite compares ``c`` against.

Both tiers produce **byte-identical** keystreams, tags, boxes, DH keys and
wire messages — the golden-vector tests run against whichever backend is
active, ``tests/crypto/test_fastpath.py`` checks each against independent
stdlib computations, and ``tests/server/test_execution_parity.py`` pins
whole traces.  Selection happens at import: ``c`` when it is buildable,
else ``python``; the ``REPRO_FASTPATH`` environment variable (or
:func:`select_backend` at runtime) names one of the two explicitly.

A keystream block is ``SHA-256(b"lcm-ctr" || enc_key || nonce ||
counter_8be)`` (see :mod:`repro.crypto.aead`); backends receive the
51-byte prefix ``b"lcm-ctr" || enc_key || nonce`` and a block count.
"""

from __future__ import annotations

import hashlib
import os
import pathlib

from repro import _cbuild
from repro.errors import ConfigurationError

_sha256 = hashlib.sha256
_join = b"".join

#: Big-endian counter suffixes for the common stream lengths (128 KiB);
#: longer streams generate counters on the fly.
_COUNTERS = tuple(counter.to_bytes(8, "big") for counter in range(4096))

_ENV_VAR = "REPRO_FASTPATH"

def _counters(nblocks: int):
    if nblocks <= len(_COUNTERS):
        return _COUNTERS[:nblocks]
    return [counter.to_bytes(8, "big") for counter in range(nblocks)]


class PythonBackend:
    """The hashlib block loop (pure Python, no fused primitives)."""

    name = "python"
    #: The one question callers ask of a backend: does it carry the fused
    #: C primitives, or do they compose from hashlib themselves?
    native = False

    @property
    def kernels(self) -> str:
        """What computes the keystream: hashlib, one block at a time."""
        return "hashlib"

    def blocks(self, prefix: bytes, nblocks: int) -> bytes:
        """``nblocks * 32`` keystream bytes for one (key, nonce)."""
        return self.blocks_many((prefix,), (nblocks,))

    def blocks_many(self, prefixes: list[bytes], counts: list[int]) -> bytes:
        """Concatenated keystreams for a batch of (prefix, count) spans:
        one locals-bound loop over every block of every box and a single
        ``join``, so the interpreter executes one frame per batch."""
        sha256 = _sha256
        blocks: list[bytes] = []
        append = blocks.append
        for prefix, count in zip(prefixes, counts):
            clone = sha256(prefix).copy
            for counter in _counters(count):
                block = clone()
                block.update(counter)
                append(block.digest())
        return _join(blocks)


# --------------------------------------------------------------------- C

_SOURCE = pathlib.Path(__file__).resolve().with_name("fastpath.c")


class CBackend:
    """The compiled block loop and fused primitives (byte-identical to
    the hashlib compositions they replace).

    Every attribute but ``modexp`` and ``kernels`` *is* a function of
    the C module, so a call from :mod:`repro.crypto.aead`,
    :mod:`repro.crypto.hashing`, :mod:`repro.core.messages` or the
    trusted context is one C call with no Python frame around it.  Their
    contracts are documented where ``fastpath.c`` defines them.
    """

    name = "c"
    native = True

    def __init__(self, module) -> None:
        self._kernels = module.kernels()
        self.blocks = module.keystream
        self.sha256_many = module.sha256_many
        self.chain_extend = module.chain_extend
        self.seal_box = module.seal_box
        self.open_box = module.open_box
        self.stream_box = module.stream_box
        self.seal_boxes = module.seal_boxes
        self.open_boxes = module.open_boxes
        self.seal_invoke = module.seal_invoke
        self.open_reply = module.open_reply
        self.invoke_batch_open = module.invoke_batch_open
        self.invoke_batch_reply = module.invoke_batch_reply
        self._modexp = module.modexp
        # modulus -> (modulus, R^2 mod modulus, -modulus^-1 mod 2^64) as
        # the C modexp takes them, computed once per modulus
        self._mont: dict[int, tuple[bytes, bytes, int]] = {}

    @property
    def kernels(self) -> str:
        """The kernels dispatch chose when the module loaded: the
        compression function (``sha-ni`` or ``portable``), plus
        ``+avx512x16`` when the 16-lane keystream kernel runs and
        ``+mont64`` when the DH kernel (``modexp``) is compiled in."""
        return self._kernels

    def modexp(self, base: int, exponent: int, modulus: int) -> int | None:
        """``pow(base, exponent, modulus)`` in one C call, for an odd
        modulus of at most 2048 bits and an exponent >= 0 (None: fall
        back to ``pow``; always None where the compiler lacks 128-bit
        integers, see ``kernels``)."""
        mont = self._mont.get(modulus)
        if mont is None:
            if modulus & 1 == 0 or not 1 < modulus < 1 << 2048:
                return None
            mont = self._mont[modulus] = (
                modulus.to_bytes(256, "big"),
                ((1 << 4096) % modulus).to_bytes(256, "big"),
                -pow(modulus, -1, 1 << 64) % (1 << 64),
            )
        if exponent < 0:
            return None
        out = self._modexp(
            mont[0], mont[1], mont[2],
            (base % modulus).to_bytes(256, "big"),
            exponent.to_bytes((exponent.bit_length() + 7) // 8, "big"),
        )
        return None if out is None else int.from_bytes(out, "big")


# ------------------------------------------------------------- selection

_BACKENDS: dict[str, object] = {}
_c_attempted = False


def _get_backend(name: str):
    global _c_attempted
    backend = _BACKENDS.get(name)
    if backend is not None:
        return backend
    if name == "python":
        backend = PythonBackend()
    elif name == "c":
        if _c_attempted:
            return None
        _c_attempted = True
        module = _cbuild.load("_lcm_fastpath", _SOURCE)
        if module is None:
            return None
        backend = CBackend(module)
    else:
        raise ConfigurationError(
            f"unknown fastpath backend {name!r} (expected 'c' or 'python')"
        )
    _BACKENDS[name] = backend
    return backend


def available_backends() -> list[str]:
    """Names of the backends that can actually be instantiated here."""
    names = ["python"]
    if _get_backend("c") is not None:
        names.insert(0, "c")
    return names


def select_backend(name: str | None = None):
    """Install (and return) the active backend.

    ``name=None`` applies the default policy: the compiled backend when
    it is buildable, else the hashlib one.  Requesting ``"c"`` explicitly
    when it cannot be built raises
    :class:`~repro.errors.ConfigurationError` instead of silently
    degrading.
    """
    global BACKEND
    if name is None:
        backend = _get_backend("c") or _get_backend("python")
    else:
        backend = _get_backend(name)
        if backend is None:
            raise ConfigurationError(
                f"fastpath backend {name!r} is unavailable "
                "(no C compiler or Python headers)"
            )
    BACKEND = backend
    return backend


def active_backend():
    """The backend the AEAD currently generates keystreams with."""
    return BACKEND


#: Selected at import; the REPRO_FASTPATH environment variable pins a
#: specific backend (e.g. ``REPRO_FASTPATH=python`` for a pure-stdlib
#: run, or ``=c`` to fail loudly when the compiled backend is missing).
BACKEND = select_backend(os.environ.get(_ENV_VAR) or None)
