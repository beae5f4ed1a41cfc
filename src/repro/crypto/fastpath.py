"""The two crypto tiers behind the AEAD, the hash chain and Alg. 2.

A backend is either **native** or it is not, and callers ask exactly
that — ``BACKEND.native``:

``c`` (native)
    The C in ``fastpath.c`` (its exports declared in ``fastpath.h``),
    compiled inside cffi's wrapper.  It holds the SHA-256 compression
    function and every fused primitive built on it: the CTR block loop,
    whole AEAD boxes singly and in batches, the hash-chain step, batched
    SHA-256, the protocol codecs (client INVOKE seal / REPLY open, and
    the enclave's whole-batch INVOKE open and REPLY seal), and
    ``modexp``, the Montgomery exponentiation behind the attested DH
    channel (:mod:`repro.crypto.dh`).  The compression function (SHA-NI
    or portable) and, on AVX-512F CPUs, a 16-lane keystream kernel are
    chosen when the module loads; ``kernels`` names the choice, plus
    ``+mont64`` when the compiler has the 128-bit integers ``modexp``
    needs (without them it always falls back to ``pow``).
    :mod:`repro._cbuild` compiles it once per source, header and compile
    command and reuses the build across processes; the first import
    needs ``cffi`` and a C compiler, later ones only ``cffi``'s runtime.
``python`` (not native)
    The SHA-256-CTR block loop on hashlib, and nothing else: the AEAD
    layer, the hash chain and the trusted context compose everything
    above it from hashlib themselves, and DH stays on Python's ``pow``.
    It is the only tier that runs without cffi or a compiler, and the
    reference the parity suite compares ``c`` against.

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

import array
import hashlib
from itertools import accumulate, chain
import os
import pathlib
import threading

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

_HERE = pathlib.Path(__file__).resolve().parent


def _cffi_wrapper(directory: pathlib.Path) -> pathlib.Path:
    """Write cffi's wrapper module around ``fastpath.c`` into
    ``directory``.  Only a cache miss calls it, so a cached build's
    import never pays cffi's parse of ``fastpath.h``."""
    import cffi

    ffi = cffi.FFI()
    ffi.cdef((_HERE / "fastpath.h").read_text())
    ffi.set_source(
        "_lcm_fastpath", '#include "fastpath.c"', compiler_verbose=False
    )
    wrapper = directory / "_lcm_fastpath.c"
    ffi.emit_c_code(str(wrapper))
    return wrapper


class CBackend:
    """The cffi-compiled block loop and fused primitives (byte-identical
    to the hashlib compositions they replace).

    ``lcm_seal_box`` / ``lcm_open_box`` / ``lcm_stream_box`` /
    ``lcm_chain_extend`` have no wrapper method: :mod:`repro.crypto.aead`
    and :mod:`repro.crypto.hashing` call them on ``_lib`` directly, one
    Python frame per box or chain step.
    """

    name = "c"
    native = True

    def __init__(self, ffi, lib) -> None:
        self._ffi = ffi
        self._lib = lib
        # Reusable per-thread argument/output buffers for the per-message
        # wrappers (seal_invoke, open_reply, invoke_batch_open/_reply):
        # allocating fresh arrays and exporting them through
        # ``ffi.from_buffer`` costs more than the C work they carry at
        # typical batch sizes, so the cdata handles are built once and
        # kept.  Thread-local because callers may seal from several
        # threads at once; each buffer is only live within one
        # wrapper call (callers consume or copy before the next call).
        self._scratch = threading.local()
        # modulus -> (modulus, R^2 mod modulus, -modulus^-1 mod 2^64) as
        # lcm_modexp takes them, computed once per modulus
        self._mont: dict[int, tuple[bytes, bytes, int]] = {}

    @property
    def kernels(self) -> str:
        """The kernels dispatch chose when the module loaded: the
        compression function (``sha-ni`` or ``portable``), plus
        ``+avx512x16`` when the 16-lane keystream kernel runs and
        ``+mont64`` when the DH kernel (``modexp``) is compiled in."""
        return self._ffi.string(self._lib.lcm_kernels()).decode()

    def _batch_scratch(self, count: int) -> dict:
        """Per-thread scratch sized for ``count`` messages (grown, never
        shrunk; growing replaces the arrays and their cdata together, so
        a stale handle can never alias a resized buffer)."""
        s = self._scratch.__dict__
        if s.get("cap", 0) < count:
            ffi = self._ffi
            cap = max(16, count)
            s["cap"] = cap
            s["offsets"] = array.array("Q", bytes(8 * (cap + 1)))
            s["offsets_cd"] = ffi.from_buffer("unsigned long long[]", s["offsets"])
            s["roffsets"] = array.array("Q", bytes(8 * (cap + 1)))
            s["roffsets_cd"] = ffi.from_buffer(
                "unsigned long long[]", s["roffsets"]
            )
            s["meta"] = array.array("q", bytes(80 * cap))
            s["meta_cd"] = ffi.from_buffer("long long[]", s["meta"])
            s["chains"] = bytearray(32 * cap)
            s["chains_cd"] = ffi.from_buffer(s["chains"])
            s["meta1"] = array.array("q", bytes(64))
            s["meta1_cd"] = ffi.from_buffer("long long[]", s["meta1"])
            s["seq_io"] = array.array("q", bytes(8))
            s["seq_io_cd"] = ffi.from_buffer("long long[]", s["seq_io"])
            s["chain_io"] = bytearray(32)
            s["chain_io_cd"] = ffi.from_buffer(s["chain_io"])
        return s

    def _byte_scratch(self, s: dict, key: str, size: int):
        """A per-thread output bytearray of at least ``size`` bytes plus
        its cached cdata handle (grown geometrically on demand)."""
        buf = s.get(key)
        if buf is None or len(buf) < size:
            buf = bytearray(max(1024, 2 * size))
            s[key] = buf
            s[key + "_cd"] = self._ffi.from_buffer(buf)
        return buf, s[key + "_cd"]

    def blocks(self, prefix: bytes, nblocks: int) -> bytes:
        out = bytearray(nblocks * 32)
        self._lib.lcm_ctr_keystream(
            prefix, len(prefix), 0, nblocks, self._ffi.from_buffer(out)
        )
        return bytes(out)

    def sha256_many(self, segments: list) -> list[bytes]:
        """SHA-256 digests of every segment in one C call."""
        offsets = array.array(
            "Q", chain((0,), accumulate(map(len, segments)))
        )
        out = bytearray(32 * len(segments))
        self._lib.lcm_sha256_batch(
            _join(segments),
            self._ffi.from_buffer("unsigned long long[]", offsets),
            len(segments),
            self._ffi.from_buffer(out),
        )
        view = bytes(out)
        return [view[start : start + 32] for start in range(0, len(view), 32)]

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
        exponent_bytes = exponent.to_bytes((exponent.bit_length() + 7) // 8, "big")
        out = bytearray(256)
        status = self._lib.lcm_modexp(
            mont[0], mont[1], mont[2],
            (base % modulus).to_bytes(256, "big"),
            exponent_bytes, len(exponent_bytes),
            self._ffi.from_buffer(out),
        )
        return int.from_bytes(out, "big") if status == 0 else None

    def seal_boxes(
        self, enc_key: bytes, mac_key: bytes, nonces: list[bytes],
        frame: bytes, plaintexts: list,
    ) -> list[bytes]:
        """A whole batch of AEAD boxes in one C call."""
        offsets = array.array(
            "Q", chain((0,), accumulate(map(len, plaintexts)))
        )
        out = bytearray(offsets[-1] + 28 * len(plaintexts))
        self._lib.lcm_seal_boxes(
            enc_key, mac_key,
            _join(nonces),
            frame, len(frame),
            _join(plaintexts),
            self._ffi.from_buffer("unsigned long long[]", offsets),
            len(plaintexts),
            self._ffi.from_buffer(out),
        )
        view = bytes(out)
        boxes = []
        cursor = 0
        for index in range(len(plaintexts)):
            size = offsets[index + 1] - offsets[index] + 28
            boxes.append(view[cursor : cursor + size])
            cursor += size
        return boxes

    def open_boxes(
        self, enc_key: bytes, mac_key: bytes, frame: bytes, boxes: list
    ) -> "tuple[list[bytes] | None, int]":
        """Batch verify-then-decrypt in one C call.

        Returns ``(plaintexts, -1)`` on success or ``(None, index)`` with
        the first bad box's index; MAC verification of every box happens
        before any plaintext is produced (all-or-nothing).
        """
        offsets = array.array(
            "Q", chain((0,), accumulate(map(len, boxes)))
        )
        for index, box in enumerate(boxes):
            if len(box) < 28:
                return None, index
        out = bytearray(offsets[-1] - 28 * len(boxes))
        status = self._lib.lcm_open_boxes(
            enc_key, mac_key,
            frame, len(frame),
            _join(boxes),
            self._ffi.from_buffer("unsigned long long[]", offsets),
            len(boxes),
            self._ffi.from_buffer(out),
        )
        if status != 0:
            return None, -status - 1
        view = bytes(out)
        plaintexts = []
        cursor = 0
        for index in range(len(boxes)):
            size = offsets[index + 1] - offsets[index] - 28
            plaintexts.append(view[cursor : cursor + size])
            cursor += size
        return plaintexts, -1

    def seal_invoke(
        self, enc_key: bytes, mac_key: bytes, nonce: bytes, frame: bytes,
        prefix: bytes, tc: int, hc: bytes, op: bytes, cid: int, retry: bool,
    ) -> bytes | None:
        """Canonical INVOKE encode + seal in one C call (None: fall back)."""
        size = 80 + len(prefix) + len(hc) + len(op)
        out, out_cd = self._byte_scratch(self._scratch.__dict__, "seal", size)
        status = self._lib.lcm_seal_invoke(
            enc_key, mac_key, nonce,
            frame, len(frame),
            prefix, len(prefix),
            tc, hc, len(hc), op, len(op),
            cid, 1 if retry else 0,
            out_cd,
        )
        return bytes(memoryview(out)[:size]) if status == 0 else None

    def open_reply(
        self, enc_key: bytes, mac_key: bytes, frame: bytes, prefix: bytes, box
    ):
        """Authenticate + decrypt + parse a REPLY in one C call.

        Returns ``(plaintext, meta)`` on a canonical parse, ``(plaintext,
        None)`` when authentic but non-canonical (generic codec
        re-parses), ``(None, None)`` on authentication failure.
        """
        size = len(box)
        if size < 28:
            return None, None
        s = self._batch_scratch(1)
        out, out_cd = self._byte_scratch(s, "ropen", size - 28)
        if type(box) is not bytes:
            box = self._ffi.from_buffer(box)
        status = self._lib.lcm_open_reply(
            enc_key, mac_key,
            frame, len(frame),
            prefix, len(prefix),
            box, size,
            out_cd,
            s["meta1_cd"],
        )
        if status == -1:
            return None, None
        if status == -2:
            return bytes(memoryview(out)[: size - 28]), None
        # callers (unseal_reply) consume meta before any further backend
        # call on this thread, so handing out the scratch array is safe
        return bytes(memoryview(out)[: size - 28]), s["meta1"]

    def invoke_batch_open(
        self, enc_key: bytes, mac_key: bytes, frame: bytes, prefix: bytes,
        boxes: list, ids, ack, seq, chains, acks, quorum: int,
        sequence: int, chain_value: bytes,
    ):
        """Whole-batch INVOKE open + Alg. 1 verification in one C call.

        Mutates the packed V columns (``ack``/``seq``/``chains``/``acks``)
        in place for accepted operations.  Returns ``(status, plaintext,
        meta, chains_out, sequence, chain)`` — status as documented on the
        C function (count, or -1000-i / -2000-i).
        """
        ffi = self._ffi
        count = len(boxes)
        for index, box in enumerate(boxes):
            if len(box) < 28:
                return -1000 - index, b"", None, b"", sequence, chain_value
        s = self._batch_scratch(count)
        offsets = s["offsets"]
        total = 0
        for index, box in enumerate(boxes):
            total += len(box)
            offsets[index + 1] = total
        pt_size = total - 28 * count
        out_pt, out_pt_cd = self._byte_scratch(s, "pt", pt_size)
        s["seq_io"][0] = sequence
        s["chain_io"][0:32] = chain_value
        status = self._lib.lcm_invoke_batch_open(
            enc_key, mac_key,
            frame, len(frame),
            prefix, len(prefix),
            _join(boxes),
            s["offsets_cd"],
            count,
            out_pt_cd,
            s["meta_cd"],
            s["chains_cd"],
            ffi.from_buffer("long long[]", ids), len(ids),
            ffi.from_buffer("long long[]", ack),
            ffi.from_buffer("long long[]", seq),
            ffi.from_buffer(chains),
            ffi.from_buffer("long long[]", acks),
            quorum,
            s["seq_io_cd"],
            s["chain_io_cd"],
        )
        return (
            status,
            bytes(memoryview(out_pt)[:pt_size]),
            s["meta"],
            bytes(memoryview(s["chains"])[: 32 * count]),
            s["seq_io"][0],
            bytes(s["chain_io"]),
        )

    def invoke_batch_reply(
        self, enc_key: bytes, mac_key: bytes, frame: bytes, prefix: bytes,
        meta, chains_out: bytes, plain: bytes, results: list,
        nonce_seed: bytes, nonce_counter: int,
    ) -> tuple[list[bytes], list[bytes], list[bytes]] | None:
        """Whole-batch REPLY encode + seal in one C call (None: fall back).

        Returns ``(boxes, row_blob_pieces, row_manifest_pieces)`` — the
        row pieces are the sealed-blob fragments for each reply's V row,
        built C-side while the box bytes are hot.
        """
        ffi = self._ffi
        count = len(results)
        s = self._batch_scratch(count)
        meta_cd = (
            s["meta_cd"]
            if meta is s["meta"]
            else ffi.from_buffer("long long[]", meta)
        )
        result_offsets = s["roffsets"]
        total = 0
        for index, result in enumerate(results):
            total += len(result)
            result_offsets[index + 1] = total
        base = 120 + len(prefix)
        sizes = [
            base + len(results[index]) + meta[10 * index + 7]
            for index in range(count)
        ]
        out_size = sum(sizes)
        rows_size = out_size + 61 * count
        manifests_size = 58 * count
        out, out_cd = self._byte_scratch(s, "out", out_size)
        out_rows, out_rows_cd = self._byte_scratch(s, "rows", rows_size)
        out_manifests, out_manifests_cd = self._byte_scratch(
            s, "manifests", manifests_size
        )
        status = self._lib.lcm_invoke_batch_reply(
            enc_key, mac_key,
            frame, len(frame),
            prefix, len(prefix),
            meta_cd, count,
            chains_out, plain,
            _join(results),
            s["roffsets_cd"],
            nonce_seed, nonce_counter,
            out_cd,
            out_rows_cd,
            out_manifests_cd,
        )
        if status != 0:
            return None
        view = bytes(memoryview(out)[:out_size])
        rows_view = bytes(memoryview(out_rows)[:rows_size])
        manifests_view = bytes(memoryview(out_manifests)[:manifests_size])
        boxes = []
        blobs = []
        manifests = []
        cursor = 0
        row_cursor = 0
        for index, size in enumerate(sizes):
            boxes.append(view[cursor : cursor + size])
            cursor += size
            row_size = 61 + size
            blobs.append(rows_view[row_cursor : row_cursor + row_size])
            row_cursor += row_size
            manifests.append(manifests_view[58 * index : 58 * index + 58])
        return boxes, blobs, manifests


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
        module = _cbuild.load(
            "_lcm_fastpath",
            [_HERE / "fastpath.c", _HERE / "fastpath.h"],
            wrap=_cffi_wrapper,
        )
        if module is None:
            return None
        backend = CBackend(module.ffi, module.lib)
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
                "(cffi or a C compiler is missing)"
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
