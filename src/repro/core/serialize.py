"""Serialization for parameters, keys, plaintexts, ciphertexts and tickets.

Every kind is one flat little-endian blob — like SEAL's, a fixed header
followed by the raw limbs:

.. code-block:: text

    header   magic b"RPRB" | version u16 | kind u8 | flags u8 | n_arrays u32
             | tail_len u32 | scale f64 | crc32 u32                   (28 B)
    arrays   per array: dtype u8 (1 uint64, 2 int64) | ndim u8
             | shape u32 x 4, unused dims 0                           (18 B)
    tail     UTF-8 JSON with the non-array fields of params, Galois keys
             and session tickets (empty for the other kinds)
    payload  each array's C-order bytes, back to back

Kinds: 1 params, 2 plaintext, 3 ciphertext, 4 public key, 5 secret key,
6 relin key, 7 Galois keys, 8 session ticket.  Flag bit 0 is ``is_ntt``.
The CRC32 (``zlib.crc32``) covers every other byte, so a flipped limb,
scale or shape byte is refused, not decoded into a different object.
Loaders raise ``ValueError`` on any other magic, version, kind, length
or checksum (the npz container of format version 1 included) and return
writable copies, never views of the input.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import BinaryIO

import numpy as np

from .ciphertext import Ciphertext
from .keys import GaloisKeys, KSwitchKey, PublicKey, RelinKey, SecretKey
from .params import CkksParameters
from .plaintext import Plaintext

__all__ = [
    "FORMAT_VERSION", "to_bytes", "from_bytes",
    "save_params", "load_params", "save_ciphertext", "load_ciphertext",
    "save_plaintext", "load_plaintext", "save_public_key", "load_public_key",
    "save_secret_key_insecure", "load_secret_key",
    "save_relin_key", "load_relin_key", "save_galois_keys", "load_galois_keys",
    "SessionTicket", "save_session_ticket", "load_session_ticket",
    "TicketError", "StaleTicketError",
]

FORMAT_VERSION = 2

_HEAD = struct.Struct("<4sHBBIIdI")
_CRC_AT = _HEAD.size - 4
_ARRAY = struct.Struct("<BB4I")
#: Kind and dtype codes are 1 + the index in these tuples.
_KINDS = ("params", "plaintext", "ciphertext", "public_key", "secret_key",
          "relin_key", "galois_keys", "session_ticket")
_DTYPES = (np.dtype("<u8"), np.dtype("<i8"))


def _pack(fp, kind, arrays=(), *, scale=0.0, is_ntt=False, meta=None):
    arrays = [np.ascontiguousarray(a, a.dtype.newbyteorder("<"))
              for a in arrays]
    tail = json.dumps(meta).encode() if meta else b""
    body = [b"".join(_ARRAY.pack(_DTYPES.index(a.dtype) + 1, a.ndim,
                                 *a.shape, *(0,) * (4 - a.ndim))
                     for a in arrays),
            tail, *(memoryview(a).cast("B") for a in arrays)]
    head = _HEAD.pack(b"RPRB", FORMAT_VERSION, _KINDS.index(kind) + 1,
                      int(is_ntt), len(arrays), len(tail), scale, 0)
    crc = zlib.crc32(head[:_CRC_AT])
    for part in body:
        crc = zlib.crc32(part, crc)
    fp.writelines([head[:_CRC_AT], crc.to_bytes(4, "little"), *body])


def _unpack(src, kind, count=None):
    """Check one ``kind`` blob; return ``(arrays, scale, is_ntt, meta)``."""
    if not isinstance(src, (bytes, bytearray, memoryview)):
        src = src.read()
    buf = memoryview(src).cast("B")
    size = len(buf)
    if buf[:4] == b"PK\x03\x04":
        raise ValueError(f"npz container of format version 1 unsupported "
                         f"(expected format version {FORMAT_VERSION})")
    if size < _HEAD.size:
        raise ValueError(f"truncated {kind}: {size} bytes")
    magic, version, code, flags, n_arrays, tail_len, scale, crc = (
        _HEAD.unpack_from(buf))
    if magic != b"RPRB":
        raise ValueError(f"not a repro serialization (magic {magic!r})")
    if version != FORMAT_VERSION:
        raise ValueError(f"format version {version} unsupported "
                         f"(expected {FORMAT_VERSION})")
    found = _KINDS[code - 1] if 1 <= code <= len(_KINDS) else code
    if found != kind:
        raise ValueError(f"expected a {kind!r}, found {found!r}")
    if zlib.crc32(buf[_HEAD.size:], zlib.crc32(buf[:_CRC_AT])) != crc:
        raise ValueError(f"{kind} checksum mismatch: corrupt serialization")
    if count is not None and n_arrays != count:
        raise ValueError(f"a {kind} holds {count} arrays, found {n_arrays}")
    off = _HEAD.size + n_arrays * _ARRAY.size
    if off + tail_len > size:
        raise ValueError(f"truncated {kind}: array table and tail overrun")
    table = _ARRAY.iter_unpack(buf[_HEAD.size:off])
    meta = (json.loads(str(buf[off:off + tail_len], "utf-8"))
            if tail_len else {})
    if not isinstance(meta, dict):
        raise ValueError(f"{kind} metadata must be a JSON object")
    off += tail_len
    arrays = []
    for dcode, ndim, *dims in table:
        if not 1 <= dcode <= len(_DTYPES):
            raise ValueError(f"unknown dtype code {dcode} in a {kind}")
        dtype, n = _DTYPES[dcode - 1], math.prod(dims[:ndim])
        if n * dtype.itemsize > size - off:
            raise ValueError(f"truncated {kind}: array payload overruns")
        arrays.append(np.frombuffer(buf, dtype, n, off)
                      .reshape(dims[:ndim]).copy())
        off += n * dtype.itemsize
    if off != size:
        raise ValueError(f"{size - off} trailing bytes after a {kind}")
    return arrays, scale, bool(flags & 1), meta


def save_params(params: CkksParameters, fp: BinaryIO) -> None:
    _pack(fp, "params", scale=params.scale,
          meta={"degree": params.poly_modulus_degree,
                "bits": list(params.coeff_modulus_bits)})


def load_params(fp: BinaryIO) -> CkksParameters:
    _, scale, _, meta = _unpack(fp, "params", count=0)
    return CkksParameters(poly_modulus_degree=meta.get("degree"),
                          coeff_modulus_bits=meta.get("bits"), scale=scale)


def save_plaintext(pt: Plaintext, fp: BinaryIO) -> None:
    _pack(fp, "plaintext", [pt.data], scale=pt.scale, is_ntt=pt.is_ntt)


def load_plaintext(fp: BinaryIO) -> Plaintext:
    (data,), scale, is_ntt, _ = _unpack(fp, "plaintext", count=1)
    return Plaintext(data, scale, is_ntt)


def save_ciphertext(ct: Ciphertext, fp: BinaryIO) -> None:
    _pack(fp, "ciphertext", [ct.data], scale=ct.scale, is_ntt=ct.is_ntt)


def load_ciphertext(fp: BinaryIO) -> Ciphertext:
    (data,), scale, is_ntt, _ = _unpack(fp, "ciphertext", count=1)
    return Ciphertext(data, scale, is_ntt)


def save_public_key(pk: PublicKey, fp: BinaryIO) -> None:
    _pack(fp, "public_key", [pk.data])


def load_public_key(fp: BinaryIO) -> PublicKey:
    return PublicKey(data=_unpack(fp, "public_key", count=1)[0][0])


def save_secret_key_insecure(sk: SecretKey, fp: BinaryIO) -> None:
    """Serialize the secret key.  The name is deliberate: callers must
    acknowledge that the output grants decryption capability."""
    _pack(fp, "secret_key", [sk.ntt_rows, sk.signed_coeffs])


def load_secret_key(fp: BinaryIO) -> SecretKey:
    (rows, coeffs), _, _, _ = _unpack(fp, "secret_key", count=2)
    return SecretKey(ntt_rows=rows, signed_coeffs=coeffs)


def save_relin_key(rlk: RelinKey, fp: BinaryIO) -> None:
    _pack(fp, "relin_key", rlk.key.data)


def load_relin_key(fp: BinaryIO) -> RelinKey:
    return RelinKey(key=KSwitchKey(data=_unpack(fp, "relin_key")[0]))


def save_galois_keys(gk: GaloisKeys, fp: BinaryIO) -> None:
    elts = sorted(gk.keys)
    _pack(fp, "galois_keys", [a for e in elts for a in gk.keys[e].data],
          meta={"elts": elts,
                "counts": [len(gk.keys[e].data) for e in elts]})


def load_galois_keys(fp: BinaryIO) -> GaloisKeys:
    arrays, _, _, meta = _unpack(fp, "galois_keys")
    elts, counts = meta.get("elts"), meta.get("counts")
    if (not isinstance(elts, list) or not isinstance(counts, list)
            or len(elts) != len(counts) or sum(counts) != len(arrays)):
        raise ValueError("galois_keys metadata does not match its arrays")
    ends = list(accumulate(counts))
    return GaloisKeys(keys={elt: KSwitchKey(data=arrays[end - n:end])
                            for elt, n, end in zip(elts, counts, ends)})


# --- serving sessions -------------------------------------------------------


class TicketError(ValueError):
    """A session ticket failed to load or validate (corrupt/malformed):
    a bad checksum, field or type raises this, never a ``KeyError``."""


class StaleTicketError(TicketError):
    """A well-formed ticket that no longer matches a live session."""


@dataclass(frozen=True)
class SessionTicket:
    """Opaque resumable handle for a serving session (no key material).

    Issued by the server's session handshake (``repro.server.sessions``)
    and echoed back by the client to resume: holds only public
    identifiers, so a leaked ticket grants nothing beyond what the
    client id already names.
    """

    client_id: str
    session_id: str
    issued_us: float = 0.0

    def __post_init__(self) -> None:
        if not self.client_id or not self.session_id:
            raise ValueError("session ticket needs client_id and session_id")


def save_session_ticket(ticket: SessionTicket, fp: BinaryIO) -> None:
    _pack(fp, "session_ticket", meta=asdict(ticket))


def load_session_ticket(fp: BinaryIO) -> SessionTicket:
    """Load + validate a ticket; raises :class:`TicketError` when bad.

    Validation is strict — magic/version/kind/checksum via ``_unpack``,
    then field bounds: non-empty string ids, no ``':'`` in the client id
    (the server-side keyspace separator), a finite non-negative issue
    instant.  A ticket is client-presented input, so it fails closed.
    """
    try:
        meta = _unpack(fp, "session_ticket", count=0)[3]
    except ValueError as exc:
        raise TicketError(str(exc)) from None
    client_id, session_id = meta.get("client_id"), meta.get("session_id")
    issued_us = meta.get("issued_us", 0.0)
    if not isinstance(client_id, str) or not client_id:
        raise TicketError("session ticket needs a non-empty client_id")
    if ":" in client_id:
        raise TicketError("session ticket client_id must not contain ':'")
    if not isinstance(session_id, str) or not session_id:
        raise TicketError("session ticket needs a non-empty session_id")
    if (isinstance(issued_us, bool)
            or not isinstance(issued_us, (int, float))
            or not math.isfinite(issued_us) or issued_us < 0):
        raise TicketError(f"session ticket issued_us must be a finite "
                          f"non-negative number, got {issued_us!r}")
    return SessionTicket(client_id=client_id, session_id=session_id,
                         issued_us=float(issued_us))


class _Chunks(list):
    """A ``to_bytes`` sink: one copy per array (``BytesIO`` recopies)."""
    writelines = list.extend


def to_bytes(saver, obj) -> bytes:
    """Serialize ``obj`` with one of the ``save_*`` functions to bytes.

    The wire-format primitive of :mod:`repro.server`: requests and
    responses frame these byte blobs with a JSON header.
    """
    chunks = _Chunks()
    saver(obj, chunks)
    return b"".join(chunks)


def from_bytes(loader, data):
    """Deserialize bytes-like ``data`` from :func:`to_bytes` with a
    ``load_*``, in place: only the decoded arrays are copied out."""
    return loader(memoryview(data))


def roundtrip_bytes(obj, saver, loader):
    """Helper: serialize to memory and back (used by tests)."""
    return from_bytes(loader, to_bytes(saver, obj))
