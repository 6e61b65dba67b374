"""Binary container formats for keys and ciphertexts.

Two magics exist: ``MLAB`` for key material and ABE-level objects, ``MLCT``
for the hybrid (payload + encapsulation) container. Both carry a format
version and length-prefixed sections, and ``MLAB`` also the one scheme's
id byte, ``DEV_BACKEND_ID``; the exact layouts are documented in
FORMATS.md. Serialization is bit-exact: parsing and re-serializing any
object yields identical bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

from .errors import MalformedCiphertext

MAGIC_ABE = b"MLAB"
MAGIC_HYBRID = b"MLCT"
FORMAT_VERSION = 1
DEV_BACKEND_ID = 1  # the id byte of every MLAB container; any other is refused

KIND_MPK = 1
KIND_MSK = 2
KIND_USK = 3
KIND_CT = 4
KIND_HEADER = 5
KIND_LAYER = 6
KIND_LAYERED = 7

GCM_NONCE_BYTES = 12
GCM_TAG_BYTES = 16

_KIND_NAMES = {
    KIND_MPK: "master public key",
    KIND_MSK: "master secret key",
    KIND_USK: "user secret key",
    KIND_CT: "ABE ciphertext",
    KIND_HEADER: "ABE header",
    KIND_LAYER: "policy layer",
    KIND_LAYERED: "layered ciphertext",
}


def _check_prefix(data: bytes, magic: bytes) -> None:
    """Both magics are followed by at least 5 header bytes."""
    if len(data) < 9 or data[:4] != magic:
        raise MalformedCiphertext("bad magic")


def _write_sections(out: bytearray, sections: list[bytes]) -> None:
    for section in sections:
        out += struct.pack(">I", len(section))
        out += section


def _read_sections(data: bytes, offset: int, count: int) -> list[bytes]:
    """Read exactly ``count`` length-prefixed sections ending at len(data)."""
    sections: list[bytes] = []
    for _ in range(count):
        if offset + 4 > len(data):
            raise MalformedCiphertext("truncated section header")
        (length,) = struct.unpack_from(">I", data, offset)
        offset += 4
        if offset + length > len(data):
            raise MalformedCiphertext("truncated section")
        sections.append(data[offset:offset + length])
        offset += length
    if offset != len(data):
        raise MalformedCiphertext("trailing bytes after container")
    return sections


def pack_container(kind: int, sections: list[bytes]) -> bytes:
    out = bytearray(MAGIC_ABE)
    out += struct.pack(">BBBH", FORMAT_VERSION, DEV_BACKEND_ID, kind, len(sections))
    _write_sections(out, sections)
    return bytes(out)


def _abe_header(data: bytes) -> tuple[int, int]:
    """The kind and section count of an ``MLAB`` container whose magic,
    version byte and id byte are right; raises MalformedCiphertext."""
    _check_prefix(data, MAGIC_ABE)
    version, backend, kind, n_sections = struct.unpack_from(">BBBH", data, 4)
    if version != FORMAT_VERSION:
        raise MalformedCiphertext(f"unsupported format version {version}")
    if backend != DEV_BACKEND_ID:
        raise MalformedCiphertext(f"unknown backend id {backend}")
    return kind, n_sections


def unpack_container(data: bytes, kind: int, count: int | None = None) -> list[bytes]:
    """The sections of an ``MLAB`` container of the given kind, exactly
    ``count`` of them when given; raises MalformedCiphertext."""
    found_kind, n_sections = _abe_header(data)
    sections = _read_sections(data, 9, n_sections)
    if found_kind != kind:
        raise MalformedCiphertext(
            f"expected {_KIND_NAMES.get(kind, kind)}, "
            f"found {_KIND_NAMES.get(found_kind, found_kind)}")
    if count is not None and n_sections != count:
        raise MalformedCiphertext(
            f"{_KIND_NAMES[kind]} needs {count} sections, found {n_sections}")
    return sections


def container_kind(data: bytes) -> int:
    """The kind byte of an ``MLAB`` container, checked as far as
    `_abe_header` checks it."""
    return _abe_header(data)[0]


# ---------------------------------------------------------------------------
# ABE ciphertext (base encapsulation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbeCiphertext:
    """Base ABE ciphertext: a self-describing header and an opaque body.

    The header is parseable independently of the body and stays stable
    under body changes; it doubles as the AEAD associated data binding
    the payload to this encapsulation.
    """

    header: bytes
    body: bytes

    def to_bytes(self) -> bytes:
        return pack_container(KIND_CT, [self.header, self.body])

    @classmethod
    def from_bytes(cls, data: bytes) -> "AbeCiphertext":
        header, body = unpack_container(data, KIND_CT, 2)
        return cls(header=header, body=body)

    @cached_property
    def header_fields(self) -> tuple[str, bytes, bytes]:
        """``parse_header(self.header)`` on first use. Not a field, so a damaged
        header raises only when read, and a failure is not cached."""
        return parse_header(self.header)


def parse_header(header: bytes) -> tuple[str, bytes, bytes]:
    """Split header bytes into (policy_text, salt, nonce)."""
    policy_bytes, salt, nonce = unpack_container(header, KIND_HEADER, 3)
    try:
        policy_text = policy_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedCiphertext("header policy text is not UTF-8") from exc
    if len(nonce) != GCM_NONCE_BYTES:
        raise MalformedCiphertext("header nonce has wrong width")
    return policy_text, salt, nonce


# ---------------------------------------------------------------------------
# Layered ciphertext
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayeredAbeCiphertext:
    """Base encapsulation wrapped in zero or more removable policy layers.

    ``body`` holds the outermost bytes (the base ciphertext when no layer
    is present). ``layer_policies`` lists canonical policy texts in wrap
    order, outermost last; it is audit metadata (policies are not secret
    in ciphertext-policy ABE) and its length defines ``n_layers``.
    """

    body: bytes
    layer_policies: tuple[str, ...] = ()

    @property
    def n_layers(self) -> int:
        return len(self.layer_policies)

    def base_ciphertext(self) -> AbeCiphertext:
        """The innermost ciphertext; only meaningful when n_layers == 0."""
        if self.n_layers != 0:
            raise MalformedCiphertext("layers still present above the base")
        return AbeCiphertext.from_bytes(self.body)

    def to_bytes(self) -> bytes:
        sections = [self.body] + [p.encode("utf-8") for p in self.layer_policies]
        return pack_container(KIND_LAYERED, sections)

    @classmethod
    def from_bytes(cls, data: bytes) -> "LayeredAbeCiphertext":
        sections = unpack_container(data, KIND_LAYERED)
        if not sections:
            raise MalformedCiphertext("layered container is empty")
        body = sections[0]
        try:
            policies = tuple(s.decode("utf-8") for s in sections[1:])
        except UnicodeDecodeError as exc:
            raise MalformedCiphertext("layer policy text is not UTF-8") from exc
        inner_kind = container_kind(body)
        if policies and inner_kind != KIND_LAYER:
            raise MalformedCiphertext("layer count does not match body")
        if not policies and inner_kind != KIND_CT:
            raise MalformedCiphertext("base body is not an ABE ciphertext")
        return cls(body=body, layer_policies=policies)


# ---------------------------------------------------------------------------
# Hybrid container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AesGcmRecord:
    """One AEAD payload: 96-bit nonce, ciphertext body, 128-bit tag."""

    nonce: bytes
    body: bytes
    tag: bytes

    def __post_init__(self) -> None:
        if len(self.nonce) != GCM_NONCE_BYTES:
            raise ValueError("nonce must be 96 bits")
        if len(self.tag) != GCM_TAG_BYTES:
            raise ValueError("tag must be 128 bits")


@dataclass(frozen=True)
class HybridCiphertext:
    """Pairing of the symmetric payload ciphertext and the (possibly
    layered) encapsulation of its key."""

    ct_aes: AesGcmRecord
    ct_abe: LayeredAbeCiphertext

    @property
    def n_layers(self) -> int:
        return self.ct_abe.n_layers

    def to_bytes(self) -> bytes:
        out = bytearray(MAGIC_HYBRID)
        out += struct.pack(">BI", FORMAT_VERSION, self.n_layers)
        _write_sections(out, [self.ct_abe.to_bytes(), self.ct_aes.nonce,
                              self.ct_aes.tag, self.ct_aes.body])
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "HybridCiphertext":
        _check_prefix(data, MAGIC_HYBRID)
        version, n_layers = struct.unpack_from(">BI", data, 4)
        if version != FORMAT_VERSION:
            raise MalformedCiphertext(f"unsupported format version {version}")
        layered_bytes, nonce, tag, body = _read_sections(data, 9, 4)
        layered = LayeredAbeCiphertext.from_bytes(layered_bytes)
        if layered.n_layers != n_layers:
            raise MalformedCiphertext("layer count field disagrees with container")
        try:
            record = AesGcmRecord(nonce=nonce, body=body, tag=tag)
        except ValueError as exc:
            raise MalformedCiphertext(str(exc)) from exc
        return cls(ct_aes=record, ct_abe=layered)
