"""ShieldStore's untrusted bucket store.

Encrypted entries are chained per bucket in untrusted memory.  Each entry
holds the key's hash (for cheap scanning), the storage IV, and the sealed
``key || value`` blob whose trailing 16 bytes are the GCM tag -- the MAC
that the per-bucket MAC list (and through it the Merkle tree) protects.

The store counts how many bytes the server decrypts while scanning, which
is the measurable server-side cost Figure 5 attributes to ShieldStore.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError

__all__ = ["EncryptedEntry", "BucketStore"]

_TAG_SIZE = 16


@dataclass
class EncryptedEntry:
    """One encrypted key-value record in untrusted memory."""

    key_hash: int
    iv: bytes
    sealed: bytes  # GCM(key || value) || tag

    @property
    def mac(self) -> bytes:
        """The entry's MAC: the GCM tag over its sealed blob."""
        return self.sealed[-_TAG_SIZE:]

    def size(self) -> int:
        """Untrusted bytes this entry occupies."""
        return len(self.iv) + len(self.sealed) + 8


class BucketStore:
    """Fixed-size array of entry chains in untrusted memory."""

    def __init__(self, num_buckets: int):
        if num_buckets < 1:
            raise ConfigurationError(
                f"need at least one bucket, got {num_buckets}"
            )
        self.num_buckets = num_buckets
        self._buckets: List[List[EncryptedEntry]] = [
            [] for _ in range(num_buckets)
        ]
        self.entry_count = 0

    def bucket_index(self, key_hash: int) -> int:
        """Map a key hash onto its bucket."""
        return key_hash % self.num_buckets

    def bucket(self, index: int) -> List[EncryptedEntry]:
        """The (mutable) chain of bucket ``index``."""
        self._check(index)
        return self._buckets[index]

    def mac_list(self, index: int) -> bytes:
        """Concatenated entry MACs of one bucket -- the Merkle leaf data."""
        self._check(index)
        return b"".join(entry.mac for entry in self._buckets[index])

    def append(self, index: int, entry: EncryptedEntry) -> None:
        """Chain a new entry into bucket ``index``."""
        self._check(index)
        self._buckets[index].append(entry)
        self.entry_count += 1

    def replace(self, index: int, position: int, entry: EncryptedEntry) -> None:
        """Overwrite the entry at ``position`` in bucket ``index``."""
        self._check(index)
        self._buckets[index][position] = entry

    def remove(self, index: int, position: int) -> EncryptedEntry:
        """Unchain and return the entry at ``position``."""
        self._check(index)
        entry = self._buckets[index].pop(position)
        self.entry_count -= 1
        return entry

    def chain_length(self, index: int) -> int:
        """Entries currently chained in bucket ``index``."""
        self._check(index)
        return len(self._buckets[index])

    def average_chain_length(self) -> float:
        """Mean entries per bucket (drives ShieldStore's scan cost)."""
        return self.entry_count / self.num_buckets

    def untrusted_bytes(self) -> int:
        """Total untrusted memory the entries occupy."""
        return sum(
            entry.size()
            for bucket in self._buckets
            for entry in bucket
        )

    def tamper(self, index: int, position: int, flip_at: int = 0) -> None:
        """Attack helper: flip one byte of a sealed entry in untrusted
        memory (what a rogue administrator could do)."""
        self._check(index)
        entry = self._buckets[index][position]
        blob = bytearray(entry.sealed)
        if not 0 <= flip_at < len(blob):
            raise ConfigurationError(f"flip offset {flip_at} out of range")
        blob[flip_at] ^= 0xFF
        entry.sealed = bytes(blob)

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_buckets:
            raise ConfigurationError(
                f"bucket {index} out of range [0, {self.num_buckets})"
            )
