"""Deterministic randomness helpers.

Every component that needs randomness derives its own stream from a root seed
and a string label, so adding a component never perturbs the draws of another
and whole experiments replay bit-identically.
"""

from __future__ import annotations

import hashlib
import random


class SeededRng(random.Random):
    """A ``random.Random`` seeded from (root_seed, label).

    >>> a = SeededRng(42, "nic0")
    >>> b = SeededRng(42, "nic0")
    >>> a.random() == b.random()
    True
    """

    def __new__(cls, root_seed: int, label: str) -> "SeededRng":
        # Before Python 3.11, random.Random.__new__ rejects a second
        # argument even in a subclass; __init__ does the seeding.
        return super().__new__(cls)

    def __init__(self, root_seed: int, label: str):
        digest = hashlib.sha256(f"{root_seed}:{label}".encode()).digest()
        super().__init__(int.from_bytes(digest[:8], "big"))
        self.root_seed = root_seed
        self.label = label

    def derive(self, sublabel: str) -> "SeededRng":
        """Create an independent child stream."""
        return SeededRng(self.root_seed, f"{self.label}/{sublabel}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeededRng(seed={self.root_seed}, label={self.label!r})"
