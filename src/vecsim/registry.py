"""Entity registry and path-pattern views."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any

from .maths import check_count

logger = logging.getLogger(__name__)


class EmptyViewError(LookupError):
    """Raised when a view pattern matches no registered entity."""


@dataclass(frozen=True)
class EntityEntry:
    path: str
    kind: str
    env_index: int
    payload: Any = None


@dataclass(frozen=True)
class EntityView:
    """Entities matching one path pattern, in ascending environment order."""

    pattern: str
    entries: tuple[EntityEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def env_indices(self) -> list[int]:
        return [e.env_index for e in self.entries]

    @property
    def paths(self) -> list[str]:
        return [e.path for e in self.entries]

    @property
    def payloads(self) -> list[Any]:
        return [e.payload for e in self.entries]


def _pattern_matches(pattern_parts: list[str], path_parts: list[str]) -> bool:
    # `*` matches exactly one path segment; no `**`, no partial-segment globs.
    if len(pattern_parts) != len(path_parts):
        return False
    return all(p == "*" or p == s for p, s in zip(pattern_parts, path_parts))


class EntityRegistry:
    """Maps slash-separated entity paths to simulation objects.

    Paths are unique; each entity belongs to exactly one environment slot.
    Views created from the same registry state are deterministic: entities
    are returned sorted by environment index, with registration order
    breaking ties.
    """

    def __init__(self, env_count: int):
        self.env_count = check_count("env_count", env_count)
        self._entries: dict[str, EntityEntry] = {}

    def register(self, path: str, kind: str, env_index: int, payload: Any = None) -> EntityEntry:
        if not path.startswith("/"):
            raise ValueError(f"entity path must be absolute: {path!r}")
        if path in self._entries:
            raise ValueError(f"entity path already registered: {path!r}")
        env_index = check_count("env_index", env_index, 0)
        if env_index >= self.env_count:
            raise ValueError(f"env_index {env_index} out of range for {self.env_count} envs")
        entry = EntityEntry(path, kind, env_index, payload)
        self._entries[path] = entry
        return entry

    def create_view(self, pattern: str, *, required: bool = True) -> EntityView:
        """Collect all entities whose path matches ``pattern``.

        ``*`` matches one path segment. A pattern with zero matches raises
        :class:`EmptyViewError` unless ``required=False``, in which case a
        warning is logged and an empty view returned.
        """
        parts = pattern.strip("/").split("/")
        matched = [
            e
            for e in self._entries.values()
            if _pattern_matches(parts, e.path.strip("/").split("/"))
        ]
        if not matched:
            if required:
                raise EmptyViewError(f"pattern {pattern!r} matched no entities")
            logger.warning("pattern %r matched no entities", pattern)
        # entries are never removed, so dict order is registration order
        # and the stable sort keeps it among entities of one env
        matched.sort(key=lambda e: e.env_index)
        return EntityView(pattern, tuple(matched))
