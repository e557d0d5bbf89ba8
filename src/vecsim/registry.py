"""Entity registry, path-pattern views, and the per-step lazy cache."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Callable

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
        if not 0 <= env_index < self.env_count:
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


@dataclass
class _CacheSlot:
    value: Any = None
    stamp: int = -1


class LazyCache:
    """Per-attribute buffers recomputed at most once per simulation step.

    The owner advances the step counter; readers call :meth:`get` with a
    compute callback that only runs when the stored stamp is stale. An
    optional hook observes recomputes (used by tests to count them).
    """

    def __init__(self):
        self._slots: dict[str, _CacheSlot] = {}
        self._step = 0
        self.on_recompute: Callable[[str], None] | None = None

    def advance(self, steps: int = 1) -> None:
        self._step += steps

    def get(self, name: str, compute: Callable[[], Any]) -> Any:
        slot = self._slots.setdefault(name, _CacheSlot())
        if slot.stamp != self._step:
            slot.value = compute()
            slot.stamp = self._step
            if self.on_recompute is not None:
                self.on_recompute(name)
        return slot.value

    def invalidate(self, name: str | None = None) -> None:
        """Force recompute on next access, for one attribute or all."""
        if name is None:
            self._slots.clear()
        else:
            self._slots.pop(name, None)
