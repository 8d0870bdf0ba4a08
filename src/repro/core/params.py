"""The single parameter-resolution seam: explicit > wisdom > defaults.

Every plan-less transform call (``sfft(x, k)``, ``sfft_batch(stack, k)``)
routes its tuned knobs through :func:`resolve_sfft_config` before touching
the plan cache.  Precedence, highest first:

1. **explicit kwargs** — any derivation override passed by the caller
   pins the configuration verbatim;
2. **wisdom store** — a fresh ``repro.wisdom/1`` entry for the workload
   class (``REPRO_WISDOM`` names the store; see :mod:`repro.tune.wisdom`);
   entries whose plan fingerprint no longer matches current derivation
   code are *stale* and skipped;
3. **paper defaults** — :func:`~repro.core.parameters.derive_parameters`
   untouched.

Consumption is observable: when a wisdom store is configured, every
resolution increments exactly one of ``sfft.wisdom.hit`` /
``sfft.wisdom.miss`` / ``sfft.wisdom.stale`` on the **global** metrics
registry (never on a per-run registry: run registries keep CPU/GPU metric
name parity, and the device model has no resolution step), and the chosen
``source`` string is what run records echo as ``config_source``.
"""

from __future__ import annotations

import inspect
import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from ..errors import ParameterError
from .parameters import derive_parameters

__all__ = [
    "ENV_WISDOM",
    "RESOLUTION_SOURCES",
    "ResolvedConfig",
    "reject_plan_overrides",
    "resolve_sfft_config",
]

ENV_WISDOM = "REPRO_WISDOM"

#: Where a resolved configuration can come from, highest precedence first.
RESOLUTION_SOURCES = ("explicit", "wisdom", "default")

#: The derivation overrides a plan-less call may pass: every keyword of
#: :func:`~repro.core.parameters.derive_parameters` (``n``/``k`` are the
#: call's own).
_DERIVATION_KEYS = frozenset(
    inspect.signature(derive_parameters).parameters
) - {"n", "k"}


def _reject_unknown(options: Mapping[str, Any]) -> None:
    unknown = sorted(set(options) - _DERIVATION_KEYS)
    if unknown:
        raise ParameterError(f"unknown options {unknown}")


def reject_plan_overrides(plan: Any, k: int | None, seed: Any,
                          options: Mapping[str, Any]) -> None:
    """The explicit-plan check: a call that passes ``plan=`` takes no
    derivation overrides, no ``seed`` (the plan has drawn its
    permutations) and no ``k`` other than ``plan.k``; unknown keys are
    named as unknown first."""
    _reject_unknown(options)
    if options:
        raise ParameterError(
            f"unexpected options {sorted(options)}: plan derivation "
            f"overrides do not apply to an explicit plan"
        )
    if seed is not None:
        raise ParameterError(
            "seed= does not apply to an explicit plan: its permutations "
            "are already drawn"
        )
    if k is not None and k != plan.k:
        raise ParameterError(f"k={k} differs from the plan's k={plan.k}")


@dataclass(frozen=True)
class ResolvedConfig:
    """One resolution verdict: the overrides to apply and their provenance.

    ``overrides`` feeds plan derivation (:func:`~repro.core.plan_cache.
    cached_plan`); ``workers`` only applies to batch calls, which are the
    surface that owns a worker pool.
    """

    source: str
    overrides: dict[str, Any] = field(default_factory=dict)
    workers: int = 1
    class_key: str | None = None


def _count(name: str) -> None:
    from ..obs import global_registry

    global_registry().counter(name).inc()


def _from_wisdom(n: int, k: int, *, batch_size: int, noise_class: str,
                 path: str) -> ResolvedConfig | None:
    """The wisdom leg: lookup, staleness check, metrics. ``None`` = miss."""
    from ..tune.wisdom import (
        is_stale,
        load_wisdom,
        lookup_records,
        wisdom_overrides,
    )

    record = lookup_records(
        load_wisdom(path), n, k,
        noise_class=noise_class, batch_size=batch_size,
    )
    if record is None:
        _count("sfft.wisdom.miss")
        return None
    if is_stale(record, n, k):
        _count("sfft.wisdom.stale")
        return None
    _count("sfft.wisdom.hit")
    return ResolvedConfig(
        source="wisdom",
        overrides=wisdom_overrides(record),
        workers=int(record["config"].get("workers", 1) or 1),
        class_key=record["class"],
    )


def resolve_sfft_config(
    n: int,
    k: int,
    *,
    batch_size: int = 1,
    noise_class: str = "exact",
    explicit: dict[str, Any] | None = None,
    comb_width: None = None,
    wisdom_path: str | None = None,
) -> ResolvedConfig:
    """Resolve the tuned knobs for one ``(n, k)`` call site.

    ``explicit`` is the caller's derivation-override dict (possibly
    empty); any entry short-circuits the whole chain, so passing
    overrides always behaves exactly as before wisdom existed.
    ``wisdom_path`` overrides ``$REPRO_WISDOM`` (mostly for tests); an
    empty string disables the wisdom leg outright.  A key that is not a
    derivation override raises :class:`~repro.errors.ParameterError`
    before any lookup.  ``comb_width`` survives for callers written when
    the sFFT-2.0 Comb pre-filter existed: only ``None`` is accepted.
    """
    if comb_width is not None:
        raise ParameterError(
            f"comb_width={comb_width!r}: the Comb pre-filter was removed; "
            f"only None is accepted"
        )
    explicit = dict(explicit or {})
    _reject_unknown(explicit)
    if explicit:
        return ResolvedConfig(source="explicit", overrides=explicit)

    path = wisdom_path if wisdom_path is not None \
        else os.environ.get(ENV_WISDOM, "")
    if path:
        resolved = _from_wisdom(
            n, k, batch_size=batch_size, noise_class=noise_class,
            path=path,
        )
        if resolved is not None:
            return resolved
    return ResolvedConfig(source="default")
