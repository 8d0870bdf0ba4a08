"""Transform plans: precomputed filters and permutation schedules.

Like FFTW/cuFFT, sFFT separates *planning* (design the flat-window filter,
derive bucket/loop counts, draw the per-loop permutations) from *execution*
(the six steps on actual data).  Filter synthesis is sub-linear too: it
designs the ``w`` taps and computes their response over the ``±2n/B``
offsets estimation reads by a chirp-z transform, in
``O((w + n/B) log(w + n/B))`` with no length-``n`` FFT or array (tiny
``n``, where that convolution is not shorter than ``n/4``, take the plain
length-``n`` FFT instead).  Reusing a plan across many transforms of the
same ``(n, k)`` shape still saves that work and the per-loop permutations;
the paper times executions against cuFFT/FFTW execution the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..filters.base import FlatFilter
from ..filters.flat_window import make_flat_window
from ..utils.rng import RngLike, ensure_rng
from .parameters import SfftParameters, derive_parameters
from .permutation import Permutation, random_permutation

__all__ = ["SfftPlan", "make_plan", "save_plan", "load_plan"]


@dataclass(frozen=True)
class SfftPlan:
    """Everything reusable across executions of one ``(n, k)`` shape.

    Attributes
    ----------
    params:
        Resolved :class:`~repro.core.parameters.SfftParameters`.
    filt:
        The flat-window filter (taps zero-padded to a multiple of ``B`` so
        the GPU loop-partition kernel gets whole rounds).
    permutations:
        One :class:`~repro.core.permutation.Permutation` per loop.  Fixed at
        plan time for reproducibility; :meth:`reseeded` draws a fresh
        schedule.
    """

    params: SfftParameters
    filt: FlatFilter
    permutations: tuple[Permutation, ...]
    #: lazily built execution workspace (gather matrix + scratch); never
    #: part of equality/serialization — pure derived state.
    _workspace: object = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n(self) -> int:
        """Signal size."""
        return self.params.n

    @property
    def k(self) -> int:
        """Target sparsity."""
        return self.params.k

    @property
    def B(self) -> int:
        """Bucket count."""
        return self.params.B

    @property
    def loops(self) -> int:
        """Number of inner loops ``L``."""
        return self.params.loops

    @property
    def rounds(self) -> int:
        """Inner-loop trip count of the loop-partition kernel (``w / B``)."""
        return -(-self.filt.width // self.params.B)

    @property
    def filter_capped(self) -> bool:
        """True when the filter support hit the signal length.

        In this regime (``n`` too small for the requested ``B``/tolerance,
        i.e. the problem is not meaningfully sparse) the passband narrows
        and value estimates degrade; locations are still recovered, but
        expect percent-level value errors instead of the design tolerance.
        """
        return self.filt.width >= self.params.n - self.params.B

    def workspace(self) -> "PlanWorkspace":
        """The plan's cached execution workspace (built on first use).

        The workspace precomputes the ``(L, w)`` gather-index matrix, the
        padded ``(rounds, B)`` tap matrix, and reusable scratch buffers —
        see :mod:`repro.core.workspace`.  Cached per plan object, so
        repeated executions of one plan allocate only a chunk-sized
        gather buffer on the hot path.
        Not thread-safe (shared scratch); concurrent executors should
        construct a private ``PlanWorkspace(plan)`` each.
        """
        if self._workspace is None:
            from .workspace import PlanWorkspace

            # frozen dataclass: the cache slot is set through the back door.
            object.__setattr__(self, "_workspace", PlanWorkspace(self))
        return self._workspace

    def reseeded(self, seed: RngLike = None) -> "SfftPlan":
        """Same filter and parameters, fresh random permutations.

        Returns a *new* plan object, so any cached :meth:`workspace` —
        whose gather matrix bakes in the old permutations — is left behind
        with the old plan rather than silently reused.
        """
        rng = ensure_rng(seed)
        perms = tuple(
            random_permutation(self.params.n, rng) for _ in range(self.params.loops)
        )
        return replace(self, permutations=perms)

    def describe(self) -> str:
        """Human-readable plan summary."""
        return (
            f"SfftPlan[{self.params.describe()} w={self.filt.width} "
            f"rounds={self.rounds}]"
        )


def make_plan(
    n: int,
    k: int,
    *,
    seed: RngLike = None,
    params: SfftParameters | None = None,
    **overrides,
) -> SfftPlan:
    """Create a plan for ``(n, k)``.

    ``overrides`` are forwarded to
    :func:`~repro.core.parameters.derive_parameters` (e.g. ``loops=8``,
    ``B=4096``, ``window="gaussian"``); alternatively pass a fully resolved
    ``params``.
    """
    if params is None:
        params = derive_parameters(n, k, **overrides)
    rng = ensure_rng(seed)
    filt = make_flat_window(
        params.n,
        params.B,
        window=params.window,
        tolerance=params.tolerance,
        lobefrac=params.lobefrac,
        pad_to_multiple=params.B,
    )
    perms = tuple(random_permutation(params.n, rng) for _ in range(params.loops))
    return SfftPlan(params=params, filt=filt, permutations=perms)


def save_plan(plan: SfftPlan, path) -> None:
    """Persist a plan to ``path`` (NumPy ``.npz``).

    Schema 2 stores the filter taps and their response window
    (``filter_response``, ``4n/B + 1`` entries); a saved plan reloads
    the exact filter and permutation schedule, exactly like FFTW wisdom.
    :func:`load_plan` also reads schema-1 files, whose length-``n``
    ``filter_freq`` it slices down to the window.
    """
    import numpy as np

    p = plan.params
    np.savez_compressed(
        path,
        schema=np.array([2]),
        n=p.n, k=p.k, B=p.B, loops=p.loops,
        vote_threshold=p.vote_threshold, select_count=p.select_count,
        window=np.array(p.window), tolerance=p.tolerance, lobefrac=p.lobefrac,
        loc_loops=np.array([-1 if p.loc_loops is None else p.loc_loops]),
        filter_time=plan.filt.time, filter_response=plan.filt.response,
        filter_box_width=plan.filt.box_width,
        sigmas=np.array([q.sigma for q in plan.permutations], dtype=np.int64),
        taus=np.array([q.tau for q in plan.permutations], dtype=np.int64),
    )


def load_plan(path) -> SfftPlan:
    """Reload a plan written by :func:`save_plan` (schema 1 or 2)."""
    import numpy as np

    from ..errors import ParameterError
    from ..filters.base import FlatFilter
    from ..filters.flat_window import response_reach
    from ..utils.modmath import mod_inverse
    from .parameters import SfftParameters

    with np.load(path, allow_pickle=False) as data:
        schema = int(data["schema"][0])
        if schema not in (1, 2):
            raise ParameterError(f"unsupported plan schema in {path!r}")
        params = SfftParameters(
            n=int(data["n"]), k=int(data["k"]), B=int(data["B"]),
            loops=int(data["loops"]),
            vote_threshold=int(data["vote_threshold"]),
            select_count=int(data["select_count"]),
            window=str(data["window"]),
            tolerance=float(data["tolerance"]),
            lobefrac=float(data["lobefrac"]),
            loc_loops=(
                None
                if "loc_loops" not in data or int(data["loc_loops"][0]) < 0
                else int(data["loc_loops"][0])
            ),
        )
        if schema == 1:
            # The length-n response; keep the window the plan reads.
            freq = data["filter_freq"]
            reach = response_reach(params.n, params.B)
            response = np.concatenate([freq[params.n - reach:],
                                       freq[: reach + 1]])
        else:
            response = np.array(data["filter_response"])
        filt = FlatFilter(
            n=params.n,
            time=np.array(data["filter_time"]),
            response=response,
            window_name=params.window,
            lobefrac=params.lobefrac,
            tolerance=params.tolerance,
            box_width=int(data["filter_box_width"]),
        )
        perms = tuple(
            Permutation(
                n=params.n, sigma=int(s), sigma_inv=mod_inverse(int(s), params.n),
                tau=int(t),
            )
            for s, t in zip(data["sigmas"], data["taus"])
        )
    return SfftPlan(params=params, filt=filt, permutations=perms)
