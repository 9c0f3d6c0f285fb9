"""Seeded CLI workloads.

Every workload is a fixed pool of operations per category, generated
from a constant pool seed so that reference outputs can be stored for
each of them.  The run seed only chooses which pool member each
category contributes to a round and the order of the ops inside the
round; every round holds the same number of ops of each category (one,
or three field sweeps), so the op mix is the same in every run.

An op is one fresh CLI process: ``python -m xyzent.cli <argv>``.  The
argv uses ``--key=value`` throughout, because the CLI's parser rejects
``--vy -4e-15`` (a negative value in the separate-token form).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: Changing this regenerates every pool and invalidates reference/*.json.
POOL_SEED = "xyzent-perfbench-1"

#: log10 of the energy-scale range every seeded op draws lambda from.
#: At the seed commit all outputs are homogeneous to ~1e-11 over this
#: range; below ~1e-5 the absolute floors (_default_t_max, the solve_mf
#: residual scale, DEGENERACY_TOL) make results wrong, and at 1e200 the
#: numeric T_c overflows.  Those scales are exercised by the defect
#: probe in run.py, not by the timed ops.
LOG10_LAMBDA = (-4.0, 100.0)

#: Energy scale of the defect probe (known wrong at the seed commit).
PROBE_LAMBDA = 1e-14

FIELD_STEPS = 201
TEMP_STEPS = 5000


@dataclass(frozen=True)
class Model:
    """Unit-scale couplings and field; the op multiplies them by lam."""

    vx: float
    vy: float
    vz: float
    b: float


@dataclass(frozen=True)
class Op:
    workload: str
    category: str
    index: int  # position in the category's pool
    kind: str  # "figure" | "sweep_b" | "limits" | "sweep_temp"
    argv: tuple[str, ...]  # CLI arguments; "{out}" stands for the output dir
    items: int
    lam: float = 1.0
    model: Model | None = None
    #: sweep range at unit scale (from, to)
    span: tuple[float, float] | None = None
    files: tuple[str, ...] = ("stdout",)

    @property
    def key(self) -> str:
        return f"{self.category}/{self.index}"


def _num(x: float) -> str:
    return repr(float(x))


def _param_args(m: Model, lam: float) -> list[str]:
    return [
        f"--vx={_num(lam * m.vx)}",
        f"--vy={_num(lam * m.vy)}",
        f"--vz={_num(lam * m.vz)}",
        f"--b={_num(lam * m.b)}",
    ]


def _rng(workload: str, category: str, index: int) -> random.Random:
    return random.Random(f"{POOL_SEED}/{workload}/{category}/{index}")


def _lam(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(*LOG10_LAMBDA)


def _make(workload, category, index, kind, model, lam, span=None) -> Op:
    """An op running `kind` on model * lam (and the sweep range span * lam)."""
    params = _param_args(model, lam)
    if kind == "limits":
        argv, items = ("limits", *params, "--format=json"), 1
    else:
        axis, steps = ("b", FIELD_STEPS) if kind == "sweep_b" else ("temp", TEMP_STEPS)
        argv = (
            "sweep",
            f"--axis={axis}",
            f"--from={_num(lam * span[0])}",
            f"--to={_num(lam * span[1])}",
            f"--steps={steps}",
            # a b sweep takes its field from the axis
            *(params[:3] if axis == "b" else params),
            *(("--outputs=limits",) if axis == "b" else ()),
        )
        items = steps
    return Op(
        workload=workload,
        category=category,
        index=index,
        kind=kind,
        argv=argv,
        items=items,
        lam=lam,
        model=model,
        span=span,
    )


def _signed(rng: random.Random, v_plus: float, v_minus: float, vz: float, b: float) -> Model:
    """Couplings with random signs on v_plus, v_minus and b; the CLI
    canonicalizes them back, so outputs do not depend on the signs."""
    sp = rng.choice((1.0, -1.0))
    sm = rng.choice((1.0, -1.0))
    sb = rng.choice((1.0, -1.0))
    return Model(vx=sp * v_plus + sm * v_minus, vy=sp * v_plus - sm * v_minus, vz=vz, b=sb * b)


def b_crossing(v_plus: float, v_minus: float, vz: float) -> float:
    return math.sqrt(max(0.0, (v_plus - vz) ** 2 - v_minus**2))


def _crossing_couplings(rng: random.Random) -> tuple[float, float, float]:
    """v_plus = 1, v_minus/v_plus in [0, 0.9], vz != 0, with a level
    crossing (b_crossing > 0.2) so field ranges can straddle it."""
    while True:
        vm = rng.uniform(0.0, 0.9)
        vz = rng.choice((1.0, -1.0)) * rng.uniform(0.05, 0.6)
        if b_crossing(1.0, vm, vz) > 0.2:
            return 1.0, vm, vz


# ---------------------------------------------------------------------------
# field_scan: the three paper figures plus seeded field sweeps
# ---------------------------------------------------------------------------


def _figure_op(which: str) -> Op:
    return Op(
        workload="field_scan",
        category=which,
        index=0,
        kind="figure",
        argv=("figure", which, "--out={out}"),
        items=FIELD_STEPS,
        files=tuple(f"{which}_{panel}.csv" for panel in ("top", "center", "bottom")),
    )


def _field_sweep_op(index: int) -> Op:
    rng = _rng("field_scan", "sweep", index)
    vp, vm, vz = _crossing_couplings(rng)
    b_hi = rng.uniform(1.5, 2.5) * b_crossing(vp, vm, vz)
    model = _signed(rng, vp, vm, vz, 0.0)
    return _make("field_scan", "sweep", index, "sweep_b", model, _lam(rng), (0.0, b_hi))


# ---------------------------------------------------------------------------
# model_limits: one model per op, `limits --format json`
# ---------------------------------------------------------------------------

#: One round of model_limits; "closed_form" alternates xx and
#: max_anisotropy models and "infeasible" the two ways T_c is absent, so
#: every round holds exactly one fast (solver-free) op.
LIMIT_CATEGORIES = ("low_chi", "mid_chi", "high_chi", "reentry", "closed_form", "infeasible")


def _limits_model(category: str, index: int, rng: random.Random) -> Model:
    if category == "closed_form":
        # b < 0.95 b_c keeps the numeric T_c running, as in the other categories
        b = rng.uniform(0.0, 0.95)  # b_c = 1 for both cases
        if index % 2 == 0:  # xx: v_minus = vz = 0, t_exact = v_plus / ln(1 + sqrt 2)
            return _signed(rng, 1.0, 0.0, 0.0, b)
        return _signed(rng, 0.0, 1.0, 0.0, b)  # max_anisotropy: v_plus = vz = 0
    if category == "reentry":  # just above the level crossing
        vp, vm, vz = _crossing_couplings(rng)
        b = b_crossing(vp, vm, vz) * (1.0 + 10.0 ** rng.uniform(-4.0, -2.0))
        return _signed(rng, vp, vm, vz, b)
    vm = rng.uniform(0.0, 0.9)
    if category == "infeasible" and index % 2 == 1:  # v_max <= vz
        vz = (1.0 + vm) * rng.uniform(1.05, 1.5)
        return _signed(rng, 1.0, vm, vz, rng.uniform(0.0, 1.0))
    vz = rng.uniform(-0.5, 0.5)
    b_c = 1.0 + vm - vz  # v_max - vz with v_max = v_plus + v_minus
    chi = {
        "low_chi": (0.0, 0.05),
        "mid_chi": (0.3, 0.7),
        "high_chi": (0.9, 0.95),
        "infeasible": (1.05, 2.0),  # b >= v_max - vz
    }[category]
    return _signed(rng, 1.0, vm, vz, rng.uniform(*chi) * b_c)


def _limits_op(category: str, index: int) -> Op:
    rng = _rng("model_limits", category, index)
    model = _limits_model(category, index, rng)
    return _make("model_limits", category, index, "limits", model, _lam(rng))


# ---------------------------------------------------------------------------
# temp_sweep: `sweep --axis temp`, one thermal-state row per step
# ---------------------------------------------------------------------------

TEMP_CATEGORIES = ("from_zero", "warm", "degenerate", "reentry")


def _temp_op(category: str, index: int) -> Op:
    rng = _rng("temp_sweep", category, index)
    if category == "degenerate":  # Delta = 0: vx = vy, b = 0
        v = rng.uniform(0.2, 1.5)
        model = Model(vx=v, vy=v, vz=rng.uniform(-1.0, 1.0), b=0.0)
        span = (0.0, rng.uniform(1.0, 3.0))
    elif category == "reentry":
        vp, vm, vz = _crossing_couplings(rng)
        b = b_crossing(vp, vm, vz) * (1.0 + 10.0 ** rng.uniform(-3.0, -1.0))
        model = _signed(rng, vp, vm, vz, b)
        span = (0.0, rng.uniform(0.5, 1.5))
    else:
        vm = rng.uniform(0.0, 1.0)
        model = _signed(rng, 1.0, vm, rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0))
        lo = 0.0 if category == "from_zero" else rng.uniform(0.01, 0.5)
        span = (lo, lo + rng.uniform(1.0, 3.0))
    return _make("temp_sweep", category, index, "sweep_temp", model, _lam(rng), span)


# ---------------------------------------------------------------------------
# pools and rounds
# ---------------------------------------------------------------------------

_POOL_SIZE = {"field_scan": 12, "model_limits": 6, "temp_sweep": 8}


def pool(workload: str) -> dict[str, list[Op]]:
    """Every op the workload can run, by category."""
    n = _POOL_SIZE[workload]
    if workload == "field_scan":
        out = {w: [_figure_op(w)] for w in ("fig2", "fig3", "fig4")}
        out["sweep"] = [_field_sweep_op(i) for i in range(n)]
        return out
    if workload == "model_limits":
        return {c: [_limits_op(c, i) for i in range(n)] for c in LIMIT_CATEGORIES}
    if workload == "temp_sweep":
        return {c: [_temp_op(c, i) for i in range(n)] for c in TEMP_CATEGORIES}
    raise ValueError(f"unknown workload {workload!r}")


#: How many ops of each category one round holds.
_PER_ROUND = {"field_scan": {"sweep": 3}}


class Schedule:
    """Rounds of ops drawn from the pool by the run seed.

    Round r takes, for each category, the next members of a seeded
    permutation of that category's pool, then shuffles the round.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.pool = pool(workload)
        self._rng = random.Random(f"{workload}/{seed}")
        self._perm = {c: self._rng.sample(range(len(ops)), len(ops)) for c, ops in self.pool.items()}
        self._next = {c: 0 for c in self.pool}

    def round(self) -> list[Op]:
        ops = []
        for category, members in self.pool.items():
            for _ in range(_PER_ROUND.get(self.workload, {}).get(category, 1)):
                k = self._next[category]
                self._next[category] = k + 1
                perm = self._perm[category]
                ops.append(members[perm[k % len(perm)]])
        self._rng.shuffle(ops)
        return ops


#: The op the defect probe rescales, per workload.
_PROBE = {"field_scan": "sweep", "model_limits": "mid_chi", "temp_sweep": "from_zero"}


def probe_op(workload: str) -> Op:
    """A pool op of the workload moved to PROBE_LAMBDA."""
    return rescale(pool(workload)[_PROBE[workload]][0], PROBE_LAMBDA)


def rescale(op: Op, lam: float) -> Op:
    """The same op at another energy scale."""
    return _make(op.workload, op.category, op.index, op.kind, op.model, lam, op.span)
