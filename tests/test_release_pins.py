"""Pinned release known answers for each library release path.

One small seeded fixture per path: the low-rank mechanism on its symmetric
and block paths, multiply by rows and by columns, and regression through
``ingest_and_query`` and ``query_many``. Each release pins its published
output, its guard report, its retained entries and the number of normals
it generated. Floats hold to 1e-10 relative, so another BLAS passes;
integers and booleans are exact. A lift scaled by 1 + 1e-6 moves the
published output past the pins.
"""
import numpy as np
import pytest

from dpsketch import guard
from dpsketch.lra import LraConfig, new_lra, reconstruct
from dpsketch.matprod import new_matprod
from dpsketch.regress import new_regress
from dpsketch.sketch import GaussianSketcher

BUDGET = guard.PrivacyBudget(1.0, 0.01)
ACC = guard.AccuracySpec(0.5, 0.2)
RTOL = 1e-10
ENTRIES = ((0, 0), (1, 2), (-1, -1))


def _lra(symmetric):
    rng = np.random.default_rng(1 if symmetric else 2)
    n, d = (24, 24) if symmetric else (30, 18)
    g = rng.standard_normal((n, 2))
    if symmetric:
        a = 500.0 * g @ g.T
    else:
        a = 500.0 * g @ rng.standard_normal((2, d)) + rng.standard_normal((n, d))
    cfg = LraConfig(n=n, d=d, k=2, budget=BUDGET, seed=3, symmetric=symmetric)
    state = new_lra(cfg)
    for i0 in range(0, n, 7):
        state.ingest_rows(i0, a[i0 : i0 + 7])
    factor = state.finalize()
    rec = reconstruct(factor, cfg)
    return state, {
        "lam": factor.lam.tolist(),
        "frobenius": float(np.linalg.norm(rec)),
        "entries": [float(rec[i, j]) for i, j in ENTRIES],
    }


def _operands():
    rng = np.random.default_rng(4)
    return rng.standard_normal((40, 4)), rng.standard_normal((40, 3))


def _multiply(by_rows):
    a, b = _operands()
    state = new_matprod(40, 4, 3, BUDGET, ACC, 5)
    if by_rows:
        for i0 in range(0, 40, 16):
            state.ingest_rows(i0, a[i0 : i0 + 16], b[i0 : i0 + 16])
    else:
        state.ingest_a_columns(0, a[:, :3])
        state.ingest_a_columns(3, a[:, 3:])
        state.ingest_b_columns(0, b)
    est = state.product_query()
    return state, {"product": est.tolist(), "frobenius": float(np.linalg.norm(est))}


def _regress(streamed):
    rng = np.random.default_rng(6)
    a = 100.0 * rng.standard_normal((40, 3))
    b = a @ np.array([[1.0, -2.0], [0.5, 3.0], [-1.5, 0.25]]) + rng.standard_normal((40, 2))
    state = new_regress(40, 3, BUDGET, ACC, 7)
    if streamed:
        chunks = ((i0, a[i0 : i0 + 16], b[i0 : i0 + 16]) for i0 in range(0, 40, 16))
        x = state.ingest_and_query(chunks)
    else:
        state.ingest_rows(0, a)
        x = state.query_many(b)
    return state, {"solutions": x.tolist()}


RELEASES = {
    "lra-symmetric": lambda: _lra(True),
    "lra-block": lambda: _lra(False),
    "multiply-rows": lambda: _multiply(True),
    "multiply-columns": lambda: _multiply(False),
    "regress-ingest-and-query": lambda: _regress(True),
    "regress-query-many": lambda: _regress(False),
}


def _release(monkeypatch, name):
    """Run one release; returns its outputs plus guard report, space and normals."""
    generated = []
    original = GaussianSketcher._generate_block

    def spy(self, j0, j1):
        generated.append(self.r * (j1 - j0))
        return original(self, j0, j1)

    monkeypatch.setattr(GaussianSketcher, "_generate_block", spy)
    state, out = RELEASES[name]()
    monkeypatch.undo()
    out["guard_report"] = state.guard_report.to_json_dict()
    out["space_entries"] = state.space_entries()
    out["normals_generated"] = sum(generated)
    return out


def _mismatches(got, want, path=""):
    """Paths at which ``got`` leaves ``want``: floats by RTOL, the rest exactly."""
    if isinstance(want, dict):
        if set(got) != set(want):
            return [path or "keys"]
        return [p for k in want for p in _mismatches(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [path]
        return [p for i, w in enumerate(want) for p in _mismatches(got[i], w, f"{path}[{i}]")]
    if isinstance(want, float):
        return [] if abs(got - want) <= RTOL * abs(want) else [path]
    return [] if type(got) is type(want) and got == want else [path]


# A change that moves an output on purpose updates its pins and names each
# one in CHANGES.md.
PINS = {
    "lra-block": {
        "lam": [-17807.72061003945, 12890.69606632452],
        "frobenius": 12789.229165217475,
        "entries": [-37.27206033148083, 41.11477435392655, -676.2416078948576],
        "guard_report": {
            "required_sigma_min": 276.3102111592855,
            "observed_sigma_min": 383.45373101491083,
            "passed": True,
        },
        "space_entries": 330,
        "normals_generated": 390,
    },
    "lra-symmetric": {
        "lam": [13349.060406189912, -6860.898831110405],
        "frobenius": 15008.975531289238,
        "entries": [10.098914125201443, -943.1772297490238, 139.20136382199405],
        "guard_report": {
            "required_sigma_min": 276.3102111592855,
            "observed_sigma_min": 383.45373101491083,
            "passed": True,
        },
        "space_entries": 240,
        "normals_generated": 360,
    },
    "multiply-columns": {
        "product": [
            [19446.857295693946, 51958.01328649197, -100854.24155154034],
            [53979.87264878194, 114789.25842138357, 186195.6464867265],
            [-103157.29656887846, 184026.67050588908, -70542.19245100778],
            [20572.730967355932, -33924.97998066132, 112398.51858646292],
        ],
        "frobenius": 357350.84360928443,
        "guard_report": {
            "required_sigma_min": 705.6433672605114,
            "observed_sigma_min": 925.2423317820968,
            "passed": True,
        },
        "space_entries": 518,
        "normals_generated": 9176,
    },
    "multiply-rows": {
        "product": [
            [19446.857295694062, 51958.01328649196, -100854.24155154034],
            [53979.87264878193, 114789.25842138357, 186195.6464867265],
            [-103157.29656887843, 184026.6705058891, -70542.19245100778],
            [20572.730967355925, -33924.97998066132, 112398.51858646296],
        ],
        "frobenius": 357350.8436092845,
        "guard_report": {
            "required_sigma_min": 705.6433672605114,
            "observed_sigma_min": 925.2423317820968,
            "passed": True,
        },
        "space_entries": 518,
        "normals_generated": 3256,
    },
    "regress-ingest-and-query": {
        "solutions": [
            [0.10138734516648988, -0.24522135263893485],
            [0.11957054686340135, 0.3479223680164221],
            [-0.2619658276112116, -0.16122545576271516],
        ],
        "guard_report": {
            "required_sigma_min": 1106.0096486287716,
            "observed_sigma_min": 1423.8289562281386,
            "passed": True,
        },
        "space_entries": 465,
        "normals_generated": 6665,
    },
    "regress-query-many": {
        "solutions": [
            [0.10138734516648996, -0.24522135263893485],
            [0.1195705468634014, 0.3479223680164222],
            [-0.2619658276112117, -0.16122545576271527],
        ],
        "guard_report": {
            "required_sigma_min": 1106.0096486287716,
            "observed_sigma_min": 1423.8289562281386,
            "passed": True,
        },
        "space_entries": 465,
        "normals_generated": 12865,
    },
}


@pytest.mark.parametrize("name", sorted(RELEASES))
def test_release_matches_pins(monkeypatch, name):
    assert _mismatches(_release(monkeypatch, name), PINS[name]) == []


@pytest.mark.parametrize("name", sorted(RELEASES))
def test_scaled_lift_fails_the_pins(monkeypatch, name):
    # Negative control: a lift 1 + 1e-6 too large moves the published
    # output, not only the guard report that states the lift.
    scaled = "lra_lift_w" if name.startswith("lra") else "lift_scale_s"
    original = getattr(guard, scaled)
    monkeypatch.setattr(guard, scaled, lambda *args: original(*args) * (1 + 1e-6))
    out = _release(monkeypatch, name)
    moved = {path.split("/")[1].split("[")[0] for path in _mismatches(out, PINS[name])}
    assert moved >= set(out) - {"guard_report", "space_entries", "normals_generated"}
