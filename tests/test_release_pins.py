"""Pinned release known answers for each library and CLI release path.

One small seeded fixture per path: the low-rank mechanism on its symmetric
and block paths, multiply by rows and by columns, and regression through
``ingest_and_query`` and ``query_many``. Each release pins its published
output, its guard report, its retained entries and the number of normals
it generated. Each CLI command pins what it writes: the files it
publishes, read back (``lra``'s factor, ``multiply``'s estimate and
``regress``'s solutions), the ``--oracle`` errors of ``multiply`` and
``regress``, and the report's guard report and retained entries; a second
``regress`` fixture spans several walk tiles. Floats hold to 1e-10
relative, so another BLAS passes; integers, booleans and strings are
exact. A lift scaled by 1 + 1e-6 moves the published output past the
pins.
"""
import json

import numpy as np
import pytest

from dpsketch import cli, guard, sketch
from dpsketch.lra import LowRankFactor, LraConfig, new_lra, reconstruct
from dpsketch.matprod import new_matprod
from dpsketch.regress import new_regress

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


def _release(tile_calls, name):
    """Run one release; returns its outputs plus guard report, space and normals."""
    tile_calls.clear()
    state, out = RELEASES[name]()
    out["guard_report"] = state.guard_report.to_json_dict()
    out["space_entries"] = state.space_entries()
    out["normals_generated"] = tile_calls.normals
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
        "space_entries": 240,
        "normals_generated": 840,
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
        "space_entries": 120,
        "normals_generated": 840,
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
def test_release_matches_pins(tile_calls, name):
    assert _mismatches(_release(tile_calls, name), PINS[name]) == []


@pytest.mark.parametrize("name", sorted(RELEASES))
def test_scaled_lift_fails_the_pins(monkeypatch, tile_calls, name):
    # Negative control: a lift 1 + 1e-6 too large moves the published
    # output, not only the guard report that states the lift.
    scaled = "lra_lift_w" if name.startswith("lra") else "lift_scale_s"
    original = getattr(guard, scaled)
    monkeypatch.setattr(guard, scaled, lambda *args: original(*args) * (1 + 1e-6))
    out = _release(tile_calls, name)
    moved = {path.split("/")[1].split("[")[0] for path in _mismatches(out, PINS[name])}
    assert moved >= set(out) - {"guard_report", "space_entries", "normals_generated"}


# One small fixture per CLI release command, pinned from the files and the
# report the command writes: each command's published files read back, and
# the ``--oracle`` errors of multiply and regress.
CLI_BUDGET = ["--eps", "1", "--delta", "0.01"]
CLI_ACC = ["--alpha", "0.5", "--beta", "0.2"]


def _cli_run(tmp_path, args):
    """Run one CLI command with a report next to its inputs; returns the report."""
    path = tmp_path / "report.json"
    assert cli.main(args + ["--report", str(path)]) == 0
    return json.loads(path.read_text())


def _cli_lra(tmp_path):
    rng = np.random.default_rng(8)
    a = 500.0 * rng.standard_normal((24, 2)) @ rng.standard_normal((2, 16))
    a += rng.standard_normal((24, 16))
    path = tmp_path / "a.csv"
    path.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in a))
    report = _cli_run(tmp_path, ["lra", "--input", str(path), "--rank", "2", "--seed", "3"]
                      + CLI_BUDGET)
    uhat, lam = (cli.load_matrix(p, "dpbin") for p in report["factor_files"])
    cfg = LraConfig(n=24, d=16, k=2, budget=BUDGET, seed=3)
    rec = reconstruct(LowRankFactor(uhat, lam[0], 2), cfg)
    return report, {
        "lam": lam[0].tolist(),
        "frobenius": float(np.linalg.norm(rec)),
        "entries": [float(rec[i, j]) for i, j in ENTRIES],
    }


def _cli_pair(tmp_path, command, rng_seed, a_cols, b_cols, a_scale, seed, rows=40):
    rng = np.random.default_rng(rng_seed)
    a = a_scale * rng.standard_normal((rows, a_cols))
    b = a @ rng.standard_normal((a_cols, b_cols)) + rng.standard_normal((rows, b_cols))
    pa, pb = tmp_path / "a.dpmt", tmp_path / "b.dpmt"
    cli.save_matrix(str(pa), a)
    cli.save_matrix(str(pb), b)
    args = [command, "--input", str(pa), "--input-b", str(pb), "--format", "dpbin",
            "--seed", str(seed), "--oracle"]
    report = _cli_run(tmp_path, args + CLI_BUDGET + CLI_ACC)
    (path,) = report["factor_files"]
    name = path.split(".")[-2]
    return report, {name: cli.load_matrix(path, "dpbin").tolist(),
                    "error_vs_oracle": report["error_vs_oracle"]}


# "regress-multi-tile": 200 rows at r = 1031 span seven walk tiles of 31
# columns, so its release walks several tiles, on two threads where its
# plan splits walks. 1e-10 cannot catch a change of tile grouping, which
# moves a release by about 1e-12; the reproducibility table's tile-width
# column (tests/test_two_thread_walk.py) catches that within one run.
CLI_RELEASES = {
    "lra": _cli_lra,
    "multiply": lambda tmp_path: _cli_pair(tmp_path, "multiply", 9, 4, 3, 1.0, 5),
    "regress": lambda tmp_path: _cli_pair(tmp_path, "regress", 10, 3, 2, 100.0, 7),
    "regress-multi-tile": lambda tmp_path: _cli_pair(tmp_path, "regress", 11, 20, 1, 100.0, 7,
                                                     rows=200),
}


def _cli_release(tmp_path, name):
    """Run one CLI command; returns its published values plus guard report and space."""
    report, out = CLI_RELEASES[name](tmp_path)
    out["guard_report"] = report["guard_report"]
    out["space_entries"] = report["space_entries"]
    return out


CLI_PINS = {
    "lra": {
        "lam": [-35624.65880019583, 12545.161919738726],
        "frobenius": 23940.27360955877,
        "entries": [-886.3711785463986, 1457.781719172493, -1166.7121119828075],
        "guard_report": {
            "mode": "structural",
            "observed_sigma_min": 383.45373101491083,
            "passed": True,
            "required_sigma_min": 276.3102111592855,
        },
        "space_entries": 200,
    },
    "multiply": {
        "estimate": [
            [20046.62414755125, 50791.8875786823, -101283.21727054604],
            [51422.016700707594, 114898.32500757184, 186548.2554408265],
            [-102944.6796092791, 186870.02494729287, -68780.84875691403],
            [19034.772852218306, -34701.34108936741, 111275.11973165623],
        ],
        "error_vs_oracle": {
            "error_bound": 2707243.5590870185,
            "frobenius_error": 357877.6080722603,
            "trivial_error": 64.62508823895833,
        },
        "guard_report": {
            "mode": "exact",
            "observed_sigma_min": 925.2513550339204,
            "passed": True,
            "required_sigma_min": 705.6433672605114,
        },
        "space_entries": 518,
    },
    "regress": {
        "solutions": [
            [0.09628781493221741, -0.046445089367321],
            [-0.30338271209312145, 0.11913205774857072],
            [-0.01820345244257601, 0.0005454603356368147],
        ],
        "error_vs_oracle": {
            "error_bound": [6410861.660636545, 6410860.302935795],
            "optima": [7.514820566347933, 6.609686733108143],
            "residuals": [1079.3208505225984, 449.8080896959566],
            "trivial_error": [1238.717074467978, 512.1661384072997],
        },
        "guard_report": {
            "mode": "exact",
            "observed_sigma_min": 1504.6396348057851,
            "passed": True,
            "required_sigma_min": 1106.0096486287716,
        },
        "space_entries": 465,
    },
    "regress-multi-tile": {
        "solutions": [
            [-0.16549425349232627],
            [0.08312125545383048],
            [0.044921170431729836],
            [0.06405471143557698],
            [-0.02798556563447455],
            [-0.05381241907271952],
            [-0.13474629527386953],
            [-0.10300474041636164],
            [-0.004943559411465983],
            [0.12555521327107677],
            [-0.0682006691422174],
            [0.06460229488235415],
            [-0.1318462484520367],
            [0.10825993045729437],
            [-0.12720009690493395],
            [-0.03692698179753195],
            [-0.059716507613918515],
            [-0.10097161460078873],
            [-0.008417327999748819],
            [0.0907467471578304],
        ],
        "error_vs_oracle": {
            "error_bound": [126662396.02848084],
            "optima": [13.249750247235596],
            "residuals": [4432.673915505044],
            "trivial_error": [4989.330993981393],
        },
        "guard_report": {
            "mode": "exact",
            "observed_sigma_min": 4349.241382203158,
            "passed": True,
            "required_sigma_min": 3412.668550279648,
        },
        "space_entries": 20620,
    },
}

# The published value of each command that a wrong lift must move.
CLI_PUBLISHED = {
    "lra": {"/lam", "/frobenius", "/entries"},
    "multiply": {"/estimate", "/error_vs_oracle/frobenius_error"},
    "regress": {"/solutions", "/error_vs_oracle/residuals"},
    "regress-multi-tile": {"/solutions", "/error_vs_oracle/residuals"},
}


@pytest.mark.parametrize("name", sorted(CLI_RELEASES))
def test_cli_release_matches_pins(tmp_path, name):
    assert _mismatches(_cli_release(tmp_path, name), CLI_PINS[name]) == []


@pytest.mark.parametrize("name", sorted(CLI_RELEASES))
def test_scaled_lift_fails_the_cli_pins(monkeypatch, tmp_path, name):
    # Negative control: a lift 1 + 1e-6 too large moves what the command
    # publishes.
    scaled = "lra_lift_w" if name == "lra" else "lift_scale_s"
    original = getattr(guard, scaled)
    monkeypatch.setattr(guard, scaled, lambda *args: original(*args) * (1 + 1e-6))
    out = _cli_release(tmp_path, name)
    moved = {path.split("[")[0] for path in _mismatches(out, CLI_PINS[name])}
    assert moved >= CLI_PUBLISHED[name]


def _two_thread_walks(monkeypatch):
    # Every CLI release plans two-thread walks where its shape allows:
    # two usable CPUs, and BLAS entry points that report one thread.
    monkeypatch.setattr(sketch, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(sketch, "_blas_thread_fns", lambda: (lambda: 1, lambda n: None))


def test_the_multi_tile_pin_holds_on_two_threads(monkeypatch, tmp_path):
    _two_thread_walks(monkeypatch)
    out = _cli_release(tmp_path, "regress-multi-tile")
    assert _mismatches(out, CLI_PINS["regress-multi-tile"]) == []


def test_a_helper_that_does_not_skip_fails_the_multi_tile_pin(monkeypatch, tmp_path,
                                                              helper_skips_nothing):
    # Negative control: on two threads, the helper's stream stays at the
    # walk's first column, so every tile the helper generates (the second
    # at least) takes the words of earlier columns, which moves the pin.
    _two_thread_walks(monkeypatch)
    out = _cli_release(tmp_path, "regress-multi-tile")
    moved = {path.split("[")[0] for path in _mismatches(out, CLI_PINS["regress-multi-tile"])}
    assert moved >= CLI_PUBLISHED["regress-multi-tile"]
