import dpsketch

PUBLIC_API = [
    "AccuracySpec",
    "BudgetExhaustedError",
    "CapacityError",
    "ConfigurationError",
    "ContractViolationError",
    "DPSketchError",
    "FormatError",
    "GaussianSketcher",
    "GuardReport",
    "IllPosedSystemError",
    "LowRankFactor",
    "LraConfig",
    "LraState",
    "MatProdState",
    "NumericFailureError",
    "OnePassViolationError",
    "ParameterDomainError",
    "PrivacyBudget",
    "RegressState",
    "SpectralGuardError",
    "new_lra",
    "new_matprod",
    "new_regress",
    "reconstruct",
]


def test_public_api_is_pinned():
    # Adding or removing a public name has to change this list too.
    assert sorted(dpsketch.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(dpsketch, name) is not None


def test_lift_doubling_merge_is_not_exported():
    # States merge with their own ``merge``, which refuses shards of another
    # lift, budget, sketcher or shape before it sums their sketches; no
    # free-standing merge skips those checks. Sketches are plain arrays,
    # with no wrapper type.
    assert not hasattr(dpsketch, "merge")
    assert not hasattr(dpsketch, "Sketch")
    assert not hasattr(dpsketch, "serialize") and not hasattr(dpsketch, "deserialize")


def test_sketcher_surface_is_pinned():
    # One generator (column_block) and one tile walk (project_blocks): a
    # removed layer cannot come back without changing these lists.
    sk = dpsketch.GaussianSketcher(0, 2, 3)
    public = sorted(name for name in dir(sk) if not name.startswith("_"))
    assert public == [
        "column_block", "fingerprint", "m", "omega", "project_blocks", "r", "seed", "store_omega",
    ]
    methods = sorted(name for name, v in vars(dpsketch.GaussianSketcher).items() if callable(v))
    assert methods == ["__init__", "column_block", "project_blocks"]
