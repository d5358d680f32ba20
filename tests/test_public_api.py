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
    # A plain sum of lifted sketches keeps both lifts; states merge with
    # their own ``merge``. Sketches are plain arrays, with no wrapper type.
    assert not hasattr(dpsketch, "merge")
    assert not hasattr(dpsketch, "Sketch")
    assert not hasattr(dpsketch, "serialize") and not hasattr(dpsketch, "deserialize")
