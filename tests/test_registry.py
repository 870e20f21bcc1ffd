"""Registry contract: every mass-mode selector returns a FusionResult."""

import pytest

from fusekit import Frame, FusionResult, MassFunction
from fusekit.registry import resolve, selectors, validate_call

_PARAMS = {
    "conditional": {"given": "A|B"},
    "inagaki": {"p": 0.5},
    "mixed": {"expr": "1|2"},
    "mixing": {"weights": [0.25, 0.75]},
    "wo": {"weights": {"A|B|C": 0.5, "A": 0.5}},
}


@pytest.mark.parametrize(
    "selector", [s for s in selectors() if resolve(s).mode == "mass"]
)
def test_mass_mode_selectors_return_a_fusion_result(selector):
    f = Frame.shafer(("A", "B", "C"))
    m1 = MassFunction(f, {"A": 0.7, "B": 0.1, "A|B|C": 0.2})
    m2 = MassFunction(f, {"A": 0.6, "C": 0.2, "B|C": 0.2})
    spec = resolve(selector)
    sources = [m1, m2][: spec.max_sources or 2]
    params = dict(_PARAMS.get(selector, {}))
    validate_call(spec, len(sources), params)
    result = spec.combine(sources, params)
    assert isinstance(result, FusionResult)
    assert isinstance(result.combined, MassFunction)
