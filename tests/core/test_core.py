from repro.compression import ErrorCompMode, GlueFLMaskStrategy
from repro.core import make_gluefl
from repro.experiments.scenarios import SCENARIOS
from repro.fl.samplers import StickySampler


def test_make_gluefl_paper_defaults():
    strategy, sampler = make_gluefl(30)
    assert isinstance(strategy, GlueFLMaskStrategy)
    assert isinstance(sampler, StickySampler)
    assert sampler.group_size == 120  # 4K
    assert sampler.sticky_count == 24  # 4K/5
    assert strategy.q == 0.2
    assert strategy.q_shr == 0.16
    assert strategy.regen_interval == 10
    assert strategy.residuals.mode is ErrorCompMode.REC


def test_make_gluefl_overrides():
    strategy, sampler = make_gluefl(
        10,
        group_size=25,
        sticky_count=5,
        q=0.3,
        q_shr=0.24,
        regen_interval=None,
        error_comp=ErrorCompMode.NONE,
        oc_sticky_share=0.1,
    )
    assert sampler.group_size == 25
    assert sampler.sticky_count == 5
    assert sampler.oc_sticky_share == 0.1
    assert strategy.regen_interval is None
    assert strategy.residuals.mode is ErrorCompMode.NONE


def test_presets_match_paper_section_51():
    """§5.1's mask ratios, as the benches run them: q = 20% / q_shr = 16%
    on the ShuffleNet-class scenarios, 30% / 24% on the MobileNet- and
    ResNet-class ones, and the shared mask regenerated every 10 rounds."""
    ratios = {"shufflenet": (0.20, 0.16), "mobilenet": (0.30, 0.24),
              "resnet": (0.30, 0.24)}
    checked = 0
    for name in SCENARIOS:
        scenario = SCENARIOS.get(name)
        assert scenario.regen_interval == 10, name
        for arch, (q, q_shr) in ratios.items():
            if arch in name.split("-"):
                assert (scenario.q, scenario.q_shr) == (q, q_shr), name
                checked += 1
    assert checked >= 8  # five bench-scale scenarios + three large ones
