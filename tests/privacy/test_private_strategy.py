"""PrivateStrategy: wrapper semantics, bit-identity, engine integration."""

import hashlib

import numpy as np
import pytest

from repro.compression import (
    FedAvgStrategy,
    GlueFLMaskStrategy,
    QuantizedStrategy,
    STCStrategy,
)
from repro.core import make_gluefl
from repro.datasets import femnist_like
from repro.fl import FLServer, RunConfig, run_training
from repro.fl.extra_samplers import OptimalClientSampler
from repro.privacy import PrivateStrategy, RdpAccountant
from tests.compression.rounds import aggregate_payloads


# ---------------------------------------------------------------- unit level
class TestWrapperUnit:
    def _ready(self, inner=None, **kwargs):
        strategy = PrivateStrategy(inner or FedAvgStrategy(), **kwargs)
        strategy.setup(16, np.random.default_rng(3))
        return strategy

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PrivateStrategy(FedAvgStrategy(), mode="nope")
        with pytest.raises(ValueError):
            PrivateStrategy(FedAvgStrategy(), clip_norm=0.0)
        with pytest.raises(ValueError):
            PrivateStrategy(FedAvgStrategy(), noise_multiplier=-1.0)
        with pytest.raises(ValueError):
            # noise without a sensitivity bound carries no guarantee
            PrivateStrategy(FedAvgStrategy(), noise_multiplier=1.0)
        with pytest.raises(ValueError):
            PrivateStrategy(FedAvgStrategy(), mode="random_defense",
                            defense_fraction=1.0)
        with pytest.raises(ValueError):
            # the waiver qualifies gaussian epsilon; meaningless elsewhere
            PrivateStrategy(FedAvgStrategy(), mode="random_defense",
                            values_only=True)

    def test_name_tags_the_mode(self):
        assert (
            PrivateStrategy(STCStrategy(q=0.2), noise_multiplier=0.0).name
            == "stc+dp"
        )
        assert (
            PrivateStrategy(FedAvgStrategy(), mode="random_defense").name
            == "fedavg+rdmask"
        )

    def test_clipping_bounds_the_payload(self):
        strategy = self._ready(clip_norm=1.0, noise_multiplier=0.0)
        payload = strategy.client_compress(0, np.full(16, 5.0), 1.0)
        assert np.isclose(np.linalg.norm(payload.data["dense"]), 1.0)

    def test_noise_perturbs_only_transmitted_values(self):
        inner = STCStrategy(q=0.25)
        strategy = self._ready(
            inner, clip_norm=10.0, noise_multiplier=0.1, values_only=True
        )
        delta = np.arange(16, dtype=np.float64)
        payload = strategy.client_compress(0, delta, 1.0)
        clean = STCStrategy(q=0.25)
        clean.setup(16, np.random.default_rng(3))
        reference = clean.client_compress(0, delta, 1.0)
        # identical coordinates on the wire, identical price
        assert np.array_equal(payload.data["idx"], reference.data["idx"])
        assert payload.upstream_bytes == reference.upstream_bytes
        assert not np.array_equal(payload.data["vals"], reference.data["vals"])

    def test_zero_noise_draws_nothing_and_changes_nothing(self):
        rng = np.random.default_rng(9)
        strategy = PrivateStrategy(FedAvgStrategy(), noise_multiplier=0.0)
        strategy.setup(8, rng)
        before = rng.bit_generator.state
        payload = strategy.client_compress(0, np.ones(8), 1.0)
        assert rng.bit_generator.state == before
        assert np.array_equal(payload.data["dense"], np.ones(8))
        assert strategy.privacy_epsilon_spent() is None

    def test_random_defense_zeroes_a_fraction(self):
        strategy = self._ready(mode="random_defense", defense_fraction=0.5)
        payload = strategy.client_compress(0, np.ones(16), 1.0)
        kept = np.count_nonzero(payload.data["dense"])
        assert 0 < kept < 16

    def test_gaussian_noise_rejects_client_chosen_indices_by_default(self):
        """STC/GlueFL transmit a client-chosen index set — a
        data-dependent release value noise cannot cover, so noising them
        needs the explicit values-only waiver."""
        for inner in (STCStrategy(q=0.2), GlueFLMaskStrategy(q=0.3, q_shr=0.2)):
            with pytest.raises(ValueError, match="index release"):
                PrivateStrategy(inner, clip_norm=1.0, noise_multiplier=1.0)
        # the waiver downgrades the claim loudly instead of refusing
        with pytest.warns(UserWarning, match="values only"):
            PrivateStrategy(
                STCStrategy(q=0.2), clip_norm=1.0, noise_multiplier=1.0,
                values_only=True,
            )
        # noise over a quantizer is refused outright: it nests underneath
        with pytest.raises(ValueError, match="under quantization"):
            PrivateStrategy(
                QuantizedStrategy(STCStrategy(q=0.2), bits=8),
                clip_norm=1.0, noise_multiplier=1.0, values_only=True,
            )

    def test_data_independent_strategies_need_no_waiver(self):
        import warnings as _warnings

        from repro.compression import APFStrategy

        for inner in (FedAvgStrategy(), APFStrategy()):
            with _warnings.catch_warnings():
                _warnings.simplefilter("error")
                PrivateStrategy(inner, clip_norm=1.0, noise_multiplier=1.0)

    def test_epsilon_steps_only_on_ended_rounds(self):
        strategy = self._ready(clip_norm=1.0, noise_multiplier=1.0)
        payload = strategy.client_compress(0, np.ones(16), 1.0)
        agg = aggregate_payloads(strategy, [(0, 1.0, payload)])
        assert strategy.accountant.steps == 0
        strategy.end_round(agg, 1)
        assert strategy.accountant.steps == 1
        strategy.begin_round(2)
        strategy.abort_round(2)  # nothing uploaded -> nothing spent
        assert strategy.accountant.steps == 1

    def test_feedback_norm_reports_the_noisy_observable(self):
        strategy = self._ready(clip_norm=1.0, noise_multiplier=2.0)
        delta = np.full(16, 3.0)
        payload = strategy.client_compress(7, delta, 1.0)
        observed = strategy.feedback_norm(7, delta)
        assert observed == pytest.approx(
            float(np.linalg.norm(payload.data["dense"]))
        )
        assert observed != pytest.approx(float(np.linalg.norm(delta)))
        # with noise active, unseen clients released nothing, so the only
        # honest observable is the data-independent clip ceiling — never
        # the raw norm the mechanism withholds
        assert strategy.feedback_norm(99, delta) == pytest.approx(1.0)
        # without noise the wrapper claims nothing and delegates raw
        plain = self._ready(clip_norm=1.0, noise_multiplier=0.0)
        assert plain.feedback_norm(99, delta) == pytest.approx(
            float(np.linalg.norm(delta))
        )

    def test_begin_round_clears_observed_norms(self):
        """A client queried in a round where it did not compress must not
        get last round's stale noisy norm."""
        strategy = self._ready(clip_norm=1.0, noise_multiplier=2.0)
        delta = np.full(16, 3.0)
        strategy.begin_round(1)
        strategy.client_compress(7, delta, 1.0)
        stale = strategy.feedback_norm(7, delta)
        assert stale != pytest.approx(1.0)
        strategy.begin_round(2)  # client 7 does not participate
        assert strategy.feedback_norm(7, delta) == pytest.approx(1.0)
        assert strategy.feedback_norm(7, delta) != pytest.approx(stale)

    def test_quantized_stack_forwards_privacy_hooks(self):
        private = PrivateStrategy(
            STCStrategy(q=0.5), clip_norm=1.0, noise_multiplier=1.0,
            values_only=True,
        )
        stack = QuantizedStrategy(private, bits=8)
        stack.setup(16, np.random.default_rng(1))
        payload = stack.client_compress(0, np.arange(16.0), 1.0)
        agg = aggregate_payloads(stack, [(0, 1.0, payload)])
        stack.end_round(agg, 1)
        assert stack.privacy_epsilon_spent() == private.privacy_epsilon_spent()
        assert stack.privacy_epsilon_spent() > 0

    def test_epsilon_calibrates_at_bind_run(self):
        """An ε budget becomes a noise multiplier only once the run's
        rounds and rate are bound; without them setup refuses to guess."""
        strategy = PrivateStrategy(FedAvgStrategy(), epsilon=4.0, clip_norm=1.0)
        assert strategy.noise_multiplier is None
        with pytest.raises(ValueError, match="bind_run"):
            strategy.setup(8, np.random.default_rng(0))
        strategy.bind_run(rounds=20, sample_rate=0.1)
        assert strategy.noise_multiplier > 0
        strategy.setup(8, np.random.default_rng(0))
        assert strategy.accountant.sample_rate == 0.1
        strategy.accountant.step(20)
        assert strategy.accountant.epsilon() <= 4.0

    def test_build_private_strategy_rejects_missing_budget(self):
        """Gaussian noise with neither ε nor a multiplier has no noise
        level to use; an 'off' mode does not exist (leave the strategy
        unwrapped instead)."""
        with pytest.raises(ValueError, match="needs epsilon"):
            PrivateStrategy(FedAvgStrategy(), mode="gaussian", clip_norm=1.0)
        with pytest.raises(ValueError, match="unknown privacy mode"):
            PrivateStrategy(FedAvgStrategy(), mode="off")


# ---------------------------------------------------------- engine integration
def _dataset():
    return femnist_like(
        num_clients=40, num_classes=4, image_size=8,
        samples_per_client=24, min_samples=5, seed=7,
    )


def _config(dataset, **overrides):
    strategy, sampler = make_gluefl(
        5, group_size=20, sticky_count=4, q=0.2, q_shr=0.16
    )
    params = dict(
        dataset=dataset, model_name="mlp", model_kwargs={"hidden": (16,)},
        strategy=strategy, sampler=sampler, rounds=6, local_steps=2,
        batch_size=8, lr=0.05, eval_every=3, seed=11,
    )
    params.update(overrides)
    return RunConfig(**params)


def _private_config(dataset, **overrides):
    """``_config`` with its GlueFL strategy privatized at ε = 6 (values
    only: GlueFL clients choose their own indices)."""
    gluefl, sampler = make_gluefl(
        5, group_size=20, sticky_count=4, q=0.2, q_shr=0.16
    )
    params = dict(
        strategy=PrivateStrategy(
            gluefl, epsilon=6.0, clip_norm=1.0, values_only=True
        ),
        sampler=sampler,
    )
    params.update(overrides)
    return _config(dataset, **params)


def _final_sha(config):
    server = FLServer(config)
    result = server.run()
    digest = hashlib.sha256(
        np.ascontiguousarray(server.global_params).tobytes()
    ).hexdigest()
    return digest, result


class TestEngineIntegration:
    def test_noise_zero_is_bit_identical_to_wrapped_strategy(self):
        """The regression the satellite pins: a no-op privacy wrapper must
        not perturb a single bit of the run."""
        dataset = _dataset()
        plain_sha, plain = _final_sha(_config(dataset))
        gluefl, _ = make_gluefl(
            5, group_size=20, sticky_count=4, q=0.2, q_shr=0.16
        )
        wrapped_sha, wrapped = _final_sha(_config(
            dataset, strategy=PrivateStrategy(gluefl, noise_multiplier=0.0),
        ))
        assert plain_sha == wrapped_sha
        for a, b in zip(plain.records, wrapped.records):
            assert a.train_loss == b.train_loss
            assert a.up_bytes == b.up_bytes
            assert a.down_bytes == b.down_bytes
            assert b.privacy_epsilon_spent is None

    def test_epsilon_monotone_and_pinned_by_seed(self):
        """Deterministic seed ⇒ the per-round ε ledger is exactly the
        accountant's closed-form schedule."""
        gluefl, _ = make_gluefl(
            5, group_size=20, sticky_count=4, q=0.2, q_shr=0.16
        )
        result = run_training(_config(
            _dataset(), strategy=PrivateStrategy(
                gluefl, clip_norm=1.0, noise_multiplier=1.0, values_only=True
            ),
        ))
        spend = [r.privacy_epsilon_spent for r in result.records]
        assert all(b > a for a, b in zip(spend, spend[1:]))
        # sticky sampling makes no amplification claim: rate 1.0
        reference = RdpAccountant(1.0, sample_rate=1.0, delta=1e-5)
        for round_idx, eps in enumerate(spend, start=1):
            reference.step()
            assert eps == reference.epsilon(), (
                f"round {round_idx} ledger diverged"
            )

    def test_calibrated_run_lands_within_budget(self):
        result = run_training(_private_config(_dataset()))
        spend = [r.privacy_epsilon_spent for r in result.records]
        assert 0 < spend[-1] <= 6.0

    def test_upstream_bytes_match_non_private_run(self):
        dataset = _dataset()
        plain = run_training(_config(dataset))
        private = run_training(_private_config(dataset))
        assert [r.up_bytes for r in plain.records] == [
            r.up_bytes for r in private.records
        ]

    @pytest.mark.parametrize("scheduler", ["async", "failure"])
    def test_other_schedulers_run_privatized_unchanged(self, scheduler):
        """``failure`` is the fault-injection run: sync rounds over the
        ``storm`` population preset."""
        overrides = dict(skip_empty_rounds=True)
        if scheduler == "async":
            overrides.update(scheduler="async", async_buffer_size=3)
        else:
            overrides["population_preset"] = "storm"
        result = run_training(_private_config(_dataset(), **overrides))
        spend = [r.privacy_epsilon_spent for r in result.records]
        assert all(b >= a for a, b in zip(spend, spend[1:]))
        assert spend[-1] > 0

    def test_poisson_sampler_amplifies_end_to_end(self):
        """The one sampler whose draw is the accountant's analyzed scheme:
        a run under it must spend strictly less than full-rate accounting
        at the same noise multiplier."""
        from repro.fl import PoissonSampler

        server = FLServer(_config(
            _dataset(), sampler=PoissonSampler(5),
            strategy=PrivateStrategy(
                FedAvgStrategy(), epsilon=6.0, clip_norm=1.0
            ),
            skip_empty_rounds=True,
        ))
        result = server.run()
        spend = [r.privacy_epsilon_spent for r in result.records]
        assert spend[-1] > 0
        full_rate = RdpAccountant(
            server.strategy.noise_multiplier, sample_rate=1.0, delta=1e-5
        )
        full_rate.step(len(result.records))
        assert spend[-1] < full_rate.epsilon()

    def test_random_defense_runs_and_reports_no_epsilon(self):
        gluefl, sampler = make_gluefl(
            5, group_size=20, sticky_count=4, q=0.2, q_shr=0.16
        )
        result = run_training(_config(
            _dataset(), sampler=sampler, strategy=PrivateStrategy(
                gluefl, mode="random_defense", defense_fraction=0.5
            ),
        ))
        assert all(r.privacy_epsilon_spent is None for r in result.records)
        assert result.records[-1].num_participants > 0

    def test_norm_aware_sampler_observes_noisy_norms(self):
        """OCS under privacy: every norm the sampler sees must be the
        privatized payload norm, never the raw local-update norm."""
        observed, raw_norms = [], []

        class RecordingOCS(OptimalClientSampler):
            def observe_update(self, client_id, norm):
                observed.append(float(norm))
                super().observe_update(client_id, norm)

        class SpyPrivate(PrivateStrategy):
            def client_compress(self, client_id, delta, weight):
                raw_norms.append(float(np.linalg.norm(delta)))
                return super().client_compress(client_id, delta, weight)

        # a subclass of the wrapper spies on the raw deltas
        config = _config(
            _dataset(),
            strategy=SpyPrivate(
                STCStrategy(q=0.2), clip_norm=0.5, noise_multiplier=1.0,
                values_only=True,
            ),
            sampler=RecordingOCS(5),
        )
        run_training(config)
        assert observed, "norm feedback never fired"
        assert len(observed) == len(raw_norms)
        # compression and feedback run in the same participant order, so
        # pairing is positional; noise makes raw == observed measure-zero
        for raw, seen in zip(raw_norms, observed):
            assert seen != pytest.approx(raw)


class TestAccountingHonesty:
    """The review-hardened seams: sensitivity and amplification claims."""

    def test_noise_disables_client_error_compensation(self):
        """Residual re-addition would breach the clip bound, so active
        noise switches the wrapped strategy's ResidualStore off."""
        from repro.compression.error_comp import ErrorCompMode

        inner = STCStrategy(q=0.5)
        strategy = PrivateStrategy(
            inner, clip_norm=1.0, noise_multiplier=1.0, values_only=True
        )
        strategy.setup(16, np.random.default_rng(0))
        assert inner.residuals.mode is ErrorCompMode.NONE
        # two rounds for the same client: nothing accumulates
        strategy.client_compress(0, np.arange(16.0), 1.0)
        assert len(inner.residuals) == 0
        # setup() resets the store it finds; the NONE store stays NONE
        inner.setup(16, np.random.default_rng(0))
        assert inner.residuals.mode is ErrorCompMode.NONE

    def test_zero_noise_preserves_error_compensation(self):
        from repro.compression.error_comp import ErrorCompMode

        inner = STCStrategy(q=0.5)
        strategy = PrivateStrategy(inner, noise_multiplier=0.0)
        strategy.setup(16, np.random.default_rng(0))
        assert inner.residuals.mode is ErrorCompMode.EC

    def test_random_defense_disables_error_compensation(self):
        """Error feedback would re-upload the randomly masked coordinates
        in later rounds, re-leaking what the defense withheld."""
        from repro.compression.error_comp import ErrorCompMode

        inner = STCStrategy(q=0.5)
        strategy = PrivateStrategy(
            inner, mode="random_defense", defense_fraction=0.5
        )
        strategy.setup(16, np.random.default_rng(0))
        assert inner.residuals.mode is ErrorCompMode.NONE
        strategy.client_compress(0, np.arange(16.0), 1.0)
        assert len(inner.residuals) == 0
        # a zero-fraction defense masks nothing, so EC may stay on
        inner2 = STCStrategy(q=0.5)
        noop = PrivateStrategy(
            inner2, mode="random_defense", defense_fraction=0.0
        )
        noop.setup(16, np.random.default_rng(0))
        assert inner2.residuals.mode is ErrorCompMode.EC

    def test_ec_disabled_through_wrapper_chain(self):
        from repro.compression.error_comp import ErrorCompMode

        # set up from the top of a quantized stack, the private layer
        # still reaches the store beneath it
        gluefl = GlueFLMaskStrategy(q=0.3, q_shr=0.2)
        stack = QuantizedStrategy(
            PrivateStrategy(
                gluefl, clip_norm=1.0, noise_multiplier=1.0, values_only=True
            ),
            bits=8,
        )
        stack.setup(32, np.random.default_rng(0))
        assert gluefl.residuals.mode is ErrorCompMode.NONE

    def test_no_builtin_fixed_size_sampler_claims_amplification(self):
        """The Mironov bound is a Poisson-subsampling bound; fixed-size
        WOR draws (uniform included) must account at rate 1.0."""
        from repro.fl import StickySampler, UniformSampler

        assert UniformSampler(5).dp_sample_rate(40, 1.3) == 1.0
        sticky = StickySampler(5, group_size=20, sticky_count=4)
        assert sticky.dp_sample_rate(40, 1.3) == 1.0
        assert OptimalClientSampler(5).dp_sample_rate(40, 1.3) == 1.0

    def test_poisson_sampler_claims_the_genuine_rate(self):
        from repro.fl import PoissonSampler

        sampler = PoissonSampler(5)
        assert sampler.dp_sample_rate(40, 1.3) == pytest.approx(1.3 * 5 / 40)
        assert sampler.dp_sample_rate(4, 1.3) == 1.0  # capped

    def test_server_uses_sampler_rate_sync_and_full_rate_async(self):
        """The server binds the sampler's own rate under the sync
        scheduler and 1.0 under semiasync/async, and the ε budget is
        calibrated at the bound rate — under all three schedulers, with the
        private layer found beneath a quantizer."""
        from repro.fl import PoissonSampler, UniformSampler
        from repro.privacy import calibrate_noise_multiplier

        class ClaimsTenth(UniformSampler):
            def dp_sample_rate(self, num_clients, overcommit):
                return 0.1

        dataset = _dataset()
        bound = {"sync": 0.1, "semiasync": 1.0, "async": 1.0}
        for scheduler, rate in bound.items():
            private = PrivateStrategy(
                STCStrategy(q=0.2), epsilon=6.0, clip_norm=1.0,
                values_only=True,
            )
            server = FLServer(_config(
                dataset, sampler=ClaimsTenth(5), scheduler=scheduler,
                strategy=QuantizedStrategy(private, bits=8),
            ))
            assert private.sample_rate == rate, scheduler
            assert private.accountant.sample_rate == rate, scheduler
            assert private.noise_multiplier == calibrate_noise_multiplier(
                6.0, 1e-5, server.config.rounds, rate
            ), scheduler
            server.close()

        # the one built-in sampler whose draw is the Poisson scheme
        sync_server = FLServer(_config(
            dataset, sampler=PoissonSampler(5), strategy=PrivateStrategy(
                STCStrategy(q=0.2), epsilon=6.0, clip_norm=1.0,
                values_only=True,
            ),
        ))
        assert sync_server.strategy.sample_rate == pytest.approx(
            min(1.0, 1.3 * 5 / dataset.num_clients)
        )
        sync_server.close()

    def test_quantized_config_splices_privacy_underneath(self):
        """A quantized private run is written Quantized(Private(inner)) —
        noising after quantization would put off-grid floats on
        grid-priced bytes — and the server keeps the stack as written."""
        gluefl, sampler = make_gluefl(
            5, group_size=20, sticky_count=4, q=0.2, q_shr=0.16
        )
        private = PrivateStrategy(
            gluefl, epsilon=6.0, clip_norm=1.0, values_only=True
        )
        server = FLServer(_config(
            _dataset(), strategy=QuantizedStrategy(private, bits=8),
            sampler=sampler,
        ))
        assert isinstance(server.strategy, QuantizedStrategy)
        assert server.strategy.inner is private
        assert private.inner is gluefl
        record = server.run_round()
        assert record.privacy_epsilon_spent > 0
        server.close()


class TestGlueFLRegenUnderPrivacy:
    def test_mask_regen_schedule_survives_the_wrapper(self):
        inner = GlueFLMaskStrategy(q=0.3, q_shr=0.2, regen_interval=3)
        strategy = PrivateStrategy(
            inner, clip_norm=1.0, noise_multiplier=0.5, values_only=True
        )
        strategy.setup(32, np.random.default_rng(0))
        rng = np.random.default_rng(4)
        for round_idx in range(1, 7):
            strategy.begin_round(round_idx)
            assert inner.is_regen_round == (
                round_idx == 1 or round_idx % 3 == 0
            )
            payload = strategy.client_compress(0, rng.normal(size=32), 1.0)
            agg = aggregate_payloads(strategy, [(0, 1.0, payload)])
            strategy.end_round(agg, round_idx)
        assert strategy.privacy_epsilon_spent() > 0
