"""Tests for the numpy training loop and the convergence-study utilities."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.training.convergence import (
    ConvergenceCurve,
    ConvergenceStudy,
    relative_loss_error,
    steps_to_reach_loss,
)
from repro.training.trainer import Trainer, TrainerConfig
from repro.workloads.datasets import SyntheticTextDataset, WIKITEXT_LIKE
from repro.workloads.model_configs import tiny_test_config


@pytest.fixture(scope="module")
def dataset():
    return SyntheticTextDataset(WIKITEXT_LIKE)


@pytest.fixture(scope="module")
def config():
    return tiny_test_config()


def make_trainer(config, dataset, **overrides):
    defaults = dict(batch_size=2, seq_length=16, learning_rate=3e-3,
                    num_devices=4, seed=3)
    defaults.update(overrides)
    return Trainer(config, TrainerConfig(**defaults), dataset)


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainerConfig(execution="jax")
        with pytest.raises(ValueError):
            TrainerConfig(learning_rate=0.0)


class TestTrainer:
    def test_vocab_mismatch_rejected(self, dataset):
        small_vocab = dataclasses.replace(tiny_test_config(), vocab_size=16)
        with pytest.raises(ValueError):
            Trainer(small_vocab, TrainerConfig(), dataset)

    def test_training_reduces_loss(self, config, dataset):
        trainer = make_trainer(config, dataset, batch_size=4, seq_length=32)
        result = trainer.train(30)
        assert len(result.lm_losses) == 30
        assert np.mean(result.lm_losses[-5:]) < np.mean(result.lm_losses[:5]) - 0.3

    def test_routing_trace_extracted(self, config, dataset):
        trainer = make_trainer(config, dataset)
        result = trainer.train(4)
        trace = result.routing_trace
        assert trace is not None
        assert trace.routing.shape == (4, config.num_layers, 4, config.num_experts)
        # Token conservation: all assignments accounted for.
        total_assignments = 2 * 16 * config.top_k
        assert np.all(trace.routing.sum(axis=(2, 3)) == total_assignments)

    def test_expert_imbalance_recorded(self, config, dataset):
        trainer = make_trainer(config, dataset)
        result = trainer.train(3)
        imbalance = result.expert_imbalance()
        assert len(imbalance) == 3
        assert all(v >= 1.0 for v in imbalance)

    def test_final_loss_window(self, config, dataset):
        trainer = make_trainer(config, dataset)
        result = trainer.train(4)
        assert result.final_loss(window=2) == pytest.approx(
            np.mean(result.lm_losses[-2:]))

    def test_aux_loss_weight_changes_trajectory(self, config, dataset):
        plain = make_trainer(config, dataset, aux_loss_weight=0.0).train(6)
        heavy = make_trainer(config, dataset, aux_loss_weight=1.0).train(6)
        assert not np.allclose(plain.lm_losses, heavy.lm_losses)


class TestFSEPExecutionEquivalence:
    def test_fsep_matches_reference_losses(self, config, dataset):
        """The paper's Fig. 9(b) claim: relative error well below 1e-3."""
        reference = make_trainer(config, dataset, aux_loss_weight=1e-4).train(5)
        fsep = make_trainer(config, dataset, aux_loss_weight=1e-4,
                            execution="fsep").train(5)
        errors = relative_loss_error(fsep.lm_losses, reference.lm_losses)
        assert np.max(np.abs(errors)) < 1e-3

    def test_fsep_trainer_reduces_loss(self, config, dataset):
        result = make_trainer(config, dataset, execution="fsep",
                              batch_size=4, seq_length=32).train(15)
        assert result.lm_losses[-1] < result.lm_losses[0]


class TestPinnedTraining:
    """Reference and FSEP training runs at three configurations, pinned by
    digest.

    FSEP changes only which device computes which (token, expert) pair, so
    a refactor of the training path must leave these runs bit-identical.
    Each digest is the sha256 of one run's ``losses``, ``lm_losses`` and
    ``aux_losses``, every parameter's value and gradient after the last
    step, and the routing trace.  At 2 and 4 devices FSEP equals the
    reference bit for bit; at 8 its expert groups sum in another order.
    Re-pin only for an intended output change, and record the change and
    its new digests in CHANGES.md.
    """

    #: (aux_loss_weight, seed, num_devices) -> execution -> digest.
    PINNED = {
        (0.0, 0, 4): {
            "reference":
                "acf9d612dbdc7f5ac0f1b372830d26395b0293df4e24ee1f90b758621d1810d9",
            "fsep":
                "acf9d612dbdc7f5ac0f1b372830d26395b0293df4e24ee1f90b758621d1810d9",
        },
        (1e-4, 3, 8): {
            "reference":
                "90f5d30feac2ef06d8ff3f779bd728a7f1c82db62ddf1fb19f13e837af598044",
            "fsep":
                "093738949c033e953733969719922f4077579a594dd8f7a8bc354b2634de1099",
        },
        (1e-2, 7, 2): {
            "reference":
                "0b5217203631b2201be50b3969c8aff3e59866867c6b36a556b76fa19cbe0640",
            "fsep":
                "0b5217203631b2201be50b3969c8aff3e59866867c6b36a556b76fa19cbe0640",
        },
    }

    @staticmethod
    def digest(trainer, result):
        digest = hashlib.sha256()
        for curve in (result.losses, result.lm_losses, result.aux_losses):
            digest.update(np.asarray(curve, dtype=np.float64).tobytes())
        for name, param in trainer.model.named_parameters():
            digest.update(name.encode())
            digest.update(param.value.tobytes())
            digest.update(param.grad.tobytes())
        routing = result.routing_trace.routing
        digest.update(f"{routing.dtype.str}{routing.shape}".encode())
        digest.update(routing.tobytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("execution", ["reference", "fsep"])
    @pytest.mark.parametrize("aux,seed,devices", sorted(PINNED))
    def test_run_matches_pinned_digest(self, config, dataset, aux, seed,
                                       devices, execution):
        trainer = Trainer(config, TrainerConfig(
            batch_size=4, seq_length=16, learning_rate=3e-3,
            aux_loss_weight=aux, execution=execution, num_devices=devices,
            seed=seed), dataset)
        result = trainer.train(6)
        assert (self.digest(trainer, result)
                == self.PINNED[aux, seed, devices][execution])


class TestConvergenceUtilities:
    def test_relative_loss_error_shapes(self):
        with pytest.raises(ValueError):
            relative_loss_error([1.0], [1.0, 2.0])
        errors = relative_loss_error([1.0, 2.0], [1.0, 1.0])
        assert errors.tolist() == [0.0, 1.0]

    def test_steps_to_reach_loss(self):
        losses = [5.0, 4.0, 3.0, 2.0, 1.0]
        assert steps_to_reach_loss(losses, 2.5) == 3
        assert steps_to_reach_loss(losses, 0.5) is None
        assert steps_to_reach_loss([], 1.0) is None

    def test_convergence_curve_time_axis(self):
        curve = ConvergenceCurve(label="laer", losses=[3.0, 2.0, 1.0],
                                 seconds_per_iteration=2.0)
        assert curve.loss_vs_time()[-1] == (6.0, 1.0)

    def test_convergence_study_sweep(self, config, dataset):
        study = ConvergenceStudy(
            model_config=config, dataset=dataset, num_steps=4,
            base_trainer_config=TrainerConfig(batch_size=2, seq_length=16,
                                              learning_rate=3e-3, num_devices=4,
                                              seed=5))
        results = study.aux_loss_sweep([0.0, 1e-2])
        assert set(results) == {0.0, 1e-2}
        assert all(len(r.lm_losses) == 4 for r in results.values())

    def test_loss_over_time_requires_iteration_times(self, config, dataset):
        study = ConvergenceStudy(
            model_config=config, dataset=dataset, num_steps=2,
            base_trainer_config=TrainerConfig(batch_size=2, seq_length=8,
                                              num_devices=4))
        results = {"laer": study.run_single(0.0)}
        with pytest.raises(KeyError):
            study.loss_over_time(results, {})
        curves = study.loss_over_time(results, {"laer": 0.5})
        assert curves[0].label == "laer"
