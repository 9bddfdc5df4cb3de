"""Sequence labelling under partial annotation.

Train NER taggers on corpora where only a fraction of the gold entities is
annotated: plain supervised fits on the partial labels, teacher-student
self-training, self-training with the known annotations forced back into the
targets, and cross-fit estimation of per-token label distributions used as
soft training targets.
"""
from .annotation import (EntityAnnotationSet, PartiallyAnnotatedSentence,
                         guide_correct, mask_entities)
from .bde import BdeConfig, LineageRecord, run_bde
from .corpus import (Corpus, EntitySpan, LabelScheme, Sentence, SynthConfig,
                     decode_bio, encode_bio, generate_synthetic, parse_conll,
                     serialize_conll)
from .evaluation import EvalResult, evaluate_model, span_f1
from .experiment import ExperimentConfig, run_experiment
from .selftrain import SelfTrainConfig, run_method, self_train
from .tagger import TaggerConfig, TaggerModel, train

__version__ = "0.1.0"

__all__ = [
    "BdeConfig", "Corpus", "EntityAnnotationSet", "EntitySpan",
    "EvalResult", "ExperimentConfig", "LabelScheme", "LineageRecord",
    "PartiallyAnnotatedSentence", "SelfTrainConfig", "Sentence", "SynthConfig",
    "TaggerConfig", "TaggerModel", "decode_bio", "encode_bio", "evaluate_model",
    "generate_synthetic", "guide_correct", "mask_entities", "parse_conll",
    "run_bde", "run_experiment", "run_method", "self_train", "serialize_conll",
    "span_f1", "train", "__version__",
]
