"""Core contribution: the FIG representation, the MRF similarity model,
Algorithm 1 retrieval and the temporal recommendation extension."""

from __future__ import annotations

from repro.core.classification import KNNClassifier, Prediction, classification_accuracy
from repro.core.cliques import Clique, enumerate_cliques
from repro.core.clustering import ClusteringResult, cluster_purity, k_medoids, pairwise_similarity
from repro.core.correlation import CorrelationModel, OccurrenceStats
from repro.core.fig import FeatureInteractionGraph
from repro.core.mrf import DEFAULT_LAMBDAS, CliqueScorer, MRFParameters, MRFSimilarity
from repro.core.objects import ALL_TYPES, Feature, FeatureType, MediaObject
from repro.core.recommendation import Recommender, UserProfile
from repro.core.retrieval import (
    RankedResult,
    RetrievalEngine,
    correlation_model_for_corpus,
    ranked_sort,
)
from repro.core.training import (
    CoordinateAscentTrainer,
    TrainingResult,
    TrainingStep,
    train_edge_threshold,
)

__all__ = [
    "ALL_TYPES",
    "Clique",
    "CliqueScorer",
    "ClusteringResult",
    "CoordinateAscentTrainer",
    "CorrelationModel",
    "DEFAULT_LAMBDAS",
    "Feature",
    "FeatureInteractionGraph",
    "FeatureType",
    "KNNClassifier",
    "MRFParameters",
    "MRFSimilarity",
    "MediaObject",
    "OccurrenceStats",
    "Prediction",
    "RankedResult",
    "ranked_sort",
    "Recommender",
    "RetrievalEngine",
    "TrainingResult",
    "TrainingStep",
    "UserProfile",
    "classification_accuracy",
    "cluster_purity",
    "correlation_model_for_corpus",
    "enumerate_cliques",
    "k_medoids",
    "pairwise_similarity",
    "train_edge_threshold",
]
