"""Synthetic datasets, partitioning and batching for the FL simulation."""

from .batching import (
    ImageBatcher,
    SequenceBatcher,
    eval_image_batches,
    eval_sequence_batches,
)
from .images import ImageDataset, class_prototypes, make_image_dataset
from .partition import (
    contiguous_client_chunk,
    contiguous_client_span,
    fleet_shard_rng,
    partition_dirichlet,
    partition_iid,
    partition_label_shards,
    partition_stream_contiguous,
)
from .registry import (
    ALL_TASK_NAMES,
    FLEET_TASK_NAME,
    TASK_NAMES,
    ArraySource,
    ClientDataSource,
    FederatedTask,
    FleetImageSource,
    make_fleet_task,
    make_task,
    task_summary,
)
from .text import (
    MarkovLM,
    TextCorpus,
    build_markov_lm,
    make_text_corpus,
    make_user_corpora,
    perturb_topic,
)
from .vocab import Vocabulary

__all__ = [
    "ImageBatcher",
    "SequenceBatcher",
    "eval_image_batches",
    "eval_sequence_batches",
    "ImageDataset",
    "class_prototypes",
    "make_image_dataset",
    "contiguous_client_chunk",
    "contiguous_client_span",
    "fleet_shard_rng",
    "partition_dirichlet",
    "partition_iid",
    "partition_label_shards",
    "partition_stream_contiguous",
    "TASK_NAMES",
    "FLEET_TASK_NAME",
    "ALL_TASK_NAMES",
    "ClientDataSource",
    "ArraySource",
    "FleetImageSource",
    "FederatedTask",
    "make_task",
    "make_fleet_task",
    "task_summary",
    "MarkovLM",
    "TextCorpus",
    "build_markov_lm",
    "make_text_corpus",
    "make_user_corpora",
    "perturb_topic",
    "Vocabulary",
]
