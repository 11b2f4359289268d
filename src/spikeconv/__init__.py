"""Event-driven spiking convolutional networks trained with STDP and
target-timestamp threshold adaptation: encoder, simulator, trainer,
readout, linear-SVM evaluation and a CLI.
"""

from .core import RngStreams, Shape3
from .encoding import (
    CodingWindow,
    DoGParams,
    dog_filter,
    encode_dataset,
    encode_image_grid,
    gaussian_kernel,
    split_channels,
)
from .network import CONV, FC, POOL, LayerSpec, Network, NetworkSpec
from .plasticity import (
    AdditiveStdp,
    BiologicalStdp,
    MultiplicativeStdp,
    ThresholdParams,
    adapt_threshold_target,
    adapt_threshold_winner,
    apply_stdp,
)
from .readout import (
    decode_grid,
    extract_features,
    mean_sparsity,
    reconstruct_filter,
    sparsity,
    sum_pool,
)
from .simulate import (
    NO_INHIBITION,
    InhibitionPolicy,
    column_response,
    forward_times,
)
from .svm import LinearModel, accuracy, fit, predict
from .training import (
    EnsembleMember,
    TrainConfig,
    TrainingLog,
    broadcast_column,
    sample_patch,
    train_ensemble,
    train_layer,
    train_network,
)

__version__ = "0.1.0"
