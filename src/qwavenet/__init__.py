"""Queue-cached autoregressive WaveNet inference.

Sample-by-sample generation through a stack of width-2 dilated causal
convolution layers, where each layer keeps its delayed tap's products of
its recent inputs in a fixed-length ring so one emitted sample costs a
constant number of matrix-vector products.  Arithmetic runs either in double precision or in a configurable
saturating fixed-point format; an analytic cycle cost model covers the
matvec engine's parallelism parameters.
"""

from .engine import (
    DEFAULT_PARALLELISM,
    CostEstimate,
    ParallelismParams,
    ShapeMismatchError,
    estimate_cycles,
    matvec,
    matvec_cols,
)
from .fixedpoint import (
    FX27_8,
    FormatMismatchError,
    FxFormat,
    FxValue,
    fx_add,
    fx_mul,
    fx_tanh,
    parse_format,
    to_fixed,
    to_real,
)
from .inference import (
    OpStats,
    TeacherForcedTrace,
    Waveform,
    argmax_sample,
    default_layer_params,
    dequantize,
    generate,
    generate_naive,
    quantize,
    teacher_forced_layer_outputs,
)
from .metrics import (
    LengthMismatchError,
    SignalTooShortError,
    SpectrogramParams,
    log_spectral_distance,
    mse,
    normalized_log_spectrogram,
    stft,
)
from .model import (
    ConfigError,
    LayerSpec,
    ModelConfig,
    QueueMemory,
    config_digest,
    estimate_queue_memory,
    load_config,
    receptive_field,
    save_config,
    validate_config,
)
from .numerics import FixedMode, RealMode, mul_raw, parse_mode, quantize_real
from .queues import (
    CyclicQueue,
    LayerState,
    dilated_conv_step,
    naive_dilated_conv_sequence,
)
from .wavio import WavFormatError, read_wav, write_wav
from .weights import (
    BadMagicError,
    TruncatedFileError,
    WeightFileError,
    WeightSet,
    WeightShapeError,
    load_weights,
    random_weights,
    save_weights,
)

__version__ = "0.1.0"
