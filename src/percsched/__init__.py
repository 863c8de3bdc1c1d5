"""Information-gain driven scheduling of streaming perception modules."""

from .change_detect import (
    ChangeDetectConfig,
    chi_square_shift,
    composition_change_trigger,
    grayscale_diff,
    motion_status,
)
from .config import ConfigError, RunConfig
from .engine import (
    EngineConfig,
    EngineError,
    PipelineConfig,
    PolicyKind,
    RunLog,
    SimEngine,
    run,
    run_offline,
)
from .metrics import (
    GroundTruthKeyframes,
    KeyframeThresholds,
    MetricsReport,
    build_report,
    extract_keyframes,
    latency,
)
from .rewards import (
    KeypointConfidenceHistory,
    RewardBreakdown,
    RewardConfig,
    box_uniform_entropy,
    detection_info_gain,
    detection_reward,
    pose_reward,
    post_execution_entropy,
    pre_execution_entropy,
)
from .scene import (
    DETECTION,
    POSE,
    Entity,
    EntityKind,
    ModuleId,
    MotionStatus,
    PatchRegion,
)
from .scheduler import select
from .toolkit import (
    DetectionOutput,
    NoiseConfig,
    PoseOutput,
    simulate_detection,
    simulate_pose,
)
from .tracker import KalmanConfig, NumericalError, TrackBank
from .traces import Trace, TraceError, TraceFrame, generate_trace, read_trace, write_trace

__version__ = "0.1.0"
