"""Information-gain driven scheduling of streaming perception modules."""

from .change_detect import (
    ChangeDetectConfig,
    HistogramShift,
    PatchDiff,
    change_ratio,
    chi_square_shift,
    composition_change_trigger,
    grayscale_diff,
    motion_status,
)
from .config import ConfigError, RunConfig
from .engine import (
    EngineConfig,
    EngineError,
    EngineState,
    PipelineConfig,
    PolicyKind,
    RunLog,
    SimEngine,
    default_modules,
    run,
    run_offline,
)
from .metrics import (
    GroundTruthKeyframes,
    KeyframeThresholds,
    MetricsReport,
    activation_recall,
    build_report,
    extract_keyframes,
    keyframe_accuracy,
    latency,
)
from .rewards import (
    KeypointConfidenceHistory,
    RewardBreakdown,
    RewardConfig,
    box_uniform_entropy,
    detection_info_gain,
    detection_reward,
    extrapolate_confidence,
    keypoint_entropy,
    keypoint_sigma,
    pose_reward,
    post_execution_entropy,
    pre_execution_entropy,
)
from .scene import (
    DETECTION,
    POSE,
    Entity,
    EntityKind,
    FrameStamp,
    ModuleId,
    MotionStatus,
    PatchRegion,
)
from .scheduler import ActivationDecision, select
from .toolkit import (
    DetectedBox,
    DetectionOutput,
    HumanPose,
    ModuleSpec,
    NoiseConfig,
    OutputKind,
    PoseOutput,
    simulate_detection,
    simulate_pose,
)
from .tracker import (
    KalmanConfig,
    NumericalError,
    TrackState,
    init_track,
    measurement_covariance,
    predict,
    update,
)
from .traces import Trace, TraceError, TraceFrame, generate_trace, read_trace, write_trace

__version__ = "0.1.0"
