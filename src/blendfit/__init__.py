"""Facial control estimation from depth frames and 2D landmarks.

The package recovers per-frame blendshape coefficients and rigid head
pose by minimizing an L1-regularized combination of point-to-plane
depth residuals and landmark reprojection error, and ships a synthetic
data oracle plus viseme-weighted evaluation metrics so every stage is
testable without capture hardware.

File format readers and writers live in `blendfit.io`; the command-line
front end in `blendfit.cli`.
"""

from .correspondence import (
    CorrespondenceSet,
    DepthFrame,
    GateConfig,
    LandmarkSet,
    NoDataError,
    find_correspondences,
    landmark_jacobian,
)
from .geometry import (
    BehindCameraError,
    BlendshapeModel,
    BscSequence,
    CameraIntrinsics,
    DimensionMismatchError,
    InvalidDepthError,
    IsolatedVertexWarning,
    Mesh,
    MeshValidationError,
    RigidPose,
    SequenceFrame,
    backproject,
    evaluate_mesh,
    pose_delta,
    project,
    validate_bsc,
    vertex_normals,
)
from .icp import (
    DegenerateGeometryError,
    IcpDiagnostics,
    InsufficientDataError,
    align_rigid,
    initial_pose_from_depth,
)
from .metrics import (
    ErrorBreakdown,
    FrameAlignment,
    UnknownPhonemeError,
    VisemeBucket,
    VisemeTable,
    hybrid_l1_cosine,
    phoneme_to_viseme,
    sequence_report,
    viseme_weighted_error,
)
from .personalize import (
    ExampleExpression,
    PersonalizeConfig,
    RankDeficiencyError,
    personalize,
)
from .solver import (
    FrameFit,
    QuadraticForm,
    SolverConfig,
    TrackingError,
    TrackResult,
    assemble_quadratic,
    evaluate_objective,
    fit_frame,
    solve_l1_box,
    track_sequence,
)
from .synth import (
    GeneratedSequence,
    NoiseConfig,
    ScriptFrame,
    SequenceScript,
    add_depth_noise,
    constant_script,
    default_landmarks,
    frontal_pose,
    generate_frame,
    generate_sequence,
    make_test_head,
    project_landmarks,
    render_depth,
)

__version__ = "0.1.0"
