"""Uniform laser-shot coverage planning and simulation on facial scans."""

from .errors import (
    AbortedOnSafety,
    ConfigError,
    ContactError,
    DegenerateInput,
    DegenerateNormal,
    EmptyCloud,
    EmptyLog,
    EmptySegment,
    FacelaserError,
    InvalidParam,
    MalformedLandmarks,
    MissingField,
    NoCorrespondences,
    ParseError,
    TooFewPoints,
)
from .geometry import (
    CameraIntrinsics,
    PoseVector6,
    RigidTransform,
    axis_angle_to_rotation,
    interpolate_rotation,
    project_points,
    rotation_from_normal,
    rotation_to_axis_angle,
)
from .cloud import (
    PointCloud,
    RayHit,
    VoxelGrid,
    concatenate,
    estimate_normals,
    load_ply,
    raycast,
    save_ply,
    voxel_downsample,
)
from .registration import (
    IcpResult,
    estimate_viewpoints,
    icp_point_to_plane,
    merge_views,
)
from .segmentation import (
    REGION_LABELS,
    FaceLandmarks,
    RegionPolygon,
    SegmentedFace,
    build_region_polygons,
    points_in_polygon,
    polygon_is_simple,
    segment_face,
)
from .pathplan import (
    PlannerConfig,
    SegmentPath,
    Strip,
    bin_strips,
    path_to_poses,
    plan_segment,
    strip_obliquity,
    sweep_patch,
)
from .simulator import (
    CoverageReport,
    EffectorState,
    MotionScript,
    PlanarRegion,
    RunResult,
    SensorRig,
    ShotLog,
    SimConfig,
    Trajectory,
    coverage_metrics,
    default_shot_region,
    motion_exceeds_deadband,
    repulsive_velocity,
    run_path,
    sensor_fusion,
    step,
    transform_path,
)

__version__ = "0.1.0"
