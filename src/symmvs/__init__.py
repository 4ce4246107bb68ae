"""Symmetric multi-view stereo: plane-sweep depth estimation with joint
cross-view consistent refinement, occlusion reasoning, fusion, and metrics.
"""

from .consistency import (
    LossBreakdown,
    OcclusionMask,
    SceneState,
    compute_all_masks,
    occlusion_mask,
    total_loss,
)
from .fusion import PointCloud, depths_to_cloud, filter_consistent
from .geometry import (
    CameraView,
    DepthHypotheses,
    DepthMap,
    WarpField,
    bilinear_sample,
    plane_homography,
    synthesize_view,
    warp_depth,
    warp_field_from_homography,
)
from .metrics import (
    CloudMetrics,
    DepthMetrics,
    cloud_metrics,
    depth_metrics,
    overall_from_means,
)
from .photometry import (
    CensusDescriptor,
    LossWeights,
    census_distance,
    census_transform,
    charbonnier,
    ssim_map,
)
from .scenegen import PlanePrimitive, SceneSpec, render_scene
from .solver import (
    SolverConfig,
    SolverState,
    init_depths,
    loss_gradient,
    refine,
    run_pipeline,
)
from .volume import (
    CostVolume,
    FeatureMap,
    build_cost_volume,
    extract_features,
    regress_depth,
    smooth_cost_volume,
)

__version__ = "0.1.0"
