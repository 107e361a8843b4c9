"""Differentiable, batched forward kinematics for URDF-described robots."""

import os as _os

# Honor the thread override before numpy (and its BLAS) first load.
_threads = _os.environ.get("DIFFKIN_NUM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .autodiff import DualArray, batch_jacobian, seed_array  # noqa: E402
from .bench import BenchReport, run_bench  # noqa: E402
from .identify import (  # noqa: E402
    IdentificationResult,
    IdentifyConfig,
    ParamEstimator,
    SampleGenerator,
    run_identification,
)
from .kinematics import (  # noqa: E402
    FkEngine,
    ShapeError,
    geometric_jacobian,
    limit_violations,
    pose_jacobian,
)
from .metrics import (  # noqa: E402
    phi2_loss,
    phi3_loss,
    phi4_loss,
    phi5_loss,
    rotation_with_rmse,
)
from .transforms import (  # noqa: E402
    PoseRPY,
    pose_from_transform,
    quaternion_from_rotation,
    rot_x,
    rot_y,
    rot_z,
    rpy_to_rotation,
    sixdof_to_transform,
)
from .urdf import (  # noqa: E402
    ChainError,
    Joint,
    JointType,
    KinematicChain,
    Link,
    RobotModel,
    UrdfError,
    extract_chain,
    parse_urdf,
    serialize_urdf,
    substitute_link_with_joint,
)

__version__ = "0.1.0"
