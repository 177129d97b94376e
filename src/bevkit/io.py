"""The file-format and synthesis names the benchmark reads as ``bevkit.io.<name>``.

Each name lives in the module of its concern; importing this module
loads all of them:

* :mod:`bevkit.text`: the number rule, the row reader and writer, the JSON field checker.
* :mod:`bevkit.bvt1`: the BVT1 tensor container.
* :mod:`bevkit.formats`: trajectory text formats, timestamp association, pair and curve CSVs.
* :mod:`bevkit.config`: the pipeline config.
* :mod:`bevkit.synth`: synthetic drives.
* :mod:`bevkit.flow`: a flow field's BVT1 encoding.
"""

from .bvt1 import read_bvt1, write_bvt1
from .config import default_config
from .flow import flow_from_bvt1, flow_to_bvt1
from .formats import (
    associate_by_timestamp,
    parse_csv_trajectory,
    parse_kitti_poses,
    parse_tum_trajectory,
    write_csv_trajectory,
    write_kitti_poses,
    write_pairs_csv,
    write_scale_curve_csv,
    write_tum_trajectory,
)
from .synth import MotionPrimitive, SynthSpec, synth_trajectory

__all__ = [
    "MotionPrimitive",
    "SynthSpec",
    "associate_by_timestamp",
    "default_config",
    "flow_from_bvt1",
    "flow_to_bvt1",
    "parse_csv_trajectory",
    "parse_kitti_poses",
    "parse_tum_trajectory",
    "read_bvt1",
    "synth_trajectory",
    "write_bvt1",
    "write_csv_trajectory",
    "write_kitti_poses",
    "write_pairs_csv",
    "write_scale_curve_csv",
    "write_tum_trajectory",
]
