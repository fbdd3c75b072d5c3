"""Physics-editable material-point simulation over point clouds."""

__version__ = "0.1.0"

from .materials import (MaterialClass, MaterialField, MaterialModel,
                        ElasticDerived, ParamNormalization, ValidationReport,
                        decode_material_field, derive_moduli, validate_field,
                        wave_speeds)
from .conditioning import (AssignmentResult, AttentionWeights, FeatureBundle,
                           cross_attention, hierarchical_condition, soft_assign)
from .losses import (LossWeights, SupervisionTargets, assignment_loss,
                     contrastive_loss, finite_diff_check, sample_triplets,
                     smoothness_loss, task_loss, total_loss)
from .fill import FillConfig, fill_field, fill_interior, inherit_properties
from .constitutive import batch_constitutive, constitutive_stress
from .engine import (ObjectInit, SimConfig, SimulationState, build_state,
                     simulate, stable_dt, step)
from .schedule import (InstructionSchedule, Intervention, ScheduleRuntime,
                       Selector, Trigger, compile_schedule, ramp_value)
from .trajectory import (Trajectory, export_trajectory, read_trajectory,
                         verify_trajectory)
from .raster import CameraSpec, RasterFrame, rasterize_frame, write_pgm
from .fieldio import read_field, write_field

__all__ = [name for name in dir() if not name.startswith("_")]
