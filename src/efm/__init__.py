"""Electrostatic field matching: distribution-to-distribution transport by
moving samples along the field lines of oppositely charged sample plates."""

from .core import CapacitorConfig, EfmError, seeded_stream, validate_config
from .data import Dataset, gen_gaussian, gen_swiss_roll, gen_two_gaussians
from .field import EmpiricalField, PlateSet, point_charge_field, sphere_surface_area
from .metrics import DistanceReport, energy_distance, sliced_w1
from .model import FieldApproximator, load_weights, save_weights
from .training import train
from .transport import (Trajectory, direction_probability, map_batch, stop_probability,
                        trace_lines_t)

__all__ = [
    "CapacitorConfig", "EfmError", "seeded_stream", "validate_config",
    "Dataset", "gen_gaussian", "gen_swiss_roll", "gen_two_gaussians",
    "EmpiricalField", "PlateSet", "point_charge_field", "sphere_surface_area",
    "DistanceReport", "energy_distance", "sliced_w1",
    "FieldApproximator", "load_weights", "save_weights",
    "train",
    "Trajectory", "direction_probability", "map_batch", "stop_probability",
    "trace_lines_t",
]

__version__ = "0.1.0"
