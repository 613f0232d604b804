"""Workload generators: the seeded data sets the examples, tests and benchmarks draw."""

from repro.workloads.generators import (
    clustered_intervals,
    diagonal_staircase_points,
    nested_intervals,
    random_class_objects,
    random_hierarchy,
    balanced_hierarchy,
    chain_hierarchy,
    star_hierarchy,
    random_intervals,
    random_points,
    interval_points,
    zipf_choices,
)

__all__ = [
    "balanced_hierarchy",
    "chain_hierarchy",
    "clustered_intervals",
    "diagonal_staircase_points",
    "interval_points",
    "nested_intervals",
    "random_class_objects",
    "random_hierarchy",
    "random_intervals",
    "random_points",
    "star_hierarchy",
    "zipf_choices",
]
