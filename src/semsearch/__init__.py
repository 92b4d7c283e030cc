"""Semantic object search on waypoint graphs.

Score seen objects by semantic affinity to an unseen target, plan a search
path that trades travel distance against visiting high-probability waypoints
early, simulate episodes against ground truth, and report SR / SPL / PE.
"""

__version__ = "0.1.0"
