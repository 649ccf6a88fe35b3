"""Holds no code, only the name `find_correspondences`, which the
benchmark's tracer wraps as `blendfit.icp.find_correspondences`; the
fitter's twist rows, step-halving rule and cold start are in `solver`.
ROADMAP item 3's benchmark change drops that target and deletes this
file.
"""

from .correspondence import find_correspondences  # noqa: F401  not called; perfbench/tracer.py wraps it by this name
