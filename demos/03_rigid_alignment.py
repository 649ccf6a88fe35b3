"""Point-to-plane alignment: recovering head pose from a depth frame.

Renders the neutral head at a known pose, starts the alignment from a
deliberately wrong guess, and watches the fitter's point-to-plane pose
step pull it back. The per-iteration objective comes out of the fit.
Then compares the two cold starts a fit with no guess can take.
"""

import numpy as np

from blendfit import CameraIntrinsics, RigidPose
from blendfit.geometry import pose_delta, quat_from_rotvec, quat_multiply
from blendfit.solver import align_rigid, initial_pose_from_depth
from blendfit.synth import (
    default_landmarks,
    frontal_pose,
    make_test_head,
    project_landmarks,
    render_depth,
)

head = make_test_head()
intr = CameraIntrinsics(fx=500.0, fy=500.0, cx=160.0, cy=120.0,
                        width=320, height=240)

true_pose = frontal_pose()
frame = render_depth(head.neutral, true_pose, intr)

# start 5 degrees and 2 centimeters away from the truth
rotvec = np.deg2rad(5.0) * np.array([0.0, 1.0, 0.0])
init = RigidPose(quat_multiply(quat_from_rotvec(rotvec), true_pose.rotation),
                 true_pose.translation + [0.02, 0.0, 0.0])
rot0, trans0 = pose_delta(init, true_pose)
print(f"initial error: {np.rad2deg(rot0):.2f} deg, {trans0 * 1e3:.1f} mm")

recovered, fit = align_rigid(head.neutral, frame, intr, init)
rot1, trans1 = pose_delta(recovered, true_pose)
print(f"after alignment: {np.rad2deg(rot1):.4f} deg, {trans1 * 1e3:.4f} mm")

# the fitter's objective: w_d times the sum of squared point-to-plane
# distances (m^2) over that iteration's matches
print("\nobjective per iteration:")
for i, f in enumerate(fit.objective_trace):
    print(f"  iter {i:2d}: {f:.6g}")

# with no guess at all, a cold fit_frame starts from the frame itself:
# from its landmarks (the mesh's landmark vertices aligned in closed form
# to their pixels lifted by the depth under them) when at least six are
# usable, else from the depth centroid with no rotation. Shown on a head
# turned 12 degrees, which its joint steps then align
turned = RigidPose.from_axis_angle((0.3, 1.0, 0.2), np.deg2rad(12.0), (0.01, -0.01, 0.55))
turned_frame = render_depth(head.neutral, turned, intr)
landmarks = project_landmarks(head.neutral, turned, intr, default_landmarks(head))
print(f"\ncold starts on a head turned 12 deg ({len(landmarks)} landmarks):")
for name, lms in (("landmark start", landmarks), ("depth centroid", None)):
    guess = initial_pose_from_depth(head.neutral, turned_frame, intr, lms)
    rotg, transg = pose_delta(guess, turned)
    print(f"  {name}: {np.rad2deg(rotg):5.2f} deg, {transg * 1e3:5.2f} mm off")
