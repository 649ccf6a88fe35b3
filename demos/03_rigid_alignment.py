"""Point-to-plane alignment: recovering head pose from a depth frame.

Renders the neutral head at a known pose, starts the alignment from a
deliberately wrong guess, and watches point-to-plane ICP pull it back.
The per-iteration RMS error comes out of the diagnostics.
"""

import numpy as np

from blendfit import CameraIntrinsics, RigidPose
from blendfit.geometry import pose_delta, quat_from_rotvec, quat_multiply
from blendfit.icp import align_rigid, initial_pose_from_depth
from blendfit.synth import frontal_pose, make_test_head, render_depth

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

recovered, diag = align_rigid(head.neutral, frame, intr, init)
rot1, trans1 = pose_delta(recovered, true_pose)
print(f"after ICP:     {np.rad2deg(rot1):.4f} deg, {trans1 * 1e3:.4f} mm")

# mean_errors holds mean squared point-to-plane distances (m^2); their
# square root is the RMS distance
print("\nRMS point-to-plane error per iteration:")
for i, e in enumerate(diag.mean_errors):
    print(f"  iter {i:2d}: {np.sqrt(e) * 1e3:.4f} mm")

# with no guess at all, the depth centroid gives a workable starting point
guess = initial_pose_from_depth(head.neutral, frame, intr)
rotg, transg = pose_delta(guess, true_pose)
print(f"\ncentroid-only initial guess lands within {transg * 1e2:.1f} cm; "
      "a cold fit_frame starts there and its joint steps do the rest")
