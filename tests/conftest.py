"""Shared fixtures: small URDF models with known geometry."""

from pathlib import Path

import numpy as np
import pytest

from diffkin import urdf

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# two-revolute planar arm, both axes +z, unit links along x
ARM2R = """
<robot name="arm2r">
  <link name="base"/>
  <link name="upper"/>
  <link name="lower"/>
  <link name="tip"/>
  <joint name="shoulder" type="revolute">
    <parent link="base"/><child link="upper"/>
    <axis xyz="0 0 1"/>
    <limit lower="-3.1" upper="3.1"/>
  </joint>
  <joint name="elbow" type="revolute">
    <parent link="upper"/><child link="lower"/>
    <origin xyz="1 0 0"/>
    <axis xyz="0 0 1"/>
    <limit lower="-3.1" upper="3.1"/>
  </joint>
  <joint name="wrist" type="fixed">
    <parent link="lower"/><child link="tip"/>
    <origin xyz="1 0 0"/>
  </joint>
</robot>
"""

# one of every joint type, most with off-axis geometry
MIXED = """
<robot name="mixed">
  <link name="base"/><link name="l1"/><link name="l2"/><link name="l3"/>
  <link name="l4"/><link name="l5"/><link name="l6"/>
  <joint name="j1" type="revolute">
    <parent link="base"/><child link="l1"/>
    <origin xyz="0.1 0.2 0.3" rpy="0.1 -0.2 0.3"/>
    <axis xyz="0.26726124191242440 0.53452248382484879 0.80178372573726657"/>
    <limit lower="-3.0" upper="3.0"/>
  </joint>
  <joint name="j2" type="prismatic">
    <parent link="l1"/><child link="l2"/>
    <origin xyz="0 0.5 0" rpy="0 0.4 0"/>
    <axis xyz="-0.57735026918962584 0.57735026918962584 0.57735026918962584"/>
    <limit lower="-1.0" upper="1.0"/>
  </joint>
  <joint name="j3" type="continuous">
    <parent link="l2"/><child link="l3"/>
    <origin xyz="0.2 0 0.1"/>
    <axis xyz="0 -1 0"/>
  </joint>
  <joint name="j4" type="planar">
    <parent link="l3"/><child link="l4"/>
    <origin xyz="0 0 0.4" rpy="0.2 0 -0.1"/>
    <axis xyz="0.48 0.6 0.64"/>
  </joint>
  <joint name="j5" type="floating">
    <parent link="l4"/><child link="l5"/>
    <origin xyz="0.1 0.1 0.1" rpy="0 0.1 0"/>
  </joint>
  <joint name="j6" type="fixed">
    <parent link="l5"/><child link="l6"/>
    <origin xyz="0 0 0.25" rpy="0 0 1.0"/>
  </joint>
</robot>
"""

# the benchmark's robots, read from the files its workloads parse:
# a 3R arm with a fixed camera mount at a known offset (identification
# target), and the 4R arm of the throughput runs
CAM_ARM = (SCRIPTS / "cam_arm.urdf").read_text()
ARM4 = (SCRIPTS / "arm4.urdf").read_text()

# branching: torso with two arms, to exercise tree (non-chain) handling
TWO_ARMS = """
<robot name="two_arms">
  <link name="torso"/><link name="l_up"/><link name="l_lo"/>
  <link name="r_up"/><link name="r_lo"/>
  <joint name="l_shoulder" type="revolute">
    <parent link="torso"/><child link="l_up"/>
    <origin xyz="0 0.2 0"/><axis xyz="1 0 0"/>
    <limit lower="-2.0" upper="2.0"/>
  </joint>
  <joint name="l_elbow" type="revolute">
    <parent link="l_up"/><child link="l_lo"/>
    <origin xyz="0 0.3 0"/><axis xyz="0 0 1"/>
    <limit lower="-2.5" upper="0.1"/>
  </joint>
  <joint name="r_shoulder" type="revolute">
    <parent link="torso"/><child link="r_up"/>
    <origin xyz="0 -0.2 0"/><axis xyz="1 0 0"/>
    <limit lower="-2.0" upper="2.0"/>
  </joint>
  <joint name="r_elbow" type="prismatic">
    <parent link="r_up"/><child link="r_lo"/>
    <origin xyz="0 -0.3 0"/><axis xyz="0 0 1"/>
    <limit lower="0.0" upper="0.4"/>
  </joint>
</robot>
"""


@pytest.fixture(scope="session")
def arm2r():
    return urdf.parse_urdf(ARM2R)


@pytest.fixture(scope="session")
def arm2r_chain(arm2r):
    return urdf.extract_chain(arm2r, "base", "tip")


@pytest.fixture(scope="session")
def mixed():
    return urdf.parse_urdf(MIXED)


@pytest.fixture(scope="session")
def mixed_chain(mixed):
    return urdf.extract_chain(mixed, "base", "l6")


@pytest.fixture(scope="session")
def cam_arm():
    return urdf.parse_urdf(CAM_ARM)


@pytest.fixture(scope="session")
def arm4():
    return urdf.parse_urdf(ARM4)


@pytest.fixture(scope="session")
def arm4_chain(arm4):
    return urdf.extract_chain(arm4, "base", "tool")


@pytest.fixture(scope="session")
def two_arms():
    return urdf.parse_urdf(TWO_ARMS)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
