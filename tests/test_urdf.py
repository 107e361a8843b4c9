import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffkin import urdf
from diffkin.urdf import ChainError, JointType, UrdfError

import treegen


def test_parse_basic_fields(arm2r):
    assert arm2r.name == "arm2r"
    assert arm2r.root_link == "base"
    assert arm2r.link_names() == ["base", "upper", "lower", "tip"]
    shoulder = arm2r.joint_by_name("shoulder")
    assert shoulder.joint_type is JointType.REVOLUTE
    assert shoulder.parent_link == "base"
    assert shoulder.child_link == "upper"
    assert shoulder.origin_xyz == (0.0, 0.0, 0.0)
    assert shoulder.origin_rpy == (0.0, 0.0, 0.0)
    assert shoulder.axis == (0.0, 0.0, 1.0)
    assert shoulder.limits.lower == -3.1
    assert shoulder.limits.upper == 3.1
    wrist = arm2r.joint_by_name("wrist")
    assert wrist.joint_type is JointType.FIXED
    assert wrist.axis is None
    assert wrist.origin_xyz == (1.0, 0.0, 0.0)


def test_joint_type_dof():
    assert JointType.FIXED.dof == 0
    assert JointType.REVOLUTE.dof == 1
    assert JointType.CONTINUOUS.dof == 1
    assert JointType.PRISMATIC.dof == 1
    assert JointType.PLANAR.dof == 2
    assert JointType.FLOATING.dof == 6


def test_missing_axis_defaults_to_x():
    model = urdf.parse_urdf(
        """
        <robot name="r"><link name="a"/><link name="b"/>
        <joint name="j" type="revolute"><parent link="a"/><child link="b"/></joint>
        </robot>"""
    )
    assert model.joint_by_name("j").axis == (1.0, 0.0, 0.0)


def test_axis_gets_normalized():
    model = urdf.parse_urdf(
        """
        <robot name="r"><link name="a"/><link name="b"/>
        <joint name="j" type="revolute"><parent link="a"/><child link="b"/>
        <axis xyz="0 0 4"/></joint>
        </robot>"""
    )
    assert model.joint_by_name("j").axis == (0.0, 0.0, 1.0)


def _one_joint(body):
    return f"""
    <robot name="r"><link name="a"/><link name="b"/>
    {body}
    </robot>"""


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("<robot name='r'>", "malformed"),
        ("<notrobot/>", "notrobot"),
        ("<robot name='r'></robot>", "no links"),
        ("<robot name='r'><link/></robot>", "link"),
        (_one_joint("<joint name='j'><parent link='a'/><child link='b'/></joint>"), "j"),
        (_one_joint("<joint type='revolute'><parent link='a'/><child link='b'/></joint>"), "joint"),
        (_one_joint("<joint name='j' type='helix'><parent link='a'/><child link='b'/></joint>"), "helix"),
        (_one_joint("<joint name='j' type='revolute'><child link='b'/></joint>"), "j"),
        (_one_joint("<joint name='j' type='revolute'><parent link='a'/></joint>"), "j"),
        (
            _one_joint(
                "<joint name='j' type='revolute'><parent link='a'/><child link='b'/>"
                "<origin xyz='1 2'/></joint>"
            ),
            "origin",
        ),
        (
            _one_joint(
                "<joint name='j' type='revolute'><parent link='a'/><child link='b'/>"
                "<axis xyz='0 0 0'/></joint>"
            ),
            "axis",
        ),
        (
            _one_joint(
                "<joint name='j' type='revolute'><parent link='a'/><child link='b'/>"
                "<limit lower='2' upper='-2'/></joint>"
            ),
            "limit",
        ),
        (
            _one_joint(
                "<joint name='j' type='revolute'><parent link='a'/><child link='missing'/></joint>"
            ),
            "missing",
        ),
        (_one_joint("<joint name='j' type='revolute'><parent link='a'/><child link='a'/></joint>"), "j"),
    ],
)
def test_parse_errors_name_the_element(text, fragment):
    with pytest.raises(UrdfError) as exc:
        urdf.parse_urdf(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "element,attribute",
    [
        ("<origin xyz='nan 0 0'/>", "origin xyz"),
        ("<origin rpy='0 inf 0'/>", "origin rpy"),
        ("<axis xyz='inf 0 0'/>", "axis"),
        ("<limit lower='nan' upper='1'/>", "limit lower"),
        ("<limit lower='-1' upper='-inf'/>", "limit upper"),
    ],
)
def test_non_finite_numbers_rejected(element, attribute):
    """A NaN or infinite origin, axis or limit is an error naming the joint
    and the attribute, not a NaN pose from forward kinematics."""
    text = _one_joint(f"<joint name='j' type='revolute'><parent link='a'/><child link='b'/>{element}</joint>")
    with pytest.raises(UrdfError, match=f"joint 'j' {attribute}: non-finite"):
        urdf.parse_urdf(text)


def test_duplicate_names_rejected():
    with pytest.raises(UrdfError, match="lnk"):
        urdf.parse_urdf("<robot name='r'><link name='lnk'/><link name='lnk'/></robot>")
    text = """
    <robot name="r"><link name="a"/><link name="b"/><link name="c"/>
    <joint name="j" type="fixed"><parent link="a"/><child link="b"/></joint>
    <joint name="j" type="fixed"><parent link="b"/><child link="c"/></joint>
    </robot>"""
    with pytest.raises(UrdfError, match="j"):
        urdf.parse_urdf(text)


def test_multiple_parents_rejected():
    text = """
    <robot name="r"><link name="a"/><link name="b"/><link name="c"/>
    <joint name="j1" type="fixed"><parent link="a"/><child link="c"/></joint>
    <joint name="j2" type="fixed"><parent link="b"/><child link="c"/></joint>
    </robot>"""
    with pytest.raises(UrdfError, match="c"):
        urdf.parse_urdf(text)


def test_cycle_has_no_root():
    text = """
    <robot name="r"><link name="a"/><link name="b"/>
    <joint name="j1" type="fixed"><parent link="a"/><child link="b"/></joint>
    <joint name="j2" type="fixed"><parent link="b"/><child link="a"/></joint>
    </robot>"""
    with pytest.raises(UrdfError):
        urdf.parse_urdf(text)


def test_two_roots_rejected():
    text = """
    <robot name="r"><link name="a"/><link name="b"/><link name="c"/><link name="d"/>
    <joint name="j1" type="fixed"><parent link="a"/><child link="b"/></joint>
    <joint name="j2" type="fixed"><parent link="c"/><child link="d"/></joint>
    </robot>"""
    with pytest.raises(UrdfError):
        urdf.parse_urdf(text)


def test_isolated_link_rejected():
    text = """
    <robot name="r"><link name="a"/><link name="b"/><link name="floater"/>
    <joint name="j1" type="fixed"><parent link="a"/><child link="b"/></joint>
    </robot>"""
    with pytest.raises(UrdfError, match="floater"):
        urdf.parse_urdf(text)


def test_model_helpers(two_arms):
    assert two_arms.root_link == "torso"
    assert sorted(two_arms.leaf_links()) == ["l_lo", "r_lo"]
    assert two_arms.children_of("torso") == ["l_up", "r_up"]
    assert two_arms.parent_joint_of("l_lo").name == "l_elbow"
    assert two_arms.parent_joint_of("torso") is None


def _models_equal(a, b):
    if a.name != b.name or a.root_link != b.root_link:
        return False
    if a.link_names() != b.link_names():
        return False
    if len(a.joints) != len(b.joints):
        return False
    for ja, jb in zip(a.joints, b.joints):
        if (ja.name, ja.joint_type, ja.parent_link, ja.child_link) != (
            jb.name,
            jb.joint_type,
            jb.parent_link,
            jb.child_link,
        ):
            return False
        if ja.origin_xyz != jb.origin_xyz or ja.origin_rpy != jb.origin_rpy:
            return False
        if ja.axis != jb.axis or ja.limits != jb.limits:
            return False
    return True


def test_serialize_roundtrip(mixed):
    text = urdf.serialize_urdf(mixed)
    again = urdf.parse_urdf(text)
    assert _models_equal(mixed, again)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5000))
def test_serialize_roundtrip_random_trees(seed):
    _, model, _ = treegen.random_tree(seed)
    again = urdf.parse_urdf(urdf.serialize_urdf(model))
    assert _models_equal(model, again)


def test_extract_chain_order_and_content(mixed):
    chain = urdf.extract_chain(mixed, "base", "l6")
    assert chain.base_link == "base"
    assert chain.end_link == "l6"
    assert [j.name for j in chain.joints] == ["j1", "j2", "j3", "j4", "j5", "j6"]
    assert chain.n == 6
    assert chain.m == 1 + 1 + 1 + 2 + 6 + 0
    # one (joint, index within the joint) per theta column
    assert [(j.name, d) for j, d in chain.dofs] == [("j1", 0), ("j2", 0), ("j3", 0), ("j4", 0), ("j4", 1)] + [
        ("j5", d) for d in range(6)
    ]


def test_extract_chain_from_interior_link(mixed):
    chain = urdf.extract_chain(mixed, "l2", "l4")
    assert [j.name for j in chain.joints] == ["j3", "j4"]


def test_extract_chain_same_link(mixed):
    chain = urdf.extract_chain(mixed, "l3", "l3")
    assert chain.n == 0 and chain.m == 0


def test_extract_chain_downward_only(mixed):
    with pytest.raises(ChainError, match="l1"):
        urdf.extract_chain(mixed, "l3", "l1")


def test_extract_chain_across_branches(two_arms):
    with pytest.raises(ChainError):
        urdf.extract_chain(two_arms, "l_lo", "r_lo")


def test_extract_chain_unknown_link(mixed):
    with pytest.raises(ChainError, match="nope"):
        urdf.extract_chain(mixed, "base", "nope")


def test_substitute_link_with_joint(cam_arm):
    sub = urdf.substitute_link_with_joint(cam_arm, "camera")
    joint = sub.parent_joint_of("camera")
    assert joint.joint_type is JointType.FLOATING
    assert joint.origin_xyz == (0.0, 0.0, 0.0)
    assert joint.origin_rpy == (0.0, 0.0, 0.0)
    assert joint.axis is None and joint.limits is None
    hint = sub.init_hints[joint.name]
    np.testing.assert_allclose(hint, (0.3, 0.0, 0.1, 0.0, 0.0, 0.7853981633974483))
    # original model untouched
    assert cam_arm.parent_joint_of("camera").joint_type is JointType.FIXED
    assert not cam_arm.init_hints


def test_substitute_preserves_other_joints(cam_arm):
    sub = urdf.substitute_link_with_joint(cam_arm, "link2")
    assert sub.parent_joint_of("link2").joint_type is JointType.FLOATING
    assert sub.joint_by_name("j1").origin_xyz == (0.0, 0.0, 0.5)
    assert sub.joint_by_name("j3").joint_type is JointType.REVOLUTE
    assert sub.link_names() == cam_arm.link_names()


def test_substitute_root_rejected(cam_arm):
    with pytest.raises(ChainError):
        urdf.substitute_link_with_joint(cam_arm, "base")
    with pytest.raises(ChainError, match="ghost"):
        urdf.substitute_link_with_joint(cam_arm, "ghost")


def test_origin_params_order(mixed):
    j1 = mixed.joint_by_name("j1")
    assert j1.origin_params() == (0.1, 0.2, 0.3, 0.1, -0.2, 0.3)
