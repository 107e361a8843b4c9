"""URDF parsing into a validated kinematic tree, plus chain extraction.

Only the kinematic subset is interpreted: robot/link/joint structure, joint
origins, axes, and limits.  Visual, collision, inertial, and mimic elements
are ignored so real-world robot files parse.  Angles are radians, lengths
meters.
"""

from __future__ import annotations

import enum
import functools
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

__all__ = [
    "UrdfError",
    "ChainError",
    "JointType",
    "JointLimits",
    "Joint",
    "Link",
    "RobotModel",
    "KinematicChain",
    "parse_urdf",
    "serialize_urdf",
    "extract_chain",
    "substitute_link_with_joint",
]


class UrdfError(ValueError):
    """Malformed or structurally invalid URDF input."""


class ChainError(ValueError):
    """Chain extraction or link substitution applied to an unsuitable tree."""


class JointType(enum.Enum):
    REVOLUTE = "revolute"
    CONTINUOUS = "continuous"
    PRISMATIC = "prismatic"
    FIXED = "fixed"
    PLANAR = "planar"
    FLOATING = "floating"

    @property
    def dof(self) -> int:
        return _DOF[self]

    @property
    def needs_axis(self) -> bool:
        return self in (JointType.REVOLUTE, JointType.CONTINUOUS, JointType.PRISMATIC, JointType.PLANAR)


_DOF = {
    JointType.REVOLUTE: 1,
    JointType.CONTINUOUS: 1,
    JointType.PRISMATIC: 1,
    JointType.FIXED: 0,
    JointType.PLANAR: 2,
    JointType.FLOATING: 6,
}


@dataclass(frozen=True)
class JointLimits:
    lower: float
    upper: float


@dataclass(frozen=True)
class Link:
    name: str


@dataclass(frozen=True)
class Joint:
    name: str
    joint_type: JointType
    parent_link: str
    child_link: str
    origin_xyz: tuple = (0.0, 0.0, 0.0)
    origin_rpy: tuple = (0.0, 0.0, 0.0)
    axis: tuple | None = None
    limits: JointLimits | None = None

    @property
    def dof(self) -> int:
        return self.joint_type.dof

    def origin_params(self) -> tuple:
        """The joint origin as a [x, y, z, alpha, beta, gamma] six-tuple."""
        return self.origin_xyz + self.origin_rpy


@dataclass(frozen=True)
class RobotModel:
    name: str
    links: tuple
    joints: tuple
    root_link: str
    # joint name -> original origin six-tuple, recorded by link substitution
    # as the initialization hint for identification.
    init_hints: dict = field(default_factory=dict)

    def link_names(self):
        return [link.name for link in self.links]

    def joint_by_name(self, name: str) -> Joint:
        for joint in self.joints:
            if joint.name == name:
                return joint
        raise KeyError(name)

    def parent_joint_of(self, link_name: str):
        """The unique joint whose child is ``link_name``, or None for the root."""
        for joint in self.joints:
            if joint.child_link == link_name:
                return joint
        return None

    def children_of(self, link_name: str):
        return [j.child_link for j in self.joints if j.parent_link == link_name]

    def leaf_links(self):
        parents = {j.parent_link for j in self.joints}
        return [link.name for link in self.links if link.name not in parents]


@dataclass(frozen=True)
class KinematicChain:
    """Ordered path base_link -> end_link; each segment pairs the static
    link offset (the joint's origin) with the joint that follows it."""

    base_link: str
    end_link: str
    segments: tuple  # of (Link, Joint)

    @property
    def joints(self):
        return tuple(joint for _, joint in self.segments)

    @property
    def n(self) -> int:
        return len(self.segments)

    @functools.cached_property
    def m(self) -> int:
        # cached: every theta batch check reads it, once per identification step
        return sum(joint.dof for _, joint in self.segments)

    @property
    def dofs(self):
        """(joint, dof index within the joint) of each theta column, in order."""
        return [(joint, d) for _, joint in self.segments for d in range(joint.dof)]


# -- parsing -----------------------------------------------------------------


def _parse_number(text, context):
    """A finite float: a NaN or infinite origin, axis or limit would pass
    through forward kinematics as NaN without any error."""
    try:
        value = float(text)
    except ValueError:
        raise UrdfError(f"{context}: non-numeric entry {text!r}") from None
    if not math.isfinite(value):
        raise UrdfError(f"{context}: non-finite entry {text!r}")
    return value


def _parse_triple(text, context):
    parts = text.split()
    if len(parts) != 3:
        raise UrdfError(f"{context}: expected 3 numbers, got {text!r}")
    return tuple(_parse_number(p, context) for p in parts)


def _normalized_axis(axis, joint_name):
    norm = (axis[0] ** 2 + axis[1] ** 2 + axis[2] ** 2) ** 0.5
    if norm < 1e-9:
        raise UrdfError(f"joint {joint_name!r}: axis has zero length")
    if abs(norm - 1.0) <= 1e-12:
        return axis  # already unit; keep bits stable for round-tripping
    return (axis[0] / norm, axis[1] / norm, axis[2] / norm)


def _parse_joint(elem) -> Joint:
    name = elem.get("name")
    if not name:
        raise UrdfError("joint element missing name attribute")
    type_text = elem.get("type")
    if type_text is None:
        raise UrdfError(f"joint {name!r}: missing type attribute")
    try:
        joint_type = JointType(type_text)
    except ValueError:
        raise UrdfError(f"joint {name!r}: unknown joint type {type_text!r}") from None

    parent = elem.find("parent")
    child = elem.find("child")
    if parent is None or parent.get("link") is None:
        raise UrdfError(f"joint {name!r}: missing parent link")
    if child is None or child.get("link") is None:
        raise UrdfError(f"joint {name!r}: missing child link")

    xyz, rpy = (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)
    origin = elem.find("origin")
    if origin is not None:
        if origin.get("xyz") is not None:
            xyz = _parse_triple(origin.get("xyz"), f"joint {name!r} origin xyz")
        if origin.get("rpy") is not None:
            rpy = _parse_triple(origin.get("rpy"), f"joint {name!r} origin rpy")

    axis = None
    if joint_type.needs_axis:
        axis_elem = elem.find("axis")
        if axis_elem is None or axis_elem.get("xyz") is None:
            axis = (1.0, 0.0, 0.0)
        else:
            axis = _parse_triple(axis_elem.get("xyz"), f"joint {name!r} axis")
        axis = _normalized_axis(axis, name)

    limits = None
    limit_elem = elem.find("limit")
    if limit_elem is not None and (limit_elem.get("lower") is not None or limit_elem.get("upper") is not None):
        lower, upper = (
            _parse_number(limit_elem.get(key, "0"), f"joint {name!r} limit {key}") for key in ("lower", "upper")
        )
        if lower > upper:
            raise UrdfError(f"joint {name!r}: limit lower {lower} exceeds upper {upper}")
        limits = JointLimits(lower, upper)

    return Joint(name, joint_type, parent.get("link"), child.get("link"), xyz, rpy, axis, limits)


def parse_urdf(xml_text: str) -> RobotModel:
    """Parse URDF XML into a validated RobotModel.

    Raises UrdfError naming the offending element for malformed XML, unknown
    joint types, duplicate names, undeclared link references, or a parent/
    child relation that is not a single-rooted tree.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise UrdfError(f"malformed XML: {exc}") from None
    if root.tag != "robot":
        raise UrdfError(f"expected <robot> document root, found <{root.tag}>")

    links, joints = [], []
    link_names, joint_names = set(), set()
    for elem in root:
        if elem.tag == "link":
            name = elem.get("name")
            if not name:
                raise UrdfError("link element missing name attribute")
            if name in link_names:
                raise UrdfError(f"duplicate link name {name!r}")
            link_names.add(name)
            links.append(Link(name))
        elif elem.tag == "joint":
            joint = _parse_joint(elem)
            if joint.name in joint_names:
                raise UrdfError(f"duplicate joint name {joint.name!r}")
            joint_names.add(joint.name)
            joints.append(joint)
        # other elements (material, gazebo, transmission, ...) are ignored

    if not links:
        raise UrdfError("robot declares no links")

    parent_of = {}
    for joint in joints:
        for role, link_name in (("parent", joint.parent_link), ("child", joint.child_link)):
            if link_name not in link_names:
                raise UrdfError(f"joint {joint.name!r}: {role} references undeclared link {link_name!r}")
        if joint.parent_link == joint.child_link:
            raise UrdfError(f"joint {joint.name!r}: parent and child are the same link")
        if joint.child_link in parent_of:
            raise UrdfError(
                f"link {joint.child_link!r} has multiple parent joints "
                f"({parent_of[joint.child_link].name!r} and {joint.name!r})"
            )
        parent_of[joint.child_link] = joint

    roots = [name for name in link_names if name not in parent_of]
    if not roots:
        raise UrdfError("no root link: parent/child relation contains a cycle")
    if len(roots) > 1:
        raise UrdfError(f"multiple root links {sorted(roots)!r}: tree is disconnected")
    root_link = roots[0]

    children = {}
    for joint in joints:
        children.setdefault(joint.parent_link, []).append(joint.child_link)
    reachable, stack = set(), [root_link]
    while stack:
        current = stack.pop()
        if current in reachable:
            continue
        reachable.add(current)
        stack.extend(children.get(current, []))
    if len(reachable) < len(link_names):
        stray = sorted(link_names - reachable)[0]
        raise UrdfError(f"link {stray!r} is not reachable from root {root_link!r} (disconnected or cyclic)")

    return RobotModel(root.get("name", "robot"), tuple(links), tuple(joints), root_link)


def serialize_urdf(model: RobotModel) -> str:
    """Emit the model back as URDF XML.

    Floats are written with repr so serialize -> parse reproduces the model
    exactly (structural equality, including float bits).
    """
    root = ET.Element("robot", {"name": model.name})
    for link in model.links:
        ET.SubElement(root, "link", {"name": link.name})
    for joint in model.joints:
        elem = ET.SubElement(root, "joint", {"name": joint.name, "type": joint.joint_type.value})
        origin = ET.SubElement(elem, "origin")
        origin.set("xyz", " ".join(repr(v) for v in joint.origin_xyz))
        origin.set("rpy", " ".join(repr(v) for v in joint.origin_rpy))
        ET.SubElement(elem, "parent", {"link": joint.parent_link})
        ET.SubElement(elem, "child", {"link": joint.child_link})
        if joint.axis is not None:
            ET.SubElement(elem, "axis", {"xyz": " ".join(repr(v) for v in joint.axis)})
        if joint.limits is not None:
            ET.SubElement(elem, "limit", {"lower": repr(joint.limits.lower), "upper": repr(joint.limits.upper)})
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


# -- chain extraction and substitution ---------------------------------------


def extract_chain(model: RobotModel, base_link: str, end_link: str) -> KinematicChain:
    """The ordered chain along the unique downward tree path base -> end.

    base_link must be an ancestor of end_link; upward traversal (which would
    need transform inverses) is not supported.
    """
    known = set(model.link_names())
    for name in (base_link, end_link):
        if name not in known:
            raise ChainError(f"unknown link {name!r}")

    parent_of = {j.child_link: j for j in model.joints}
    path = []
    current = end_link
    while current != base_link:
        joint = parent_of.get(current)
        if joint is None:
            raise ChainError(f"link {end_link!r} is not reachable downward from {base_link!r}")
        path.append(joint)
        current = joint.parent_link
    path.reverse()
    segments = tuple((Link(j.parent_link), j) for j in path)
    return KinematicChain(base_link, end_link, segments)


def _parent_joint(model: RobotModel, link: str) -> Joint:
    """``link``'s parent joint; an unknown link and the root are a ChainError."""
    if link not in set(model.link_names()):
        raise ChainError(f"unknown link {link!r}")
    if link == model.root_link:
        raise ChainError(f"link {link!r} is the root and has no parent joint")
    return model.parent_joint_of(link)


def substitute_link_with_joint(model: RobotModel, target_link: str) -> RobotModel:
    """Replace the fixed geometry of ``target_link``'s parent joint with a
    free Floating joint.

    The joint's origin is zeroed and its six parameters become the trainable
    quantity; the original origin values are recorded in ``init_hints`` so
    an identification run can compare its estimate against them.  Any DoF
    the original joint had are subsumed by the Floating joint.
    """
    parent = _parent_joint(model, target_link)
    replacement = Joint(
        name=parent.name,
        joint_type=JointType.FLOATING,
        parent_link=parent.parent_link,
        child_link=parent.child_link,
        origin_xyz=(0.0, 0.0, 0.0),
        origin_rpy=(0.0, 0.0, 0.0),
        axis=None,
        limits=None,
    )
    joints = tuple(replacement if j.name == parent.name else j for j in model.joints)
    hints = dict(model.init_hints)
    hints[parent.name] = parent.origin_params()
    return RobotModel(model.name, model.links, joints, model.root_link, hints)
