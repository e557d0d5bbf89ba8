import re

import numpy as np
import pytest

from vecsim.articulation import ContactPointSet, KinematicTree, LinkSpec


def body(name="a", parent=-1, joint="revolute", **kw):
    kw.setdefault("mass", 1.0)
    kw.setdefault("inertia", (0.1, 0.1, 0.1))
    return LinkSpec(name, parent, joint, **kw)


def probes(**kw):
    fields = dict(link=[0], offset=np.zeros((1, 3)), radius=0.02,
                  stiffness=1e4, damping=10.0, friction=0.8)
    return ContactPointSet(**{**fields, **kw})


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: KinematicTree([]), "tree needs at least one link", id="empty"),
    pytest.param(lambda: KinematicTree([body("a"), body("a", 0)]),
                 "link names must be unique", id="duplicate_name"),
    pytest.param(lambda: KinematicTree([body(joint="ball")]),
                 "unknown joint kind 'ball'", id="joint_kind"),
    pytest.param(lambda: KinematicTree([body("a"), body("b", 0, "free")]),
                 "free joint only allowed at link 0", id="free_not_root"),
    pytest.param(lambda: KinematicTree([body(parent=0)]),
                 "link 0 parent 0 breaks topological order", id="parent_order"),
    pytest.param(lambda: KinematicTree([body(axis=(0.0, 0.0, 0.0))]),
                 "link 0 joint axis is zero", id="zero_axis"),
    pytest.param(lambda: KinematicTree([body(mass=0.0)]),
                 "link 0 ('a') mass must be > 0 and finite, got 0.0", id="massless"),
    pytest.param(lambda: KinematicTree([body(inertia=(0.1, 0.1, 0.0))]),
                 "link 0 inertia not positive-definite", id="inertia"),
    pytest.param(lambda: KinematicTree([body(mass=np.nan)]),
                 "link 0 ('a') mass must be > 0 and finite, got nan", id="nan_mass"),
    pytest.param(lambda: KinematicTree([body(), body("b", 0, com=(0.0, np.inf, 0.0))]),
                 "link 1 ('b') com must be finite", id="inf_com"),
    pytest.param(lambda: KinematicTree([body(inertia=(0.1, np.nan, 0.1))]),
                 "link 0 ('a') inertia must be finite", id="nan_inertia"),
    pytest.param(lambda: KinematicTree([body(axis=(0.0, np.nan, 1.0))]),
                 "link 0 ('a') axis must be finite", id="nan_axis"),
    pytest.param(lambda: KinematicTree([body(origin_pos=(-np.inf, 0.0, 0.0))]),
                 "link 0 ('a') origin_pos must be finite", id="inf_origin_pos"),
    pytest.param(lambda: KinematicTree([body(origin_quat=(np.nan, 0.0, 0.0, 0.0))]),
                 "link 0 ('a') origin_quat must be finite", id="nan_origin_quat"),
    pytest.param(lambda: KinematicTree([body(), body("b", 0, origin_quat=(0, 0, 0, 0))]),
                 "link 1 ('b') origin_quat must be nonzero", id="zero_origin_quat"),
    pytest.param(lambda: KinematicTree([body(inertia=[[0.1, 0.01, 0.0],
                                                      [0.0, 0.1, 0.0],
                                                      [0.0, 0.0, 0.1]])]),
                 "link 0 ('a') inertia must be symmetric", id="asymmetric_inertia"),
    pytest.param(lambda: probes(radius=0.0), "probe radius must be > 0", id="radius"),
    pytest.param(lambda: probes(damping=-1.0),
                 "contact damping must be >= 0 and finite, got -1.0", id="damping"),
    pytest.param(lambda: probes(link=[-1]), "probe link index must be >= 0",
                 id="negative_link"),
    pytest.param(lambda: probes(radius=np.nan), "probe radius must be > 0",
                 id="nan_radius"),
    pytest.param(lambda: probes(stiffness=np.nan),
                 "contact stiffness must be >= 0 and finite, got nan", id="nan_stiffness"),
    pytest.param(lambda: probes(damping=np.inf),
                 "contact damping must be >= 0 and finite, got inf", id="inf_damping"),
    pytest.param(lambda: probes(friction=-0.5), "contact friction must be >= 0",
                 id="negative_friction"),
    pytest.param(lambda: probes(friction=np.nan), "contact friction must be >= 0",
                 id="nan_friction"),
    pytest.param(lambda: probes(friction=np.inf), "contact friction must be >= 0",
                 id="inf_friction"),
    pytest.param(lambda: probes(offset=[(np.nan, 0.0, 0.0)]),
                 "probe offset must be finite", id="nan_offset"),
    pytest.param(lambda: probes(offset=[(0.0, 0.0, -np.inf)]),
                 "probe offset must be finite", id="inf_offset"),
])
def test_articulation_descriptions_rejected(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_inertia_asymmetry_within_rounding_is_accepted():
    # 1e-13 of the largest entry is within the 1e-12 tolerance
    inertia = np.diag([0.2, 0.1, 0.1])
    inertia[0, 1] = 0.01
    inertia[1, 0] = 0.01 + 2e-14
    tree = KinematicTree([body(inertia=inertia)])
    np.testing.assert_array_equal(tree.inertia[0], inertia)
