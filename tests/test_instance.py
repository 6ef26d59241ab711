import dataclasses
import json
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from chargeplan import instance as inst_mod
from chargeplan.instance import (
    Instance,
    InstanceError,
    InstanceFormatError,
    Location,
    PRESETS,
    ScenarioNode,
    Zone,
    attraction,
    coverage_sets,
    generate,
    instance_hash,
    load,
    save,
    validate,
    with_queue,
)
from chargeplan.queueing import QueueConfig


def manual_instance(radius=5.0, dist_val=3.0, n_nodes=1, radii_by_node=None):
    """One zone, one location, an n-node path tree."""
    nodes = []
    for nid in range(1, n_nodes + 1):
        r = radius if radii_by_node is None else radii_by_node[nid - 1]
        nodes.append(
            ScenarioNode(
                id=nid,
                parent=None if nid == 1 else nid - 1,
                prob=1.0,
                w=(2.0,),
                bcoef=(0.5,),
                theta=(1.0,),
                radius=(r,),
                cost_build=(100.0,),
                cost_post=(10.0,),
                cost_op_station=(5.0,),
                cost_op_post=(1.0,),
            )
        )
    return Instance(
        zones=(Zone(id=0, a=1.0),),
        locations=(Location(id=0, m_max=3, x0=False, y0=0),),
        dist=((dist_val,),),
        tree=tuple(nodes),
        queue=QueueConfig(mu=4.0, alpha=0.9, b=0),
    )


class TestHash:
    def test_hash_computed_once_and_consistent(self):
        a, b = generate(PRESETS["tiny"], 2), generate(PRESETS["tiny"], 2)
        assert a == b and a is not b and hash(a) == hash(b)
        pickled = pickle.dumps(a)
        assert pickled == pickle.dumps(dataclasses.replace(a))  # no stored hash in it
        back = pickle.loads(pickled)
        assert back == a and hash(back) == hash(a)
        q = with_queue(a, b=2)
        assert q != a and hash(q) != hash(a)
        assert hash(q) == hash(with_queue(b, b=2))


class TestCoverage:
    def test_within_radius(self):
        inst = manual_instance(radius=5.0, dist_val=3.0)
        cov = coverage_sets(inst)
        assert 0 in cov.zones_near[1][0]
        assert 0 in cov.locs_near[1][0]

    def test_boundary_inclusive(self):
        inst = manual_instance(radius=5.0, dist_val=5.0)
        cov = coverage_sets(inst)
        assert 0 in cov.zones_near[1][0]

    def test_per_node_radii(self):
        inst = manual_instance(dist_val=6.0, n_nodes=2, radii_by_node=[7.0, 7.0])
        # node 1 radius shrunk below the distance -> excluded there only
        nodes = list(inst.tree)
        nodes[0] = dataclasses.replace(nodes[0], radius=(5.0,))
        bad = dataclasses.replace(inst, tree=tuple(nodes))
        cov = coverage_sets(bad)
        assert 0 not in cov.zones_near[1][0]
        assert 0 in cov.zones_near[2][0]

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, seed):
        inst = generate(PRESETS["tiny"], seed)
        cov = coverage_sets(inst)
        for node in inst.tree:
            for j in range(inst.n_locations):
                for i in cov.zones_near[node.id][j]:
                    assert j in cov.locs_near[node.id][i]
            for i in range(inst.n_zones):
                for j in cov.locs_near[node.id][i]:
                    assert i in cov.zones_near[node.id][j]


class TestAttraction:
    def test_zero_distance(self):
        inst = manual_instance(dist_val=0.0)
        assert attraction(inst, 0, 0) == 1.0

    def test_log_two(self):
        inst = manual_instance(dist_val=math.log(2.0))
        assert attraction(inst, 0, 0) == pytest.approx(0.5, rel=1e-12)

    def test_half_decay(self):
        inst = manual_instance(dist_val=2.0)
        inst = dataclasses.replace(inst, zones=(Zone(id=0, a=0.5),))
        assert attraction(inst, 0, 0) == pytest.approx(math.exp(-1.0), rel=1e-12)


class TestGenerate:
    def test_deterministic(self, tmp_path):
        a = generate(PRESETS["tiny"], 7)
        b = generate(PRESETS["tiny"], 7)
        assert a == b
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save(a, pa)
        save(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_preset_shapes(self):
        small = generate(PRESETS["small"], 3)
        assert small.n_zones == 10 and small.n_locations == 15 and len(small.tree) == 8
        medium = generate(PRESETS["medium"], 3)
        assert medium.n_zones == 10 and medium.n_locations == 25 and len(medium.tree) == 16

    def test_uniform_tree_node_count(self):
        params = dataclasses.replace(PRESETS["tiny"], n_nodes=None, tree_depth=3, branching=2)
        inst = generate(params, 1)
        assert len(inst.tree) == 7  # (2**3 - 1) / (2 - 1)

    def test_probabilities_partition(self):
        inst = generate(PRESETS["small"], 11)
        assert inst.tree[0].prob == pytest.approx(1.0)
        for node in inst.tree:
            kids = inst.children(node.id)
            if kids:
                assert sum(inst.node(c).prob for c in kids) == pytest.approx(node.prob)

    @pytest.mark.parametrize("preset", ["tiny", "small", "medium"])
    def test_hundred_seeds_validate(self, preset):
        for seed in range(100):
            inst = generate(PRESETS[preset], seed)
            validate(inst)  # raises on any violation

    def test_bad_params(self):
        with pytest.raises(InstanceError):
            generate(dataclasses.replace(PRESETS["tiny"], n_zones=0), 0)


class TestFileRoundTrip:
    def test_save_load_identity(self, tmp_path):
        inst = generate(PRESETS["tiny"], 42)
        path = tmp_path / "inst.json"
        save(inst, path)
        again = load(path)
        assert again == inst
        assert instance_hash(again) == instance_hash(inst)

    def test_missing_queue_alpha(self, tmp_path):
        inst = generate(PRESETS["tiny"], 1)
        doc = inst_mod._to_dict(inst)
        del doc["queue"]["alpha"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="queue.alpha"):
            load(path)

    def test_uncovered_zone_rejected(self, tmp_path):
        inst = manual_instance(radius=1.0, dist_val=3.0)
        path = tmp_path / "uncov.json"
        save(inst, path)
        with pytest.raises(InstanceError, match="3c"):
            load(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        with pytest.raises(InstanceFormatError, match="JSON"):
            load(path)

    def test_type_errors_are_named(self, tmp_path):
        inst = generate(PRESETS["tiny"], 1)
        doc = inst_mod._to_dict(inst)
        doc["tree"][0]["prob"] = "high"
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match=r"tree\[0\].prob"):
            load(path)


class TestValidate:
    def test_y0_without_station(self):
        inst = manual_instance()
        bad = dataclasses.replace(
            inst, locations=(Location(id=0, m_max=3, x0=False, y0=2),)
        )
        with pytest.raises(InstanceError, match="initial posts"):
            validate(bad)

    def test_children_prob_mismatch(self):
        inst = manual_instance(n_nodes=2)
        nodes = list(inst.tree)
        nodes[1] = dataclasses.replace(nodes[1], prob=0.5)
        with pytest.raises(InstanceError, match="probabilities sum"):
            validate(dataclasses.replace(inst, tree=tuple(nodes)))

    def test_root_prob_must_be_one(self):
        inst = manual_instance()
        nodes = (dataclasses.replace(inst.tree[0], prob=0.9),)
        with pytest.raises(InstanceError, match="root probability"):
            validate(dataclasses.replace(inst, tree=nodes))


class TestHelpers:
    def test_with_queue(self):
        inst = generate(PRESETS["tiny"], 5)
        other = with_queue(inst, b=2)
        assert other.queue.b == 2
        assert other.queue.mu == inst.queue.mu
        assert other.tree == inst.tree

    def test_children_and_order(self):
        inst = generate(PRESETS["small"], 5)
        ids = inst.node_ids()
        assert ids == tuple(range(1, 9))
        for node in inst.tree:
            for c in inst.children(node.id):
                assert inst.node(c).parent == node.id
