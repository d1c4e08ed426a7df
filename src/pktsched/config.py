"""Scheduler configuration: the one place a policy name picks a scheduler.

A config is a dict, JSON text or a UTF-8 JSON file. A file that cannot be
read or decoded, or a key its policy does not read, at any level, raises
ConfigError. "fifo" (the default), "lqf" and "pfabric" build a SchedulerTree
("fifo" its subclass FifoTree, which serves in delivery order)::

    {
      "policy": "pfabric",
      "nodes": [{"id": "root", "parent": null, "limit": null,
                 "num_buckets": 1024}, ...],   # parents before children
      "flows": {"f0": "leaf0", ...},          # flow -> leaf node id
      "shaper": {"horizon_ns": 2000000000, "num_buckets": 20000},
      "flow_cap": 32                          # per-flow backpressure
    }

build_tree reads the nodes once, in order: the first is the root, every
other node names a parent declared before it, and a duplicate id is
refused where it is declared. Only id and parent are required. limit is
a positive rate in bytes per second and may sit on any node, the root
included (pacing); a node without one is not limited. A node's
num_buckets sizes the queue that ranks its children and defaults to
1024, here in build_tree and nowhere else. A FifoTree files nothing in
its nodes, so a FIFO node's num_buckets sizes a queue that scheduling
never reads; the queue is built, empty, only because the benchmark's
tracer reads node.queue. num_buckets and horizon_ns are positive
integers: the shaper's granule is horizon_ns // num_buckets, and its two
windows span num_buckets granules each; a later timestamp waits past them
(core.Shaper).

"hclock" builds an HClockScheduler whose flows are the keys of
flow_params; reservation and limit are positive rates in bytes per second,
share a positive weight (1.0 by default)::

    {"policy": "hclock",
     "flow_params": {"f0": {"reservation": ..., "limit": ..., "share": ...}}}
"""

from __future__ import annotations

import json

from .core import FifoTree, FlowState, PolicyNode, SchedulerTree, Shaper
from .errors import ConfigError
from .policies import FifoPolicy, HClockScheduler, LqfPolicy, PfabricPolicy

POLICIES = {
    "fifo": FifoPolicy,
    "lqf": LqfPolicy,
    "pfabric": PfabricPolicy,
}
POLICY_NAMES = (*POLICIES, "hclock")

TREE_KEYS = frozenset({"policy", "nodes", "flows", "shaper", "flow_cap"})
NODE_KEYS = frozenset({"id", "parent", "limit", "num_buckets"})
SHAPER_KEYS = frozenset({"horizon_ns", "num_buckets"})
HCLOCK_KEYS = frozenset({"policy", "flow_params"})
HCLOCK_FLOW_KEYS = frozenset({"reservation", "limit", "share"})


def read_json_object(path: str) -> dict:
    """The JSON object in the UTF-8 file at `path`; a ConfigError naming
    the path if the file cannot be read or decoded or holds no object."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _json_object(fh.read(), path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _json_object(text: str, where: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: top level must be an object")
    return value


def load_policy_tree(source) -> dict:
    """Accepts a dict, a JSON string, or a path to a JSON file whose top
    level is an object. A string whose first non-blank character is { or
    [ is JSON text; any other string is a path."""
    if isinstance(source, dict):
        return source
    if isinstance(source, str):
        if source.lstrip().startswith(("{", "[")):
            return _json_object(source, "policy tree")
        return read_json_object(source)
    raise ConfigError(f"unsupported config source: {type(source)!r}")


def _check_keys(where: str, cfg, allowed: frozenset) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = cfg.keys() - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}; "
                          f"accepted: {sorted(allowed)}")


def _check_id(where: str, value) -> None:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, not {value!r}")


def build_tree(source) -> SchedulerTree | HClockScheduler:
    """Build the scheduler a config describes: a SchedulerTree, or an
    HClockScheduler for policy "hclock"."""
    cfg = load_policy_tree(source)
    policy_name = cfg.get("policy", "fifo")
    _check_id("policy", policy_name)
    if policy_name == "hclock":
        return _build_hclock(cfg)
    policy_cls = POLICIES.get(policy_name)
    if policy_cls is None:
        raise ConfigError(f"unknown policy {policy_name!r}")
    _check_keys(f"{policy_name} config", cfg, TREE_KEYS)
    nodes_cfg = cfg.get("nodes")
    if not isinstance(nodes_cfg, list) or not nodes_cfg:
        raise ConfigError("policy tree needs a nonempty list of nodes")
    nodes: dict[str, PolicyNode] = {}
    for nc in nodes_cfg:
        _check_keys("node", nc, NODE_KEYS)
        node_id = nc.get("id")
        _check_id("a node id", node_id)
        if node_id in nodes:
            raise ConfigError(f"duplicate node id {node_id}")
        parent_id = nc.get("parent")
        parent = None
        if parent_id is not None:
            _check_id(f"node {node_id}'s parent", parent_id)
            parent = nodes.get(parent_id)
            if parent is None:
                raise ConfigError(
                    f"node {node_id} references unknown parent {parent_id} "
                    "(parents must be declared first)")
        elif nodes:
            raise ConfigError("policy tree has two roots")
        nodes[node_id] = PolicyNode(node_id, nc.get("limit"),
                                    nc.get("num_buckets", 1024), parent)
    flows_cfg = cfg.get("flows")
    if not isinstance(flows_cfg, dict) or not flows_cfg:
        raise ConfigError("policy tree needs flows, an object of flow -> leaf id")
    flows: dict[str, FlowState] = {}
    for fid, leaf_id in flows_cfg.items():
        _check_id("a flow id", fid)
        _check_id(f"flow {fid}'s leaf", leaf_id)
        leaf = nodes.get(leaf_id)
        if leaf is None or leaf.children:
            raise ConfigError(f"flow {fid} maps to unknown or non-leaf node {leaf_id}")
        flows[fid] = FlowState(leaf)
    shaper_cfg = cfg.get("shaper", {})
    _check_keys("shaper", shaper_cfg, SHAPER_KEYS)
    tree_cls = FifoTree if policy_name == "fifo" else SchedulerTree
    return tree_cls(nodes, policy_cls(), flows, Shaper(**shaper_cfg),
                    cfg.get("flow_cap"))


def _build_hclock(cfg: dict) -> HClockScheduler:
    _check_keys("hclock config", cfg, HCLOCK_KEYS)
    params = cfg.get("flow_params")
    if not isinstance(params, dict) or not params:
        raise ConfigError("hclock config needs flow_params, an object of "
                          "flow -> parameters")
    sched = HClockScheduler()
    for fid, p in params.items():
        _check_id("a flow id", fid)
        _check_keys(f"flow {fid}", p, HCLOCK_FLOW_KEYS)
        sched.add_flow(fid, **p)
    return sched


def single_level_config(policy: str, flow_ids, flow_cap=None) -> dict:
    """Convenience: one leaf under one root, all flows on the leaf, every
    node with build_tree's defaults (no limit, 1024 buckets). The root has
    one child, so it orders nothing and scheduling skips it: the tree
    costs what the leaf alone costs. A caller that sets a "limit" on the
    root node's dict paces it. For "hclock", every flow with default
    parameters, and no flow_cap."""
    if policy == "hclock":
        if flow_cap is not None:
            raise ConfigError("hclock takes no flow_cap")
        return {"policy": "hclock", "flow_params": {fid: {} for fid in flow_ids}}
    return {
        "policy": policy,
        "nodes": [
            {"id": "root", "parent": None},
            {"id": "leaf", "parent": "root"},
        ],
        "flows": {fid: "leaf" for fid in flow_ids},
        "flow_cap": flow_cap,
    }
