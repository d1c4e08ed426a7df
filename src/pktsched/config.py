"""Policy-tree and workload configuration.

The policy tree is a JSON document::

    {
      "policy": "pfabric" | "lqf" | "fifo",
      "nodes": [
        {"id": "root", "parent": null, "share": 1.0,
         "reservation": null, "limit": null,
         "num_buckets": 1024, "granularity": 1.0},
        ...
      ],
      "flows": {"f0": "leaf0", ...},
      "flow_params": {"f0": {"reservation": ..., "limit": ..., "share": ...}},
      "shaper": {"horizon_ns": 2000000000, "num_buckets": 20000},
      "flow_cap": 32
    }

share/reservation/limit are bytes per second; granularity is rank units per
bucket. Rate limits may sit on any node including the root (pacing).
"""

from __future__ import annotations

import json

from .core import PolicyNode, SchedulerTree, Shaper
from .errors import ConfigError
from .policies import FifoPolicy, LqfPolicy, PfabricPolicy

POLICIES = {
    "fifo": FifoPolicy,
    "lqf": LqfPolicy,
    "pfabric": PfabricPolicy,
}


def load_policy_tree(source) -> dict:
    """Accepts a dict, a JSON string, or a path to a JSON file."""
    if isinstance(source, dict):
        return source
    if isinstance(source, str):
        text = source
        if not source.lstrip().startswith("{"):
            with open(source) as fh:
                text = fh.read()
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid policy-tree JSON: {exc}") from exc
    raise ConfigError(f"unsupported config source: {type(source)!r}")


def build_tree(source) -> SchedulerTree:
    cfg = load_policy_tree(source)
    policy_name = cfg.get("policy", "fifo")
    policy_cls = POLICIES.get(policy_name)
    if policy_cls is None:
        raise ConfigError(f"unknown policy {policy_name!r}")
    nodes_cfg = cfg.get("nodes")
    if not nodes_cfg:
        raise ConfigError("policy tree needs at least one node")
    nodes: dict[str, PolicyNode] = {}
    root = None
    for nc in nodes_cfg:
        if "id" not in nc:
            raise ConfigError("every node needs an id")
        node = PolicyNode(
            nc["id"],
            share=nc.get("share", 1.0),
            reservation=nc.get("reservation"),
            limit=nc.get("limit"),
            num_buckets=nc.get("num_buckets", 1024),
            granularity=nc.get("granularity", 1.0),
        )
        parent_id = nc.get("parent")
        if parent_id is None:
            if root is not None:
                raise ConfigError("policy tree has two roots")
            root = node
        else:
            parent = nodes.get(parent_id)
            if parent is None:
                raise ConfigError(
                    f"node {nc['id']} references unknown parent {parent_id} "
                    "(parents must be declared first)")
            node.parent = parent
            parent.children.append(node)
        # registered after its parent is looked up, so every node hangs
        # below the root and SchedulerTree rejects a duplicate id
        nodes[nc["id"]] = node
    if root is None:
        raise ConfigError("policy tree has no root")
    flows = cfg.get("flows")
    if not flows:
        raise ConfigError("policy tree maps no flows")
    shaper_cfg = cfg.get("shaper", {})
    shaper = Shaper(
        horizon_ns=shaper_cfg.get("horizon_ns", 2_000_000_000),
        num_buckets=shaper_cfg.get("num_buckets", 20_000),
    )
    return SchedulerTree(
        root,
        policy_cls(),
        flow_leaf=flows,
        shaper=shaper,
        flow_cap=cfg.get("flow_cap"),
        flow_params=cfg.get("flow_params"),
    )


def single_level_config(policy: str, flow_ids, num_buckets: int = 1024,
                        root_limit=None, flow_cap=None) -> dict:
    """Convenience: one leaf under one root, all flows on the leaf."""
    return {
        "policy": policy,
        "nodes": [
            {"id": "root", "parent": None, "limit": root_limit,
             "num_buckets": num_buckets},
            {"id": "leaf", "parent": "root", "num_buckets": num_buckets},
        ],
        "flows": {fid: "leaf" for fid in flow_ids},
        "flow_cap": flow_cap,
    }
