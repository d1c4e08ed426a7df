"""pktsched: bucketed integer priority queues and a programmable packet
scheduler with per-flow ranking, on-dequeue re-ranking, and a single
decoupled shaper for every rate limit in a scheduling hierarchy."""

from .baselines import BhQueue, HeapQueue
from .bench import BenchConfig, run_bench, run_error_sweep
from .bitmap_pq import BucketNode, FfsQueue
from .circular_pq import CffsQueue, CircularWindowQueue
from .config import build_tree, load_policy_tree, single_level_config
from .core import (NS_PER_SEC, FlowState, Packet, PolicyNode, RateClock,
                   SchedulerTree, Shaper)
from .errors import (ConfigError, InvalidHandleError, PktschedError,
                     QueueStateError, RankRangeError)
from .gradient_pq import (ApproxGradientQueue, ApproxRange,
                          CircularApproxQueue, CurvatureState, decay_g, shift_u)
from .policies import (FifoPolicy, HClockFlow, HClockScheduler, LqfPolicy,
                       PfabricPolicy)
from .sim import SimMetrics, Workload, oracle_order, run_sim

__version__ = "0.1.0"

__all__ = [
    "BhQueue", "HeapQueue",
    "BenchConfig", "run_bench", "run_error_sweep",
    "BucketNode", "FfsQueue",
    "CffsQueue", "CircularWindowQueue",
    "build_tree", "load_policy_tree", "single_level_config",
    "NS_PER_SEC", "FlowState", "Packet", "PolicyNode", "RateClock",
    "SchedulerTree", "Shaper",
    "ConfigError", "InvalidHandleError", "PktschedError", "QueueStateError",
    "RankRangeError",
    "ApproxGradientQueue", "ApproxRange", "CircularApproxQueue",
    "CurvatureState", "decay_g", "shift_u",
    "FifoPolicy", "HClockFlow", "HClockScheduler", "LqfPolicy",
    "PfabricPolicy",
    "SimMetrics", "Workload", "oracle_order", "run_sim",
]
