"""Semantic object search on waypoint graphs.

Score seen objects by semantic affinity to an unseen target, plan a search
path that trades travel distance against visiting high-probability waypoints
early, simulate episodes against ground truth, and report SR / SPL / PE.
"""

from .affinity import (
    AffinityDistribution,
    LLMScorer,
    PromptPair,
    TableScorer,
    aggregate_logprobs,
    build_prompt,
    score_distribution,
    split_across_instances,
)
from .baselines import (
    HashEmbedder,
    LLMRoomScorer,
    RoomDistribution,
    SimilarityRanking,
    TableEmbedder,
    TableRoomScorer,
    hottest_object_plan,
    hottest_waypoint_plan,
    plan_room_search,
    room_scores,
    similarity_rank,
)
from .env_graph import (
    Edge,
    Environment,
    GroundTruth,
    Room,
    ScenarioConfig,
    SeenObject,
    Waypoint,
    load_scenario_path,
    parse_scenario,
    serialize_scenario,
)
from .llm_gateway import (
    CompletionRequest,
    CompletionResult,
    GatewayConfig,
    LLMGateway,
    ResponseCache,
    TokenLogprobs,
)
from .metrics import (
    BatchReport,
    build_report,
    path_efficiency,
    spl,
    spl_term,
    success_rate,
)
from .planner import (
    PlannerConfig,
    SearchPlan,
    WaypointScores,
    path_cost,
    plan_optimal,
    waypoint_scores,
)
from .search_sim import (
    EpisodeResult,
    Outcome,
    PerceptionModel,
    SimulationParams,
    inspect,
    run_episode,
)

__version__ = "0.1.0"
