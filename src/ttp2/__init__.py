"""Near-optimal double round-robin construction under the two-consecutive
home/away rule: two-level matching, block expansion, role-flip minimization,
plus a constraint validator and a travel evaluator."""

from .analysis import (EvaluationReport, Itinerary, evaluation_report,
                       factor_ours, factor_xiao_kou, factors_exact,
                       flip_budget, format_report, lower_bound, pairwise_sum,
                       report_to_dict, report_to_json, team_itinerary,
                       total_travel)
from .blocks import Fixture, SuperMatch, expand_block
from .errors import (InstanceError, MatchingError, SchedulingError, TTP2Error,
                     ValidationError)
from .instance import (Instance, check_metric, emit_instance, generate_instance,
                       load_instance, save_instance)
from .matching import (PairMatching, build_super_graph,
                       min_weight_perfect_matching, super_pair_matching)
from .scheduler import (LevelPlan, Schedule, build_schedule,
                        format_level_table, schedule_from_dict,
                        schedule_from_json, schedule_to_dict, schedule_to_json)
from .validator import (Violation, ViolationReport, parse_day_list,
                        validate_schedule)

__version__ = "0.1.0"

__all__ = [
    "EvaluationReport", "Fixture", "Instance", "InstanceError", "Itinerary",
    "LevelPlan", "MatchingError", "PairMatching", "Schedule",
    "SchedulingError", "SuperMatch", "TTP2Error", "ValidationError",
    "Violation", "ViolationReport", "build_schedule",
    "build_super_graph", "check_metric", "emit_instance",
    "evaluation_report", "expand_block", "factor_ours", "factor_xiao_kou",
    "factors_exact", "flip_budget", "format_level_table", "format_report",
    "generate_instance", "load_instance", "lower_bound",
    "min_weight_perfect_matching", "pairwise_sum", "parse_day_list",
    "report_to_dict", "report_to_json", "save_instance",
    "schedule_from_dict", "schedule_from_json", "schedule_to_dict",
    "schedule_to_json", "super_pair_matching", "team_itinerary",
    "total_travel", "validate_schedule", "__version__",
]
