"""Timed-game solving and strategy synthesis (the UPPAAL-TIGA analogue)."""

from .export import (
    PackedStrategy,
    StrategyFormatError,
    load_strategy,
    save_strategy,
    strategy_from_dict,
    strategy_to_dict,
)
from .cooperative import CooperativePlan, CooperativeStrategy, solve_cooperative
from .predt import predt, predt_mixed, up_strict
from .safety import SafetyGameSolver, SafetyResult, SafetyStrategy, solve_safety_game
from .solver import (
    GameError,
    GameResult,
    NodeWin,
    OnTheFlySolver,
    TwoPhaseSolver,
    solve_reachability_game,
)
from .strategy import ActionDecision, Decision, NodeStrategy, Strategy, Verdictish
from .warm import WinSetCache, resolve_cache, warm_solve
