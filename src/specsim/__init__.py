"""Prediction-aware symbolic execution for speculative cache-leak detection."""

from .cache import CacheConfig, CacheState, LeakResult, leak_check
from .engine import Engine, Event, Finding, RunResult
from .expr import Const, Expr, Model, Sym, Taint, const, evaluate, mk_binop, sym
from .monitor import (MonitorInstance, MonitorSpec, PatternError,
                      load_pattern, load_pattern_file)
from .predictor import PRESETS, Btb, PredictorConfig, PredictorState, TwoLevel, preset
from .sir import LayoutError, ParseError, Program, layout_regions, parse_program

__all__ = [
    "Btb", "CacheConfig", "CacheState", "Const", "Engine", "Event", "Expr",
    "Finding", "LayoutError", "LeakResult", "Model", "MonitorInstance",
    "MonitorSpec", "ParseError", "PatternError", "PRESETS", "PredictorConfig",
    "PredictorState", "Program", "RunResult", "Sym", "Taint", "TwoLevel",
    "const", "evaluate", "layout_regions", "leak_check", "load_pattern",
    "load_pattern_file", "mk_binop", "parse_program", "preset", "sym",
]

__version__ = "1.0.0"
