"""Recover inlined library-function invocations from decompiled pseudo-C.

Pipeline overview: mark target calls in C source with indelible global
array stores (`markers`), let an external toolchain compile and
decompile, reconcile surviving markers against decompiler-recovered
calls (`markers.reconcile_function`), slice bodies into labeled windows
(`windows`), fit or plug in a per-window classifier (`classify`, with a
byte-level BPE tokenizer in `bpe`), collapse window label sequences
into per-function recovery multisets (`coalesce`), add what the
decompiler already recovered (`combine`), and score against the marker
ground truth (`evaluate`). The `uninline` command wires the stages over
line-JSON files; `cli.main` is its entry point.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .bpe import BpeVocab, decode, encode, load_vocab, save_vocab, train_bpe
from .classify import (
    ExternalModelClient,
    ExternalProtocolError,
    PriorModel,
    TokenStatsModel,
    fit_prior,
    fit_token_stats,
    load_model,
    predict_prior_sequence,
    predict_token_stats,
    predict_token_stats_batch,
    save_model,
    spawn_external,
)
# the coalesce and combine operations stay on their submodules
# (uninline.coalesce.coalesce, uninline.combine.combine): re-exporting
# them here would shadow the submodule attributes of the same names
from .coalesce import (
    CoalesceParams,
    LabelSequence,
    RunSegment,
    bridge_and_encode,
    denoise,
    finalize,
)
from .combine import (
    FunctionRecovery,
    RecoveryMultiset,
    combine_recoveries,
    read_recoveries,
    write_recoveries,
)
from .corpus import (
    DecompiledFunction,
    FunctionId,
    Language,
    OptLevel,
    SourceFile,
    TargetFunctionSet,
    load_targets,
    read_functions,
    split_functions,
    split_lines,
    write_functions,
)
from .evaluate import (
    CorrelationReport,
    EvalCounts,
    EvalReport,
    frequency_correlation,
    pearson,
    score_by_name,
    score_function,
    score_recoveries,
    write_report,
)
from .markers import (
    AlreadyInstrumentedError,
    ArrayOverflowError,
    MarkerError,
    MarkerPlan,
    RecoveredMarker,
    extract_markers,
    inject_markers,
    reconcile,
    reconcile_function,
    strip_instrumentation,
)
from .windows import (
    EMPTY,
    WindowInstance,
    WindowSpec,
    read_windows,
    rebalance,
    scan_windows,
    write_windows,
)
