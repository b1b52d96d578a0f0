"""Streaming toolkit for Freebase-style RDF N-Triples dumps.

Parses dumps at scale, slices triples by predicate domain, reconstructs the
per-domain ontology layer (types, properties, descriptions, details), applies
the graph's merge and value-notation semantics, and correlates each domain's
triple volume with its ontology complexity.

A dump is read through :func:`fbont.pipeline.run_folds`, the route the CLI
takes: one parse feeds every triple to each fold (``SliceFold``,
``SchemaFold``, ``SemanticsFold``) and returns the merged payload, whose
fields the names below turn into results.
"""

from .model import Mid, idpath, render
from .parser import ParseReport, iter_triples, serialize
from .schema import complexity_score
from .semantics import CyclePolicy, IncompatibilityRule, check_incompatibilities, rewrite_canonical
from .slicer import build_taxonomy
from .stats import StudyRow, run_study

__version__ = "0.1.0"

__all__ = [
    "CyclePolicy",
    "IncompatibilityRule",
    "Mid",
    "ParseReport",
    "StudyRow",
    "build_taxonomy",
    "check_incompatibilities",
    "complexity_score",
    "idpath",
    "iter_triples",
    "render",
    "rewrite_canonical",
    "run_study",
    "serialize",
]
