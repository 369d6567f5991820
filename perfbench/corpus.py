"""Seeded corpus of small modules with planted analyzer hazards.

The ``analyze-src`` workload scores the analyzer as a labeller: each
generated module is either clean or carries exactly one planted hazard,
and the analyzer's findings label it.  A module is labelled correctly
when the set of rules that fire on it equals the set planted.  The seed
decides which hazards go where, so the program only sees generated
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

#: Clean helper functions; every module gets a seeded selection.
CLEAN_SNIPPETS = (
    '''
def seeded_draw_{i}(seed):
    """Draw from a seeded generator."""
    rng = np.random.default_rng(seed)
    return rng.random(3)
''',
    '''
def sorted_listing_{i}(path):
    """List a directory in a stable order."""
    return [name.upper() for name in sorted(os.listdir(path))]
''',
    '''
def injected_clock_{i}(clock):
    """Read time only through an injected clock."""
    return clock()
''',
    '''
def local_counts_{i}(items):
    """Count items in a function-local dict."""
    totals = {{}}
    for item in items:
        totals[item] = totals.get(item, 0) + 1
    return totals
''',
)

#: Planted hazards: (rule ids expected to fire, source).
HAZARDS = (
    (("REPRO001",), '''
def global_draw_{i}():
    """Draw from the global numpy RNG."""
    return np.random.rand(3)
'''),
    (("REPRO002",), '''
def mutable_default_{i}(items=[]):
    """Share one default list across calls."""
    return items
'''),
    (("REPRO004",), '''
def swallow_{i}():
    """Swallow every exception."""
    try:
        return 1 / 0
    except:
        pass
'''),
    (("REPRO006",), '''
def undocumented_{i}(values):
    total = 0
    for value in values:
        total += value
    return total
'''),
    (("REPRO011",), '''
def unsorted_listing_{i}(path):
    """Let filesystem order leak into the result."""
    names = os.listdir(path)
    return [name.upper() for name in names]
'''),
    (("REPRO012",), '''
def wall_clock_{i}():
    """Read the wall clock directly."""
    return time.time()
'''),
)

HEADER = '''"""Generated module {i}."""

import os
import time

import numpy as np
'''


@dataclass(frozen=True)
class CorpusModule:
    """One generated module and the rule ids planted in it."""

    path: Path
    planted: frozenset


def write_corpus(root: Path, seed: int, n_modules: int) -> List[CorpusModule]:
    """Write ``n_modules`` modules under ``root``; half carry one hazard."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    modules = []
    for i in range(n_modules):
        parts = [HEADER.format(i=i)]
        for k in rng.choice(len(CLEAN_SNIPPETS), size=2, replace=False):
            parts.append(CLEAN_SNIPPETS[int(k)].format(i=i))
        planted: frozenset = frozenset()
        if rng.random() < 0.5:
            rules, source = HAZARDS[int(rng.integers(len(HAZARDS)))]
            parts.append(source.format(i=i))
            planted = frozenset(rules)
        path = root / f"gen_{i:03d}.py"
        path.write_text("\n".join(parts))
        modules.append(CorpusModule(path, planted))
    return modules
