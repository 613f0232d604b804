"""The engine's per-read bookkeeping, counted in Python calls.

A prepared ``Stab`` through :meth:`~repro.engine.session.EngineSession.run`
does the index's own work — the metablock walk, the page reads, the
tombstone and version filters, the bound formula — and around it the
engine's: the snapshot pin and latch, the spans, the binding and the plan,
the result and its I/O accounting.  Wall time on a shared host is too noisy
to gate, so this counts the engine's share deterministically: the Python
``call`` events that ``sys.setprofile`` reports per read, leaving out the
frames of the index's own modules.

Before the read path was made lean it made 117.4 such calls per read here
(of 272.2 Python and 159.4 C calls in all); since, it makes 68.2 (of 225.1
and 111.0).  The gate holds it at no more than 60 % of the former count.
"""

import random
import sys

from repro import Engine, Param, SimulatedDisk, Stab
from repro.workloads import random_intervals

#: the index's own work: structures, page reads, versions, bound formulas
INDEX_MODULES = (
    "repro/metablock/",
    "repro/core/",
    "repro/io/disk.py",
    "repro/rebuilding.py",
    "repro/analysis/complexity.py",
)

#: engine-side calls per prepared stab before the read path was made lean
FORMER_ENGINE_CALLS = 117.4


def engine_calls_per_read(reads: int = 200, seed: int = 7) -> float:
    """Python calls outside :data:`INDEX_MODULES` per prepared ``Stab``
    (n = 10 000, B = 16, on a :class:`SimulatedDisk`, after a warm-up)."""
    engine = Engine(SimulatedDisk(block_size=16))
    engine.create_collection("c", random_intervals(10_000, (0.0, 1000.0), 20.0, seed=seed))
    session = engine.session()
    stab = session.prepare("c", Stab(Param("x")))
    rnd = random.Random(seed)
    xs = [rnd.uniform(0.0, 1000.0) for _ in range(100 + reads)]
    for x in xs[:100]:
        session.run(stab, x=x)
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and not any(m in frame.f_code.co_filename for m in INDEX_MODULES):
            calls[0] += 1

    sys.setprofile(profile)
    try:
        for x in xs[100:]:
            session.run(stab, x=x)
    finally:
        sys.setprofile(None)
    return calls[0] / reads


def test_a_prepared_stab_makes_at_most_60_percent_of_the_former_engine_calls():
    per_read = engine_calls_per_read()
    assert per_read <= 0.6 * FORMER_ENGINE_CALLS, per_read
