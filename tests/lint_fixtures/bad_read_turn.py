# ruff: noqa
"""Seeded-bad fixture: engine-wide locks taken inside read turns.

Acquiring the engine mutex inside a read turn is two violations at once:
the snapshot-isolation rule (readers share only their index latch) and a
rank inversion (the read turn's latch outranks the mutex it then takes).
"""


def mutex_inside_read_turn(engine):
    with engine.read_turn("points") as epoch:
        with engine._write_mutex:  # seeded: engine-lock-in-read-turn # seeded: lock-order
            pass


def write_turn_inside_read_turn(engine):
    with engine.read_turn("points"):
        with engine.write_turn():  # seeded: engine-lock-in-read-turn # seeded: lock-order
            pass


def bare_write_turn_call_inside_read_turn(engine):
    with engine.read_turn("points"):
        engine.write_turn()  # seeded: engine-lock-in-read-turn


def read_turn_alone_is_fine(engine, q):
    with engine.read_turn("points"):
        return engine.query("points", q).all()
