"""One run path: every entry point builds and drives a point the same way.

``repro.harness.runner.simulate`` is the only place a simulation is
built; ``Runner.run``, the sweep worker, the service's job worker and
``repro run`` all go through it.  The same point therefore gives one
fingerprint and one event count whichever door it came in by, and a
sweep point's event budget is part of its store key only when it is
set.
"""

import dataclasses
import json
import re

from repro.cli import main
from repro.config import baseline_config, config_fingerprint, softwalker_config
from repro.gpu.gpu import SimulationResult
from repro.harness.pool import SweepPoint, make_point, pool_context
from repro.harness.runner import Runner
from repro.harness.store import ResultStore, fingerprint_digest
from repro.service.protocol import JobSpec
from repro.service.scheduler import _job_worker

SCALE = 0.02
CONFIG = softwalker_config().derive(num_sms=4)


def job_worker_result(spec: JobSpec) -> dict:
    """Fork ``_job_worker`` the way a worker host does; its terminal frame."""
    ctx = pool_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_job_worker,
        args=(spec.to_dict(), {}, 0, child_conn),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    terminal = None
    try:
        while True:
            message = parent_conn.recv()
            if message["type"] != "heartbeat":
                terminal = message
    except EOFError:
        pass
    finally:
        parent_conn.close()
        proc.join(timeout=60)
    assert terminal is not None and terminal["type"] == "result", terminal
    return terminal


def test_one_point_gives_one_answer_through_every_entry_point(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    direct = Runner(store=None).run(CONFIG, "gups", scale=SCALE)

    point = make_point(CONFIG, "gups", scale=SCALE)
    # A second point makes the sweep fork its process pool.
    other = make_point(baseline_config().derive(num_sms=4), "gups", scale=SCALE)
    swept = Runner(store=None).sweep([point, other], jobs=2)[point]

    terminal = job_worker_result(JobSpec(benchmark="gups", config=CONFIG, scale=SCALE))
    served = SimulationResult.from_dict(terminal["result"])
    assert terminal["report"] == {"degraded": False, "failures": []}

    config_file = tmp_path / "sw4.json"
    config_file.write_text(json.dumps(CONFIG.to_dict()))
    assert main(
        ["run", "gups", "--config", f"@{config_file}", "--scale", str(SCALE)]
    ) == 0
    printed = re.search(r"^cycles\s+(\d+)", capsys.readouterr().out, re.MULTILINE)
    assert printed is not None

    results = (direct, swept, served)
    assert all(result.complete for result in results)
    assert len({fingerprint_digest(result) for result in results}) == 1
    assert len({result.perf["events"] for result in results}) == 1
    assert int(printed.group(1)) == direct.cycles


class TestStoreKey:
    def test_unbudgeted_key_is_the_five_field_literal(self):
        point = SweepPoint(config=CONFIG, benchmark="gups", scale=SCALE, seed=3)
        assert point.store_key() == {
            "config": config_fingerprint(CONFIG),
            "benchmark": "gups",
            "scale": SCALE,
            "footprint_scale": 1.0,
            "seed": 3,
        }

    def test_budgeted_key_adds_max_events(self):
        point = SweepPoint(
            config=CONFIG, benchmark="gups", scale=SCALE, max_events=4000
        )
        assert point.store_key() == {
            "config": config_fingerprint(CONFIG),
            "benchmark": "gups",
            "scale": SCALE,
            "footprint_scale": 1.0,
            "seed": None,
            "max_events": 4000,
        }
        assert SweepPoint.from_dict(point.to_dict()) == point

    def test_entry_under_the_explore_rung_key_serves_the_budgeted_point(
        self, tmp_path
    ):
        """Explore's budgeted rungs have always stored under the five
        fields plus ``max_events``; those entries stay warm."""
        point = make_point(CONFIG, "gups", scale=SCALE)
        budgeted = dataclasses.replace(point, max_events=2000)
        partial = Runner(store=None).sweep([budgeted])[budgeted]
        assert not partial.complete

        store = ResultStore(tmp_path / "store")
        rung_key = {
            "config": config_fingerprint(CONFIG),
            "benchmark": "gups",
            "scale": SCALE,
            "footprint_scale": 1.0,
            "seed": None,
            "max_events": 2000,
        }
        store.store(rung_key, partial)
        runner = Runner(store=store)
        served = runner.sweep([budgeted])[budgeted]
        assert runner.cache_info()["simulations"] == 0
        assert fingerprint_digest(served) == fingerprint_digest(partial)
        # The unbudgeted point never sees the partial entry.
        assert store.load(point.store_key()) is None
