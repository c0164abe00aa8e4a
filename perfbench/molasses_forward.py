"""Plugin loaded after ``examples/plugins/slow_backend.py`` by the self-check.

In hijack mode the example wraps every standard walk backend in
``_SleepyBackend``, which forwards only the walk-backend protocol.  The
hybrid backend builds its hardware half through the same registry and
then reads ``has_free_walker`` from it, so hybrid configurations fail.
This plugin makes the wrapper forward every other attribute to the
backend it wraps; simulated results stay bit-identical.
"""

import sys

_molasses = sys.modules["repro_plugin_slow_backend"]


def _forward(self, name):
    return getattr(self._inner, name)


_molasses._SleepyBackend.__getattr__ = _forward
