"""Empty: the solver reads both CRT solutions off the certificates (Herzog's
relations), so no CRT code is left here.

The file stays only because the benchmark's tracer (`perfbench/spans.py`)
imports every module named in its `LAYERS`, `"modarith"` among them, and a
traced `python3 perfbench/run.py` dies with ModuleNotFoundError without it.
ROADMAP item 1 drops the name from `spans.LAYERS` (with `modarith.crt_ms`);
then this file goes, together with the test that pins it.
"""
