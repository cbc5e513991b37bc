"""Settings for every test session, in tests/ and perfbench/tests alike."""

import os

# pyproject.toml's filterwarnings turns a RuntimeWarning into an error in the
# pytest process only. Processes the tests start (CLI subprocesses, sweep
# workers, demos) inherit the environment, so this carries the same rule to
# them: a numpy overflow there fails its run instead of reaching stderr.
os.environ["PYTHONWARNINGS"] = ",".join(
    filter(None, [os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning"])
)
