"""`lapdiff estimate` in a child process, with every layer under the tracer.

    python3 perfbench/traced_cli.py <spans.json> estimate [flags ...]

The traced estimate-cli pass runs this instead of `python -m lapdiff.cli`;
the spans are written to <spans.json> when the command returns.
"""

import importlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.spans import Tracer, install_library  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = tracer.call("cli.import", importlib.import_module, ("lapdiff.cli",), {})
    install_library(tracer)
    try:
        code = tracer.call("cli.main", cli.main, (argv,), {})
    finally:
        tracer.uninstall()
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
