"""Run the pathmeas CLI with its library calls traced.

Traced cli-batch rounds launch ``python3 perfbench/clishim.py <args>`` in
place of ``python -m pathmeas.cli <args>``.  The shim records a span
around the import of pathmeas.cli and around every pathmeas function the
command calls, then writes them to the file named by PERFBENCH_SPANS.
"""

import os
import sys

from tracing import Tracer


def main():
    tracer = Tracer()
    code = 0
    try:
        with tracer.span("cli.import"):
            import pathmeas.cli as cli
        with tracer.patch_cli(cli):
            cli.main(args=sys.argv[1:], prog_name="pathmeas")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])
    sys.exit(code)


if __name__ == "__main__":
    main()
