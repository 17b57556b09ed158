"""One traced treeshift CLI process, for the traced pass of cli-cold.

    python bench/cli_entry.py DUMP OP_ID --import-only
    python bench/cli_entry.py DUMP OP_ID <treeshift arguments...>

Installs the layer wrappers (which imports treeshift), runs the command as
``python -m treeshift.cli`` would, and writes the spans and totals to DUMP.
"""

import sys

from tracer import Tracer


def main() -> int:
    dump, op_id, *args = sys.argv[1:]
    tracer = Tracer()
    tracer.begin_op(int(op_id))
    tracer.install()
    try:
        if args == ["--import-only"]:
            return 0
        from treeshift import cli

        return cli.main(args)
    finally:
        tracer.dump(dump)


if __name__ == "__main__":
    sys.exit(main())
