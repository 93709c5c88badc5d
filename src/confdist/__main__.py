"""The command-line entry: `python -m confdist` and the `confdist` console
script both call `run`."""

import gc

from .cli import main


def run() -> None:
    """Run the CLI on `sys.argv` and exit with its code.

    Every import is done by now, and what the imports built lives until
    exit, so it is moved out of the collector's reach: the collections at
    interpreter shutdown then skip its tens of thousands of objects
    instead of walking them and freeing their cycles. `import confdist`
    has already moved that heap to the oldest generation without scanning
    it, so the freeze finds it there. Objects the command creates are
    collected as usual. Only the launcher keeps objects frozen;
    `import confdist` and `cli.main` leave the freeze count and the
    collector's on/off state as they found them.
    """
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
