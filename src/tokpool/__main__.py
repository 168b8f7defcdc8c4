import gc
import sys

from .cli import main

if __name__ == "__main__":
    code = main()
    # the process ends here, so the interpreter's teardown need not collect
    # and free every module object one by one; frozen objects are left to the
    # kernel, while atexit handlers, stdio flushing and file closing still run.
    # cli.main itself never freezes: in-process callers run it many times
    gc.freeze()
    sys.exit(code)
