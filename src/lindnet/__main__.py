"""Entry point of `python -m lindnet` and of the installed `lindnet` script.

What the command line imports (NumPy, PyYAML and the engine) lives as long as
the process, so the cyclic collector is kept off it: it does not run while
those modules load, and gc.freeze moves what they left into the permanent
generation, which no collection scans, the full one at exit included.
Everything the command allocates afterwards is collected as usual. No
collection runs before the freeze: freeing the cyclic garbage the imports
leave (under a megabyte) would cost the full scan this saves. Importing
lindnet.cli from a library leaves the collector alone.
"""

import gc
import sys

gc.disable()
try:
    from lindnet.cli import main
    gc.freeze()
finally:
    gc.enable()

if __name__ == "__main__":
    sys.exit(main())
