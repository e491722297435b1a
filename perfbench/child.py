"""Fresh-interpreter probes of the releq benchmark.

    python3 child.py import SRC                  print the import time of releq.cli
    python3 child.py sweep SRC DIR OUT TRACE     run ``releq --sweep DIR`` and
                                                 write timings (and, with TRACE=1,
                                                 layer records) to OUT as JSON
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def main(argv: list[str]) -> int:
    mode, src = argv[0], argv[1]
    sys.path.insert(0, src)
    start = perf_counter()
    import releq.cli

    import_s = perf_counter() - start
    if mode == "import":
        print(repr(import_s))
        return 0

    sweep_dir, out_path, trace = argv[2], Path(argv[3]), argv[4] == "1"
    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer, cache_misses

        tracer = Tracer()
        tracer.install(include_main=False)
    start = perf_counter()
    code = releq.cli.main(["--sweep", sweep_dir])
    main_s = perf_counter() - start
    result = {"exit": code, "import_s": import_s, "main_s": main_s}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.collect()
        result["misses"] = cache_misses()
    out_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
