"""Start the fleet service the way ``repro serve --workers 2`` does,
optionally with the benchmark's timing wrappers installed first.

    python3 perfbench/service_launcher.py --root DIR [--spans FILE]

With ``--spans`` the spans are kept in memory and written to FILE when
the service stops (SIGTERM or SIGINT stop it gracefully).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, help="service home directory")
    parser.add_argument("--spans", help="write the service's spans here on exit")
    args = parser.parse_args(argv)
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]  # not this directory

    from perfbench import hooks
    from perfbench.fleet_service import WORKERS
    from perfbench.spans import Tracer
    from repro.service import ServiceConfig, serve

    tracer = Tracer(tag="s") if args.spans else None
    if tracer is not None:
        hooks.install(tracer, hooks.SERVICE)
    try:
        serve(ServiceConfig(root=args.root, n_workers=WORKERS),
              install_signal_handlers=True)
    finally:
        if tracer is not None:
            tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
