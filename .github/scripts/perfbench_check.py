"""Judge one saved ``perfbench/run.py`` output; exit 1 if it fails a check.

    python3 .github/scripts/perfbench_check.py OUT [--backend B]
        [--min METRIC=VALUE ...]

Always checks the verdict line: ``correct`` is true and ``failed`` is 0.
``--backend`` also requires the ``env`` line's resolved
``engine_backend`` to be ``B``, so a run that silently fell back to
another event core cannot pass a gate meant for ``B``.  Each ``--min``
requires that end-to-end metric to be at least ``VALUE``.
"""

import argparse
import json
import sys


def parse_floor(text):
    metric, sep, value = text.partition("=")
    if not sep or not metric:
        raise argparse.ArgumentTypeError(f"expected METRIC=VALUE, got {text!r}")
    return metric, float(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="file holding perfbench's stdout")
    parser.add_argument("--backend", help="required engine_backend")
    parser.add_argument("--min", type=parse_floor, action="append",
                        default=[], metavar="METRIC=VALUE",
                        help="floor on one metric (repeatable)")
    args = parser.parse_args(argv)

    with open(args.out) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    verdict = json.loads(lines[-1])
    env = next((json.loads(line[len("env "):]) for line in lines
                if line.startswith("env ")), {})

    problems = []
    if verdict["correct"] is not True or verdict["failed"] != 0:
        problems.append(f"{verdict['failed']} of {verdict['attempted']} "
                        "correctness checks failed")
    if args.backend and env.get("engine_backend") != args.backend:
        problems.append(f"ran on engine_backend "
                        f"{env.get('engine_backend')!r}, not {args.backend!r}")
    for metric, floor in args.min:
        value = verdict["metrics"].get(metric, {}).get("value")
        if value is None or value < floor:
            problems.append(f"{metric} = {value}, below the floor {floor:g}")
        else:
            print(f"{metric} = {value:.6g} (floor {floor:g})")

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"ok: {verdict['attempted']} checks, 0 failed, "
          f"engine_backend {env.get('engine_backend')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
