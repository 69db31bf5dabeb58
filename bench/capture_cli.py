"""Rewrite the expected stdout and exit code of every cli-workload op.

Run from the repository root: python3 bench/capture_cli.py.  The files
committed in ``expected/cli`` were captured at the commit that introduced
the benchmark; rewrite them only when a change of output is intended.
"""

import json

import cli_workload as cw


def main() -> None:
    cw.EXPECTED.mkdir(parents=True, exist_ok=True)
    env = cw.environment()
    manifest = {}
    for name, argv in cw.commands().items():
        _elapsed, code, stdout = cw.run_plain(argv, env)
        (cw.EXPECTED / f"{name}.out").write_bytes(stdout)
        manifest[name] = {"argv": argv, "exit": code}
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    (cw.EXPECTED / "manifest.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
