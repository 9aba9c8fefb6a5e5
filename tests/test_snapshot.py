"""The CLI's bytes, pinned: every file scripts/snapshot_outputs.py writes,
against the sha256 manifest in snapshot.sha256.

The files are regenerated through cli.main in this process, with
COLUMNS=80 pinned as the script pins it for argparse's usage and help;
TestOneProcess in test_cli.py shows that in-process and fresh outputs
agree.  The bytes depend on numpy's log2 and exp bits: the manifest was
written with numpy 2.4.6.  A change that moves bytes on purpose rewrites
the manifest, from the root of the checkout:

    python scripts/snapshot_outputs.py OUT
    (cd OUT && LC_ALL=C sha256sum *) > tests/snapshot.sha256
"""

import hashlib
import runpy
from pathlib import Path

from qubitvar.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("snapshot.sha256")


def _manifest() -> dict[str, str]:
    digests = {}
    for line in MANIFEST.read_text().splitlines():
        digest, name = line.split("  ", 1)
        digests[name] = digest
    return digests


def _write(outdir: Path, name: str, code: int, capsys) -> None:
    """NAME.stdout, NAME.stderr and NAME.exit of one call, as the script writes them."""
    captured = capsys.readouterr()
    (outdir / f"{name}.stdout").write_bytes(captured.out.encode())
    (outdir / f"{name}.stderr").write_bytes(captured.err.encode())
    (outdir / f"{name}.exit").write_text(f"{code}\n")


def test_outputs_match_the_manifest(tmp_path, capsys, monkeypatch):
    snapshot = runpy.run_path(str(ROOT / "scripts" / "snapshot_outputs.py"))
    demo = runpy.run_path(str(ROOT / "scripts" / "feedback_demo.py"))["run"]
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)  # the script's commands run in the checkout's root
    capsys.readouterr()
    for name, flags in snapshot["SWEEPS"].items():
        code = main(["sweep", *flags, "--output", str(tmp_path / f"{name}.csv")])
        _write(tmp_path, name, code, capsys)
    for name, args in snapshot["COMMANDS"].items():
        _write(tmp_path, name, main([a.format(out=tmp_path) for a in args]), capsys)
    _write(tmp_path, "feedback_demo", demo(), capsys)

    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in tmp_path.iterdir()}
    want = _manifest()
    changed = sorted(name for name in got.keys() & want.keys() if got[name] != want[name])
    assert (sorted(got.keys() - want.keys()), sorted(want.keys() - got.keys()), changed) \
        == ([], [], [])
