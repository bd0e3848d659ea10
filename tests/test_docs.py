"""The README and the package sources name private helpers as ``module._name``."""
import importlib
import pkgutil
import re
from pathlib import Path

import groupdet

ROOT = Path(__file__).resolve().parents[1]
MODULES = {m.name for m in pkgutil.iter_modules(groupdet.__path__)}
BACKTICKED = re.compile(r"`+([a-z_]+)\.(_\w+)`+")


def test_every_backticked_private_name_resolves():
    named = []
    for path in [ROOT / "README.md", *sorted((ROOT / "src" / "groupdet").glob("*.py"))]:
        for module, name in BACKTICKED.findall(path.read_text(encoding="utf-8")):
            if module in MODULES:
                named.append((path.name, module, name))
    assert named
    missing = [n for n in named if not hasattr(importlib.import_module(f"groupdet.{n[1]}"), n[2])]
    assert not missing, missing
