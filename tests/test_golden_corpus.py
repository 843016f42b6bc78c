"""The committed golden corpus (tests/golden_corpus.py) against the code, family by family.

The manifest holds one sha256 per family. The JSON families and the api families print
floats at full repr, so they pin this platform's libm (sin, cos, asin, sqrt) to the last
bit, as the 9x9x7 JSON sweep pin in test_cli does; another platform may move them while
the 12-digit text and CSV families hold. Re-record only with ``golden_corpus.py --write``.
"""

import inspect
import json

from golden_corpus import MANIFEST, manifest

from qpd_rde import ewl, game_core, quantum_rde, risk_dominance


def test_golden_manifest_matches_family_by_family():
    recorded = json.loads(MANIFEST.read_text())
    computed = manifest()
    assert sorted(computed) == sorted(recorded)
    assert [name for name in recorded if computed[name] != recorded[name]] == []


def test_every_public_function_has_an_api_family():
    public = {name for module in (game_core, risk_dominance, ewl, quantum_rde) for name in module.__all__
              if inspect.isfunction(getattr(module, name))}
    assert public <= {name.removeprefix("api.") for name in json.loads(MANIFEST.read_text())}
