"""Golden outputs: SHA-256 digests of the ``--json`` payload and exit code
of representative CLI commands.

A digest changes only when a payload or an exit code does.  ``casebook``
drops each result's ``elapsed``, the one field that depends on the host.
On a mismatch the failure names the command and its new digest; update
the table only for an output change that is meant.
"""

import hashlib
import json

import pytest

from edgeiso.cli import main

GOLDEN = {
    "solve petersen":
        "9f9709e39df7029885810256f1bfd75a1455273166bc96ce658318653956f2d2",
    "solve z(2)":
        "2c5d6caca59f8e495d8be61bb2f700860da2ffbda876b78bbeaf58a3332d89f8",
    "delta complete(5)":
        "4159b2ea65726fe0bcacaa2ee5ca05d3da3028485e4711e4e76b3825e152b011",
    "delta z(2)":
        "322b1dd8410319936a5feec44f42b8a4f30c75fe089069de851f9aae3e14df80",
    "ns union(cycle(4),complete(3))":
        "cde931cae9cd9eb759d1ea32d2e5606671622834456c3b918110c07d5b6f213a",
    "ns petersen":
        "45eb218ba9c8d8a97dbf03087c13c93abe94093f708ea4c302943b283ed35e11",
    "orders petersen --cap 3":
        "9684bcd99e95aaf97718592ea83b9dd7f3e931e81d6b936c1b09c16d4b8a9cfd",
    "uniqueness z(2)":
        "de6952985e5a4a110ba4b10ac9811b5e73e22c4241310af746138659a6285ecd",
    "uniqueness path(12)":
        "d85b8e7c685e83da1379b5661a103bd66a3001e1c538528c3dcfac9483626c44",
    "uniqueness complete(3) --cap-chains 1":
        "0229742af8b019a6d2e53450832489340f214ce2ed48dfcbd161066b5cac0132",
    "lex2 z(2)":
        "478de9f03e818fac954731d440c92977e782988cc6f95e4555cdb73a5f8f49db",
    "lex2 cycle(16)":
        "b35e9d45041f4e7fc5c961427f19fabd0c3c626dd0d8044ca160142ff3c7415b",
    "power-check complete(2) --d 4":
        "00831fff43cdeb1c67d1af0d4c25047465c6902c417e01820c32d3c01916b0f1",
    "power-check complete(3) --d 5 --mode compressed":
        "c2e4725b82c16f1da5d5dbb648c2604f57aaf222414bb3a7a118ce0ee4b7454e",
    "power-check petersen --d 3 --mode compressed":
        "abf77d486fb4af84ffaadc1a8c2f7bf17fb9904df37fbce0380fad06196f322b",
    "casebook":
        "93e5cee327d116c485a6ddfa9a84053324248d552325569d56ce09fa5c5c11a2",
}


def digest(capsys, command: str) -> str:
    code = main([*command.split(" "), "--json"])
    payload = json.loads(capsys.readouterr().out)
    for result in payload.get("results", ()):
        del result["elapsed"]
    text = json.dumps({"exit": code, "payload": payload}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", GOLDEN)
def test_golden_output(capsys, command):
    got = digest(capsys, command)
    assert got == GOLDEN[command], f"edgeiso {command} --json: new digest {got}"
