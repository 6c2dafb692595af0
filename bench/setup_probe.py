"""Cold-start probe: import mmzi and build each circuit's model once.

Run in a fresh interpreter so the import and the photon-number sector
cache (``mmzi.fock._SECTOR_CACHE``) start cold:

    python3 bench/setup_probe.py SRC_DIR CIRCUITS_JSON

``CIRCUITS_JSON`` is a JSON list of circuit sections in the CLI's config
format.  Prints the elapsed seconds, measured from before ``import mmzi``.
Only the standard library is imported before the clock starts.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def build_models(mmzi, circuits):
    """One model per circuit section ({"modes", "probe", "phi0", "alpha"})."""
    models = []
    for circuit in circuits:
        modes = circuit["modes"]
        interf = mmzi.three_mode_mzi() if modes == 3 else mmzi.four_mode_mzi(circuit["phi0"])
        if circuit["probe"] == "coherent":
            probe = mmzi.Probe.coherent(circuit["alpha"])
        else:
            probe = getattr(mmzi.Probe, circuit["probe"])((1,) * modes)
        models.append(mmzi.build_model(interf, probe))
    return models


def main(argv) -> int:
    src, circuits = argv[1], json.loads(argv[2])
    sys.path.insert(0, src)
    import mmzi

    build_models(mmzi, circuits)
    print(repr(time.perf_counter() - _START))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
