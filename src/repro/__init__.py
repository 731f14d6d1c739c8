"""ctms-repro: a reproduction of the USENIX 1991 CTMS paper.

Reproduces "Distributed Multimedia: How Can the Necessary Data Rates be
Supported?" (Pasieka, Crumley, Marks, Infortuna; CMU Information Technology
Center) as a calibrated discrete-event simulation of the complete testbed:
IBM RT/PC machines, a 4 Mbit Token Ring, a BSD 4.3-style kernel, the CTMSP
protocol with direct driver-to-driver transfer, and the paper's own
measurement instruments.

Quick start::

    from repro import CTMSSession, HostConfig, Testbed
    from repro.sim.units import SEC

    bed = Testbed(seed=42)
    tx = bed.add_host(HostConfig(name="transmitter"))
    rx = bed.add_host(HostConfig(name="receiver"))
    session = CTMSSession(tx.kernel, rx.kernel)
    session.establish()
    bed.run(5 * SEC)
    print(session.stats.throughput_bytes_per_sec())

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results; ``python -m repro list`` runs the experiments
from a shell.
"""

import sys
from importlib import import_module

__version__ = "1.0.0"


def _lazy_facade(package: str, exports: dict[str, str]):
    """PEP 562 hooks that make a package façade import only what is used.

    ``exports`` maps each public name to the module, relative to
    ``package``, that defines it; a name mapped to itself is that
    submodule.  The façade binds the returned ``(__getattr__, __dir__,
    __all__)``: a name's module is imported on its first access, and the
    value is then cached in the package namespace.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        module = import_module(f"{package}.{source}")
        value = module if source == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__, sorted(exports)


__getattr__, __dir__, __all__ = _lazy_facade(__name__, {
    "CTMSSession": "core.session",
    "FaultInjector": "faults.injectors",
    "FaultPlan": "faults.plan",
    "Host": "experiments.testbed",
    "HostConfig": "experiments.testbed",
    "Scenario": "experiments.scenarios",
    "SessionEstablishTimeout": "core.session",
    "StreamInvariantMonitor": "faults.invariants",
    "Testbed": "experiments.testbed",
    "test_case_a": "experiments.scenarios",
    "test_case_b": "experiments.scenarios",
})
__all__.append("__version__")
