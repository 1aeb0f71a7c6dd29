"""Planning toolkit for a trapped Ba+ ion-photon quantum network link.

Modules by capability:

* :mod:`ionlink.atomic` - level structure, decay amplitudes, branching model
* :mod:`ionlink.schemes` - entanglement schemes, fidelity and probability vs NA
* :mod:`ionlink.emission` - dipole emission patterns and collection optics
* :mod:`ionlink.pump_cycle` - exact and Monte Carlo pump-cycle solvers
* :mod:`ionlink.trap` - linear RF trap pseudopotential and secular frequency
* :mod:`ionlink.qfc` - three-wave-mixing conversion stages and poling design
* :mod:`ionlink.fiber` - attenuation, crossover distances, link budgets
* :mod:`ionlink.cli` - the ``ionlink`` command-line front end

The modules and the names below are imported on first access (PEP 562), so
``import ionlink`` loads none of them, and the ``ionlink`` command loads
only the layer of the subcommand it runs.  The package has no
dependencies.  numpy is optional, and only one thing imports it: the Monte
Carlo of :mod:`ionlink.pump_cycle`, which without numpy raises Python's own
``ModuleNotFoundError``.  Everything else, every table export and the exact
chain solve included, is plain Python.
"""

__version__ = "0.1.0"

#: The names ``ionlink`` exports, by the module that defines them.
_EXPORTS = {
    "atomic": (
        "BranchingModel", "DecayChannel", "Level", "Polarization", "ZeemanState",
        "allowed_decays", "default_barium_model", "load_model", "save_model",
    ),
    "emission": (
        "CollectionModel", "EmissionDirection", "PolarizationVector",
        "collection_fraction", "pi_emission", "polarization_overlap", "sigma_emission",
    ),
    "errors": ("DomainError", "NumericError"),
    "fiber": (
        "FiberChannel", "conversion_crossing", "link_rate", "standard_channel", "transmission",
    ),
    "pump_cycle": ("ChainOutcome", "PumpCycleConfig", "geometric_branch_probabilities",
                   "simulate", "solve_exact"),
    "qfc": (
        "ConversionStage", "DispersionModel", "LightField", "MixKind", "NoiseFinding",
        "chain_efficiency", "dfg_output", "load_dispersion", "noise_audit", "plan_stage",
        "qpm_residual", "sfg_output", "solve_poling_period", "standard_conversion_table",
    ),
    "schemes": (
        "D_SHELVING", "SCHEMES", "STRONG", "WEAK", "SchemeSpec", "entanglement_probability",
        "fidelity_at_na", "mixture_fidelity", "scheme_comparison",
    ),
    "trap": ("TrapConfig", "pseudopotential", "secular_frequency"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:
        # binds the module here; unlike importlib's, this import shows in -X importtime
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name in _MODULE_OF:
        value = globals()[name] = getattr(__getattr__(_MODULE_OF[name]), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
