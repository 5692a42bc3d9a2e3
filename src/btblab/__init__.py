"""btblab: trace-driven simulation and storage accounting for BTB designs.

The names below are exported lazily: `from btblab import run` imports the
simulator on first use, so a command that needs only the trace generator
never loads the models.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("ALIGNED4", "BYTE", "BranchKind", "BranchRecord", "IsaProfile",
             "OffsetEncoding", "decode_target", "encode_offset",
             "required_offset_width"),
    "models": ("BtbX", "ConvBtb", "PdedeBtb", "RBtb", "build_model"),
    "sim": ("Metrics", "SimConfig", "compare", "offset_histogram", "run"),
    "storage": ("BtbxGeometry", "btbx_total_bits", "capacity_table",
                "conv_capacity"),
    "trace": ("GeneratorSpec", "TraceFile", "generate", "load_trace",
              "save_trace"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
