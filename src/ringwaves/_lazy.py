"""numpy, imported on first use.

The exact algebra never needs numpy, so a run that does no float work need
not pay for loading it.  `np` stands in for the module: its first attribute
read imports numpy, and each name read is then kept as a plain attribute.
A first use from several threads at once is safe, because the import system
holds a per-module lock while numpy loads and every other importer waits
for the finished module.
"""

from __future__ import annotations


class _Numpy:
    def __getattr__(self, name):
        if name.startswith("__"):  # introspection probes must not load numpy
            raise AttributeError(name)
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()
