"""Import every uqsub module before the tests are collected.

Hypothesis adds the numeric constants of the local, non-test modules in
`sys.modules` to its draws, also under `derandomize=True`.  With every
module loaded up front, a test draws the same examples whichever tests the
run selects.
"""
import importlib
import pkgutil

import uqsub

for _module in pkgutil.iter_modules(uqsub.__path__):
    importlib.import_module(f"uqsub.{_module.name}")
