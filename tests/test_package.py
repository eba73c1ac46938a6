"""The package's public surface: every exported name resolves."""

import localattn


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from localattn import *", namespace)
    missing = [name for name in localattn.__all__
               if name not in namespace or not hasattr(localattn, name)]
    assert not missing, missing
