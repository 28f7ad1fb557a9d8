"""The integrated toolchain's front end.

The profiling logic itself lives in :mod:`repro.api` (Session / ProfileSpec
/ Run); :mod:`repro.toolchain.cli` is the ``repro`` command line over it.
"""
