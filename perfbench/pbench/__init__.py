"""Repository benchmark: the ``build``, ``query`` and ``serve`` workloads.

``perfbench/run.py`` is the one command; this package holds its parts:
input preparation (:mod:`.prepare`), percentile and failure accounting
(:mod:`.measure`), span tracing (:mod:`.tracing`), the metric catalogue
(:mod:`.metrics`) and the workloads themselves.
"""
