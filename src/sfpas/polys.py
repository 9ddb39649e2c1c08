"""Empty: the polynomial lane was removed.

Pencil triples are decided with scalar exact linear algebra in
``families.stromme_check``.  The module stays importable only because
the benchmark's tracer imports every layer it names, ``polys`` among
them, and reports the missing functions; it goes with that list.
"""
