"""ALU cycle constants of the table's own work, charged on both devices.

Loops and kernels charge the same constants, so they sit below both.
"""

HASH_CYCLES_PER_BYTE = 3.0
PROBE_CYCLES = 12.0
INSERT_CYCLES = 30.0
#: maintenance cost per entry visited while splicing retained chains
SPLICE_CYCLES = 20.0
#: flag-word write of an in-place delete (cheaper than an insert: no
#: payload is stored, only the klen word is rewritten)
TOMBSTONE_CYCLES = 10.0
#: in-place value rewrite of a basic-method update (value store + flag word)
UPDATE_CYCLES = 18.0
