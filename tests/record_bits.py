"""Record the digest table ``test_bits.py`` checks, into ``tests/bits.json``.

Run from the repository root: ``PYTHONPATH=src python tests/record_bits.py``.
Re-record only when a change moves bits on purpose.
"""

import json

from test_bits import TABLE, compute_table

if __name__ == "__main__":
    TABLE.write_text(json.dumps(compute_table(), indent=2) + "\n")
    print(f"wrote {TABLE}")
