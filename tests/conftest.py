import os

# One OpenBLAS thread unless the caller names another count: the golden
# hashes were made single-threaded, the ancilla POVM's last bits depend on
# the thread count, and threading only slows the small products tier-1 runs.
# OpenBLAS reads the variable when numpy loads it, which is after this line.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
