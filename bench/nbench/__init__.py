"""Layered benchmark for nshard: workloads, tracer and the measuring loop."""

# Environment variables that size BLAS and OpenMP thread pools; the benchmark
# sets each to 1 before numpy is imported.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
