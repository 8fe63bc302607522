"""When a kernel writes into an array it owns instead of allocating.

On a network layer a new array of 10^5 floats costs more than the
arithmetic that fills it, so the curvature metric and the sign of a
quantized code are computed in place there.  On the 1- to 4-entry
vectors of the toys and the theorem suite a new array is cheap and
numpy's in-place ufuncs cost more than the allocation they save, so
those kernels evaluate the plain expression below this size.  Both forms
give the same bits.
"""

# Entries from which writing in place is faster than allocating.
IN_PLACE_MIN_SIZE = 1024
