"""When a kernel takes its long-vector form.

On a network layer a new array of 10^5 floats costs more than the
arithmetic that fills it, so the curvature metric and the sign of a
quantized code are computed in place there.  On the 1- to 4-entry
vectors of the toys and the theorem suite a new array is cheap and
numpy's in-place ufuncs cost more than the allocation they save, so
those kernels evaluate the plain expression below this size.  Both forms
give the same bits.  The projection's all-zero test splits here too:
`np.count_nonzero` takes a third of the time of `any()` on 4 entries and
three times as long on 200,704.
"""

# Entries from which the long-vector forms (in place, any()) are faster.
IN_PLACE_MIN_SIZE = 1024
