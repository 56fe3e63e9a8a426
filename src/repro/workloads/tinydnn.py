"""Tiny-DNN fully-connected forward propagation (paper §6.4, Listing 3).

    for (cnn_size_t i = 0; i < out_size_; i++)
      for (cnn_size_t c = 0; c < in_size_; c++)
        a[i] += W[c * out_size_ + i] * in[c];

The weight matrix is ``in_size x out_size`` row-major, but the inner loop
walks a *column* of it: stride ``out_size * sizeof(float)`` bytes.  For
power-of-two layer widths the stride divides the L1 mapping period and the
whole column folds onto a handful of sets.  The paper's fix pads the weight
array's rows.
"""

from __future__ import annotations

from repro.workloads.base import Array1D, Array2D, NestWorkload
from repro.workloads.nest import Loop, LoopNest, Stmt, load, store

#: tiny-dnn stores weights as float.
FLOAT_SIZE = 4

#: Layer shape: a CIFAR-style fully-connected layer with power-of-two
#: widths (the conflict-triggering configuration).  The column stride is
#: ``out_size * 4 = 1024`` bytes, so the weight walk recycles 4 of 64 sets.
DEFAULT_IN_SIZE = 512
DEFAULT_OUT_SIZE = 256

#: Pad: one cache line of extra floats per weight row.
DEFAULT_PAD_ELEMENTS = 16


class TinyDnnFcWorkload(NestWorkload):
    """Fully-connected forward pass, original or padded.

    Args:
        in_size: Input neurons.
        out_size: Output neurons.
        pad_elements: Extra floats per weight row (0 = original).
        batches: Number of forward passes (training iterates many).
    """

    def __init__(
        self,
        in_size: int = DEFAULT_IN_SIZE,
        out_size: int = DEFAULT_OUT_SIZE,
        pad_elements: int = 0,
        batches: int = 2,
    ) -> None:
        super().__init__()
        if in_size <= 0 or out_size <= 0 or batches <= 0:
            raise ValueError("layer sizes and batches must be positive")
        self.in_size = in_size
        self.out_size = out_size
        self.pad_elements = pad_elements
        self.batches = batches
        self.name = f"tiny-dnn-fc{'-padded' if pad_elements else ''}"
        self.weights = w = Array2D.allocate(
            self.allocator, "W", rows=in_size, cols=out_size, elem_size=FLOAT_SIZE,
            pad_bytes=pad_elements * FLOAT_SIZE,
        )
        self.input = Array1D.allocate(self.allocator, "in", in_size, FLOAT_SIZE)
        self.activation = Array1D.allocate(self.allocator, "a", out_size, FLOAT_SIZE)
        i, c = Loop(98, 0, out_size, label="out_neurons"), Loop(99, 0, in_size)
        # W[c * out_size + i]: column walk of the weight matrix.
        self.nest = LoopNest(
            self.builder.function("fc_forward", file="fully_connected_layer.h"),
            i(c(Stmt(100, load(w, c, i), load(self.input, c), store(self.activation, i)))),
            repeat=batches,
        )
        (self.ip_mac,) = self.nest.ips

    @classmethod
    def original(
        cls, in_size: int = DEFAULT_IN_SIZE, out_size: int = DEFAULT_OUT_SIZE
    ) -> "TinyDnnFcWorkload":
        """Unpadded weight layout."""
        return cls(in_size=in_size, out_size=out_size)

    @classmethod
    def padded(
        cls, in_size: int = DEFAULT_IN_SIZE, out_size: int = DEFAULT_OUT_SIZE
    ) -> "TinyDnnFcWorkload":
        """Weight rows padded by one cache line."""
        return cls(
            in_size=in_size, out_size=out_size, pad_elements=DEFAULT_PAD_ELEMENTS
        )
