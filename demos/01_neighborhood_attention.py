"""
Local attention over pixel neighborhoods
========================================

A pixel attends over its k x k neighborhood: the query comes from the pixel,
keys and values come from the window, and a softmax turns similarities into
mixing weights. Off-image window slots get a logit of -inf, so their weight is
exactly zero and border pixels mix only what actually exists.
"""

import numpy as np

from localattn import LocalAttention, softmax_axis, window_validity

rng = np.random.default_rng(0)

# A tiny 6x6 feature map with 4 channels.
x = rng.standard_normal((1, 4, 6, 6))

# The 3x3 window around the top-left corner pixel: five of the nine slots
# hang off the image, and the validity mask the layer uses marks them.
valid = window_validity(6, 6, 3)[0, 0]
print("valid slots :", valid.astype(int).reshape(3, 3))

# Masking by -inf: the invalid slots' logits become -inf, so the softmax
# gives them weight zero and the rest sum to one.
logits = rng.standard_normal(9)
logits[~valid] = -np.inf
weights = softmax_axis(logits, -1)
print("weights     :", np.round(weights.reshape(3, 3), 3))
print("weight sum  :", weights.sum())

# The layer does this at every pixel, per head, in one pass.
layer = LocalAttention(4, 4, k=3, heads=2, encoding_mode="none",
                       rng=rng, dtype=np.float64)
y, ctx = layer.forward(x)
print("\noutput shape:", y.shape)

# window_weights rebuilds the attention weights from the forward's context as
# (batch, heads, H, W, k*k).
attn = layer.window_weights(ctx)
print("every pixel's weights sum to one:",
      bool(np.allclose(attn.sum(-1), 1.0)))
corner = attn[0, 0, 0, 0].reshape(3, 3)
print("corner pixel weights (off-image slots are zero):")
print(np.round(corner, 3))
