"""Client data partitioning (IID vs Dirichlet) and the augmentation pair.

Prints per-client class histograms for both partition modes, then shows a
weakly and a strongly augmented version of a toy image.
"""

import numpy as np

from fedseal import augment_strong, augment_weak, partition, stream, synthetic_blobs

_, labels = synthetic_blobs(2000, 5, 16, stream(3, "demo-pool"))

print("IID partition: 4 clients x 250 instances, 5 classes")
for k, shard in enumerate(partition(labels, 4, "iid", 250, rng_seed=1)):
    counts = np.bincount(labels[shard], minlength=5)
    print(f"  client {k}: {counts}")

print("\nDirichlet(0.3) partition: same request, skewed classes")
for k, shard in enumerate(partition(labels, 4, "dirichlet", 250, rng_seed=1, alpha=0.3)):
    counts = np.bincount(labels[shard], minlength=5)
    print(f"  client {k}: {counts}")


def render(img: np.ndarray) -> str:
    chars = " .:-=+*#%@"
    return "\n".join(
        "".join(chars[min(int(v * len(chars)), len(chars) - 1)] for v in row)
        for row in img
    )


# A bright diagonal bar on an 8x8 canvas.
image = np.zeros((8, 8))
for i in range(8):
    image[i, max(0, i - 1) : min(8, i + 2)] = 0.9

# Both augmenters take an (n, width) batch; each row gets its own parameters,
# drawn once for the whole batch.
rng = stream(3, "demo-aug")
weak = augment_weak(image.reshape(1, 64), rng, image_shape=(8, 8)).reshape(8, 8)
strong = augment_strong(np.tile(image.reshape(1, 64), (3, 1)), rng, image_shape=(8, 8))

print("\noriginal:", render(image), sep="\n")
print("\nweak augmentation (flip + crop):", render(weak), sep="\n")
print("\nstrong augmentation (two ops per row from the pool), a batch of three copies:")
panels = [render(img).split("\n") for img in strong.reshape(3, 8, 8)]
print("\n".join("   ".join(lines) for lines in zip(*panels)))
