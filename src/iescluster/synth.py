"""Seeded synthetic data: Gaussian groups at chosen centers, nested
multi-scale layouts, and white-noise augmentation of labeled data."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import InvalidParameterError


@dataclass(frozen=True)
class GroupSpec:
    """One Gaussian group: center vector, per-dimension spread, row count."""

    center: tuple
    spread: tuple
    count: int


@dataclass(frozen=True)
class SyntheticSpec:
    """Layout of a synthetic dataset; labels are group indices."""

    groups: tuple
    dims: int
    seed: int = 0
    noise_sd: float = 0.0


def _integer(value, name: str, low: int) -> int:
    """``value`` as an int, where an integral float counts; anything else,
    or a value below ``low``, raises InvalidParameterError naming ``name``."""
    number = float(value)
    if not (number.is_integer() and number >= low):
        kind = "a nonnegative integer" if low == 0 else f"an integer of at least {low}"
        raise InvalidParameterError(f"{name} must be {kind}, got {value}")
    return int(value)


def make_spec(groups, dims: int, seed: int = 0, noise_sd: float = 0.0) -> SyntheticSpec:
    """Validate and normalize a group layout (scalar spreads broadcast).

    ``dims``, ``seed`` and each group's ``count`` must be integers (an
    integral float counts); the centers, spreads and ``noise_sd`` must be
    finite.
    """
    dims = _integer(dims, "dims", 1)
    if not (np.isfinite(noise_sd) and noise_sd >= 0):
        raise InvalidParameterError(
            f"noise_sd must be finite and nonnegative, got {noise_sd}"
        )
    seed = _integer(seed, "seed", 0)
    if not groups:
        raise InvalidParameterError("at least one group is required")
    normalized = []
    for g in groups:
        center = tuple(float(c) for c in g["center"])
        if not np.all(np.isfinite(center)):
            raise InvalidParameterError("group centers must be finite")
        if len(center) != dims:
            raise InvalidParameterError(
                f"group center length {len(center)} != dims {dims}"
            )
        spread = g["spread"]
        if np.isscalar(spread):
            spread = (float(spread),) * dims
        else:
            spread = tuple(float(s) for s in spread)
            if len(spread) != dims:
                raise InvalidParameterError(
                    f"group spread length {len(spread)} != dims {dims}"
                )
        if not all(np.isfinite(s) and s >= 0 for s in spread):
            raise InvalidParameterError("spreads must be finite and nonnegative")
        count = _integer(g["count"], "group count", 1)
        normalized.append(GroupSpec(center=center, spread=spread, count=count))
    return SyntheticSpec(groups=tuple(normalized), dims=dims, seed=seed, noise_sd=float(noise_sd))


def spec_from_json(path) -> SyntheticSpec:
    """Read a layout file; malformed content raises InvalidParameterError
    naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        return make_spec(
            raw["groups"],
            dims=raw["dims"],
            seed=raw.get("seed", 0),
            noise_sd=raw.get("noise_sd", 0.0),
        )
    except KeyError as err:
        raise InvalidParameterError(f"{path}: synthetic spec missing key {err}") from err
    except (TypeError, ValueError, OverflowError) as err:
        raise InvalidParameterError(f"{path}: malformed synthetic spec: {err}") from err


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw each group around its center; labels are group indices."""
    rng = np.random.default_rng(spec.seed)
    blocks = []
    labels = []
    for gi, g in enumerate(spec.groups):
        block = np.asarray(g.center) + rng.normal(0.0, 1.0, size=(g.count, spec.dims)) * np.asarray(g.spread)
        blocks.append(block)
        labels.extend([gi] * g.count)
    features = np.vstack(blocks)
    if spec.noise_sd > 0:
        features = features + rng.normal(0.0, spec.noise_sd, size=features.shape)
    return Dataset(features=features, labels=np.array(labels))


def nested_scale_dataset(
    n_per_group: int = 100,
    dims: int = 20,
    coarse_separation: float = 100.0,
    fine_separation: float = 1.0,
    spread: float = 0.1,
    seed: int = 0,
) -> Dataset:
    """Three labeled groups at two scales: one group far from a pair of
    subgroups whose own separation is orders of magnitude smaller. The
    coarse distance dominates the total variance, so a single global scale
    masks the fine pair."""
    base = [0.0] * dims
    far = list(base)
    far[0] = coarse_separation
    far_twin = list(far)
    far_twin[1] = fine_separation
    spec = make_spec(
        [
            {"center": base, "spread": spread, "count": n_per_group},
            {"center": far, "spread": spread, "count": n_per_group},
            {"center": far_twin, "spread": spread, "count": n_per_group},
        ],
        dims=dims,
        seed=seed,
    )
    return generate_synthetic(spec)


def augment_with_noise(dataset: Dataset, target_size: int, noise_sd: float, seed: int = 0) -> Dataset:
    """Grow a labeled dataset to ``target_size`` rows by resampling points of
    each class proportionally to the class size and adding white noise."""
    if dataset.labels is None:
        raise InvalidParameterError("noise augmentation needs a labeled dataset")
    if target_size < dataset.n:
        raise InvalidParameterError(
            f"target_size {target_size} smaller than dataset size {dataset.n}"
        )
    if noise_sd < 0:
        raise InvalidParameterError(f"noise_sd must be nonnegative, got {noise_sd}")
    rng = np.random.default_rng(seed)
    extra = target_size - dataset.n
    label_ids, counts = np.unique(dataset.labels, return_counts=True)
    shares = counts / dataset.n
    per_class = np.floor(shares * extra).astype(int)
    # Distribute the rounding remainder to the largest classes first.
    remainder = extra - per_class.sum()
    for i in np.argsort(-counts)[:remainder]:
        per_class[i] += 1
    blocks = [dataset.features]
    labels = [np.asarray(dataset.labels)]
    for label, add in zip(label_ids, per_class):
        if add == 0:
            continue
        pool = np.nonzero(np.asarray(dataset.labels) == label)[0]
        picks = rng.choice(pool, size=add, replace=True)
        noisy = dataset.features[picks] + rng.normal(0.0, noise_sd, size=(add, dataset.m))
        blocks.append(noisy)
        labels.append(np.repeat(label, add))
    return Dataset(features=np.vstack(blocks), labels=np.concatenate(labels))
