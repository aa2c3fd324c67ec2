"""Shared helpers: cached explorations and random-marking generators."""

from __future__ import annotations

import random
from functools import lru_cache

from hypothesis import settings

from rwspn import Bag, System, build_npl_sys, explore, production_rules

# property tests draw the same examples on every run and write no database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@lru_cache(maxsize=None)
def quotient_ts(n: int, k: int = 2, m: int = 2):
    return explore(build_npl_sys(n, k, m), production_rules(), mode="quotient")


@lru_cache(maxsize=None)
def ordinary_ts(n: int, k: int = 2, m: int = 2):
    return explore(build_npl_sys(n, k, m), production_rules(), mode="ordinary")


def random_marking(net, rng: random.Random, max_count: int = 3) -> Bag:
    places = net.places()
    chosen = rng.sample(places, rng.randint(0, len(places)))
    return Bag({pl: rng.randint(1, max_count) for pl in chosen})


def random_system(net, rng: random.Random) -> System:
    return System(net, random_marking(net, rng))
