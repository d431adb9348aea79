"""Word algebra and mod-p numerics for finite multiple zeta value identities."""

from .indices import (
    Index,
    add_componentwise,
    binary_vectors,
    format_index,
    hoffman_dual,
    parse_index,
    weak_compositions,
)
from .words import (
    NCPolynomial,
    concat,
    harmonic,
    hoffman_dual_word,
    index_of_word,
    reverse_word,
    shuffle,
    word_of_index,
)
from .series import (
    USeries,
    const_series,
    geometric_yu,
    series_concat,
    series_harmonic,
    series_shuffle,
    substitution_series,
)
from .generators import bumped_insertion_words, insertion_words, ones_expansion_sides
from .modp import (
    bernoulli_mod_p,
    inv_mod,
    is_prime,
    primes_in,
    zeta_mod_p,
    zeta_mod_p_naive,
)
from .verify import CHECKS, CheckReport, PrimeCheck, check, lemma_index_layers, lemma_word_layers
from .suite import run_battery

__version__ = "0.1.0"

__all__ = [
    "CHECKS",
    "CheckReport",
    "Index",
    "NCPolynomial",
    "PrimeCheck",
    "USeries",
    "add_componentwise",
    "bernoulli_mod_p",
    "binary_vectors",
    "bumped_insertion_words",
    "check",
    "concat",
    "const_series",
    "format_index",
    "geometric_yu",
    "harmonic",
    "hoffman_dual",
    "hoffman_dual_word",
    "index_of_word",
    "insertion_words",
    "inv_mod",
    "is_prime",
    "lemma_index_layers",
    "lemma_word_layers",
    "ones_expansion_sides",
    "parse_index",
    "primes_in",
    "reverse_word",
    "run_battery",
    "series_concat",
    "series_harmonic",
    "series_shuffle",
    "shuffle",
    "substitution_series",
    "weak_compositions",
    "word_of_index",
    "zeta_mod_p",
    "zeta_mod_p_naive",
]
