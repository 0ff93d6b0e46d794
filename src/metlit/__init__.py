"""Word embedding training and literal-vs-metaphor phrase classification.

Pipeline: tokenize a raw corpus, build a vocabulary, count co-occurrences,
train word vectors (CBOW or GloVe), aggregate labeled phrases into sentence
vectors, contrast the literal and metaphor groups with Welch t-tests, and
evaluate a linear SVM under stratified k-fold cross-validation.
"""

__version__ = "0.1.0"

LITERAL = "literal"
METAPHOR = "metaphor"
LABELS = (LITERAL, METAPHOR)


class MetlitError(ValueError):
    """Malformed input, an invalid setting or a numerical failure: one CLI `error:` line."""
