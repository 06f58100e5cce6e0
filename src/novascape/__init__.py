"""novascape: innovation scoring, type landscapes, and regression analysis
for corpora of products described by binary feature vectors."""

__version__ = "0.1.0"
