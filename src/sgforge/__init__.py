"""sgforge: scene-graph parsing from region descriptions.

Pipeline: align ground-truth graphs to text (the oracle), train a transformer
tagger whose head predicts a node type and a parent arc per token, decode tag
sequences into graphs, and score parsed graphs with a tuple-matching F-score.
"""

__version__ = "0.1.0"
