"""Multi-task branch-LSTM pipeline for rumour veracity classification.

Conversation threads are decomposed into root-to-leaf branches, each tweet
is represented by an averaged word embedding, and a shared LSTM with
task-specific heads jointly learns veracity (main task), stance and rumour
detection (auxiliary tasks).
"""

__version__ = "0.1.0"
