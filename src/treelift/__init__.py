"""Spanning-tree lifts of graphs over {0,1}^S, their cut embeddings into l1,
exact distortion measurement, and structural verification sweeps."""
