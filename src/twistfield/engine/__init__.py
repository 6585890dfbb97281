"""The action of A on A^2: Av subspaces, intersections, normal forms, censuses."""
