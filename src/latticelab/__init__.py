"""Desk-scale computational lab for discrete isometry groups.

Modules:
    hyperbolic   -- half-plane/half-space models, isometry trichotomy
    hyperboloid  -- H^n for general n, Lorentz matrices
    euclidean    -- Euclidean isometries, crystallographic structure
    smallness    -- commutator contraction, Jordan bound, short subgroups
    wordballs    -- finitely generated groups and their word balls
    lattice_lab  -- injectivity radius, thick-thin, Morse function, covolumes
    nerve        -- eps-nets, cover nerves, bounded presentations
    chabauty     -- closed subgroups of R^n and truncation convergence
    solvable     -- exact metabelian / unipotent lattice arithmetic
    presets      -- named example groups and region samplers
    cli          -- experiment runner
"""

__version__ = "0.1.0"
