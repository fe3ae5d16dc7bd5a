"""Proper colourings of Grassmann graph powers from rank-metric codes.

The graph J_q(n, m, t) has the m-dimensional subspaces of F_q^n as
vertices, two being adjacent when they intersect in dimension at least t.
This package builds an explicit proper colouring of every such graph from
cosets of a maximum-rank-distance code threaded through identifying
vectors, computes exact integer lower and upper bounds on the chromatic
number, and cross-checks everything against brute-force ground truth at
desk scale.
"""

from .ff import (FieldSpec, discrete_log, field_for_order, field_make,
                 primitive_element, relative_extension)
from .matq import (MatrixFq, gaussian_binomial, intersection_dim, is_rref,
                   orthogonal_complement, rank, rref)
from .grassmann import (GrassmannParams, Subspace, adjacent, decode_subspace,
                        degree_formula, dualize, encode_subspace,
                        enumerate_subspaces, identifying_vector)
from .rankmetric import (GabidulinCode, coset_index, coset_representative,
                         gabidulin_build, lift, min_rank_distance, unlift)
from .johnson import (BoseChowlaSet, JohnsonColouring, bose_chowla,
                      greedy_colouring, gs_colouring, johnson_bounds,
                      johnson_colouring, smallest_prime_geq)
from .colouring import (ColourCertificate, ColourContext, bounds_report,
                        certificate_from_json, certificate_to_json,
                        colour_subspace, full_colouring, load_certificate,
                        make_context, save_certificate, verify_properness)
from .oracle import (DenseGraph, build_graph, exact_chromatic, johnson_graph,
                     max_clique, write_dimacs)

__version__ = "0.1.0"
