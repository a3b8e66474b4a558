"""Well-covered spaces and dimensions of finite simple graphs, computed by
exact linear algebra over the maximal-independent-set constraint system."""

from .graph import (Graph, GraphError, VertexRangeError, SelfLoopError,
                    DisconnectedGraphError, EdgeListParseError,
                    SimplicialReport, build_graph, relabel,
                    simplicial_vertices, simplicial_report,
                    contains_simplicial_vertex, is_chordal, is_sccg,
                    parse_edge_list, format_edge_list, load_graph, save_graph)
from .linalg import (FieldSpec, Matrix, QQ, GF2, GF3, DEFAULT_FIELDS,
                     rref, nullspace_basis, span_basis, span_equal,
                     integerize)
from .mis import (MisList, MisCapExceededError, NotIndependentError,
                  NotSccgError, DEFAULT_MIS_CAP, is_independent, is_mis,
                  enumerate_mis, iter_mis, count_mis, greedy_extend,
                  random_greedy_mis,
                  independent_subsets_of_connection_set,
                  split_cliques_by_neighborhood, CliqueSplit,
                  SccgCountBreakdown, sccg_mis_count_formula,
                  scs_mis_count, SharedCliqueMisCount)
from .wcspace import (Weighting, WeightingCheck, WcSpace,
                      constraint_matrix, certified_space,
                      well_covered_space, well_covered_spaces, wcdim,
                      verify_weighting, is_well_covered, indicator_weighting,
                      wcspace_report)
from .families import (SierpinskiGraph, ScsSpec, ScsComposition, ScsSplit,
                       ScsValidationError, complete, path, cycle, star,
                       sierpinski, sierpinski_vertex_count, figure1,
                       figure2_family, figure6_g1, figure6_g2,
                       figure6_composite, figure6_spec, triangle_pendant_g1,
                       triangle_pendant_g2, triangle_pendant_spec,
                       vertex_bowtie, diamond, sccg_mod_base, scs_compose, scs_split,
                       find_scs_splits, named_corpus, corpus_names,
                       corpus_graph, corpus_comments, corpus_file_text)
from .harness import (Verdict, run_suite, suite_passed, summary_table,
                      random_connected_graphs, check_lower_bound,
                      check_sccg_dimension, check_mis_structure,
                      check_mis_count, check_weighting_lemmas,
                      check_neighbor_swap, check_scs_mis_structure,
                      check_scs_count, check_scs_dimension, check_sierpinski,
                      check_path_cycle_citations, REPORT_ONLY_CHECKS)

__version__ = "0.1.0"
