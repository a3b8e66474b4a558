"""Well-covered spaces and dimensions of finite simple graphs, computed by
exact linear algebra over the maximal-independent-set constraint system."""

from .graph import (Graph, GraphError, VertexRangeError, SelfLoopError,
                    DisconnectedGraphError, EdgeListParseError,
                    SimplicialReport, relabel, simplicial_vertices,
                    simplicial_report, contains_simplicial_vertex, is_chordal,
                    is_sccg, parse_edge_list, format_edge_list, load_graph,
                    save_graph)
from .linalg import (FieldSpec, QQ, GF2, GF3, DEFAULT_FIELDS,
                     nullspace_basis, span_basis, span_equal)
from .mis import (MisList, MisCapExceededError, NotSccgError,
                  DEFAULT_MIS_CAP, is_mis, enumerate_mis, iter_mis, count_mis,
                  random_greedy_mis, SccgCountBreakdown,
                  sccg_mis_count_formula, scs_mis_count,
                  SharedCliqueMisCount)
from .wcspace import (WcSpace, certified_space,
                      well_covered_space, well_covered_spaces, wcdim,
                      is_well_covered, indicator_weighting, wcspace_report)
from .families import (SierpinskiGraph, ScsSpec, ScsComposition,
                       ScsValidationError, complete, path, cycle, star,
                       sierpinski, figure1, figure2_family, figure6_g1,
                       figure6_g2, figure6_composite, figure6_spec,
                       triangle_pendant_g1, triangle_pendant_g2,
                       triangle_pendant_spec, vertex_bowtie, diamond,
                       sccg_mod_base, scs_compose, scs_split, named_corpus,
                       corpus_names, corpus_graph, corpus_comments)
from .harness import (Verdict, run_suite, suite_passed, summary_table,
                      random_connected_graphs, check_lower_bound,
                      check_sccg_dimension, check_mis_structure,
                      check_mis_count, check_weighting_lemmas,
                      check_neighbor_swap, check_scs_mis_structure,
                      check_scs_count, check_scs_dimension, check_sierpinski,
                      check_path_cycle_citations, REPORT_ONLY_CHECKS)

__version__ = "0.1.0"
