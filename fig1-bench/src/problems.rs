//! The six Figure-1 problems: instance generation, one solve through the
//! public `*_with(&graph, &AmpcConfig)` entry point, and verification
//! against the sequential reference of `ampc_graph::sequential`.
//!
//! Instances and checks follow `crates/bench/src/figure1.rs`; the generator
//! seeds come from the benchmark's `--seed`, so the program under test only
//! ever receives generated graphs.

use crate::workload::Backend;
use ampc_algorithms as algo;
use ampc_graph::{generators, sequential, Edge, Graph};
use ampc_runtime::{AmpcConfig, RunStats};

/// Space exponent of every solve (the headline ε of Figure 1).
pub const EPSILON: f64 = 0.5;

/// The problems, in the order every pass runs them; `p as usize` is a
/// problem's index within an instance set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Problem {
    TwoCycle,
    Mis,
    Connectivity,
    Msf,
    TwoEdge,
    Forest,
}

impl Problem {
    pub const ALL: [Problem; 6] = [
        Problem::TwoCycle,
        Problem::Mis,
        Problem::Connectivity,
        Problem::Msf,
        Problem::TwoEdge,
        Problem::Forest,
    ];

    /// Name used in the `core.<p>.*` metrics.
    pub fn name(self) -> &'static str {
        match self {
            Problem::TwoCycle => "two_cycle",
            Problem::Mis => "mis",
            Problem::Connectivity => "connectivity",
            Problem::Msf => "msf",
            Problem::TwoEdge => "two_edge",
            Problem::Forest => "forest",
        }
    }

    /// The Figure-1 instance of this problem at size `n`.
    pub fn generate(self, n: usize, seed: u64) -> Graph {
        match self {
            Problem::TwoCycle => generators::two_cycle_instance(n, seed.is_multiple_of(2), seed),
            Problem::Mis => generators::erdos_renyi_gnm(n, 4 * n, seed),
            Problem::Connectivity => generators::planted_components(n, 8, (3 * n / 8).max(1), seed),
            Problem::Msf => generators::with_random_weights(
                &generators::connected_gnm(n, 3 * n, seed),
                seed + 1,
            ),
            Problem::TwoEdge => generators::bridged_blocks((n / 64).max(4), 32, 8, seed),
            Problem::Forest => generators::random_forest(n, 16, seed),
        }
    }
}

/// One generated instance with its sequential reference answer.
pub struct Instance {
    pub problem: Problem,
    pub graph: Graph,
    reference: Option<Reference>,
    seed: u64,
}

/// What a correct output must equal.
enum Reference {
    TwoCycles(bool),
    /// MIS has many correct answers; maximality is checked directly.
    MaximalIndependentSet,
    Labels(Vec<u32>),
    Msf {
        weight: u64,
        labels: Vec<u32>,
    },
    TwoEdge {
        bridges: Vec<Edge>,
        components: Vec<u32>,
    },
}

/// A solve's output, reduced to what verification compares.
pub enum Output {
    TwoCycles(bool),
    IndependentSet(Vec<bool>),
    Labels(Vec<u32>),
    Msf {
        weight: u64,
        labels: Vec<u32>,
    },
    TwoEdge {
        bridges: Vec<Edge>,
        components: Vec<u32>,
    },
}

impl Instance {
    pub fn generate(problem: Problem, n: usize, seed: u64) -> Self {
        Instance {
            problem,
            graph: problem.generate(n, seed),
            reference: None,
            seed,
        }
    }

    /// The solve configuration: ε = 0.5, `threads = 0` (= every CPU), the
    /// instance's seed, and `backend`.
    pub fn config(&self, backend: Backend) -> AmpcConfig {
        let config = AmpcConfig::for_graph(
            self.graph.num_vertices().max(1),
            self.graph.num_edges(),
            EPSILON,
        )
        .with_seed(self.seed)
        .with_threads(0);
        backend.apply(config)
    }

    /// Compute the sequential reference answer (the verification cost).
    pub fn compute_reference(&mut self) {
        let g = &self.graph;
        self.reference = Some(match self.problem {
            Problem::TwoCycle => Reference::TwoCycles(self.seed.is_multiple_of(2)),
            Problem::Mis => Reference::MaximalIndependentSet,
            Problem::Connectivity | Problem::Forest => {
                Reference::Labels(sequential::connected_components(g))
            }
            Problem::Msf => Reference::Msf {
                weight: sequential::kruskal_msf(g).1,
                labels: sequential::connected_components(g),
            },
            Problem::TwoEdge => Reference::TwoEdge {
                bridges: sequential::bridges(g),
                components: sequential::two_edge_connected_components(g),
            },
        });
    }

    /// Run the problem's AMPC algorithm once under `config`.
    pub fn solve(&self, config: &AmpcConfig) -> (Output, RunStats) {
        let g = &self.graph;
        match self.problem {
            Problem::TwoCycle => {
                let r = algo::two_cycle_with(g, config);
                let two = matches!(r.output, algo::TwoCycleAnswer::TwoCycles);
                (Output::TwoCycles(two), r.stats)
            }
            Problem::Mis => {
                let r = algo::maximal_independent_set_with(g, config);
                (Output::IndependentSet(r.output), r.stats)
            }
            Problem::Connectivity => {
                let r = algo::connectivity_with(g, config);
                (Output::Labels(r.output), r.stats)
            }
            Problem::Msf => {
                let r = algo::minimum_spanning_forest_with(g, config);
                let out = Output::Msf {
                    weight: r.output.total_weight,
                    labels: r.output.labels,
                };
                (out, r.stats)
            }
            Problem::TwoEdge => {
                let r = algo::two_edge_connectivity_with(g, config);
                let out = Output::TwoEdge {
                    bridges: r.output.bridges,
                    components: r.output.two_edge_components,
                };
                (out, r.stats)
            }
            Problem::Forest => {
                let r = algo::forest_connectivity_with(g, config);
                (Output::Labels(r.output), r.stats)
            }
        }
    }

    /// Whether `output` is a correct answer for this instance.
    ///
    /// # Panics
    /// If [`Instance::compute_reference`] has not run.
    pub fn verify(&self, output: &Output) -> bool {
        let reference = self
            .reference
            .as_ref()
            .expect("reference computed before verification");
        match (reference, output) {
            (Reference::TwoCycles(want), Output::TwoCycles(got)) => want == got,
            (Reference::MaximalIndependentSet, Output::IndependentSet(set)) => {
                sequential::is_maximal_independent_set(&self.graph, set)
            }
            (Reference::Labels(want), Output::Labels(got)) => want == got,
            (
                Reference::Msf { weight, labels },
                Output::Msf {
                    weight: got_weight,
                    labels: got_labels,
                },
            ) => weight == got_weight && labels == got_labels,
            (
                Reference::TwoEdge {
                    bridges,
                    components,
                },
                Output::TwoEdge {
                    bridges: got_bridges,
                    components: got_components,
                },
            ) => bridges == got_bridges && components == got_components,
            _ => false,
        }
    }
}
