//! Call-stack analysis for mixed methods (paper §5, Figure 5).
//!
//! Even at the finest granularity some methods remain mixed (the paper's
//! `m2()` example): the same method initiates both tracking and functional
//! requests. The proposed remedy is to look *above* the method: snapshot the
//! stack trace of every request the mixed method initiates, merge the traces
//! into a call graph whose nodes are `(script, method)` pairs and whose
//! edges are caller→callee relationships, mark each node with the request
//! classes it participates in, and find the **divergence points** — nodes
//! that only ever participate in tracking traces. Removing such a node
//! breaks the chain needed to invoke the tracking behaviour while leaving
//! the functional path intact.

use crate::label::LabeledRequest;
use std::collections::{HashMap, HashSet};
use trackersift_engine::{KeyInterner, ResourceKey};

/// A node of the merged call graph: one `(script, method)` pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallGraphNode {
    /// Script URL.
    pub(crate) script_url: String,
    /// Method name.
    pub(crate) method: String,
}

impl CallGraphNode {
    /// Render as `script @ method` (used in reports).
    pub fn label(&self) -> String {
        format!("{} @ {}", self.script_url, self.method)
    }
}

/// Participation of a node in tracking / functional request traces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeParticipation {
    /// Number of tracking-request traces the node appears in.
    pub tracking_traces: u64,
    /// Number of functional-request traces the node appears in.
    pub(crate) functional_traces: u64,
}

impl NodeParticipation {
    /// `true` when the node only ever appears in tracking traces.
    fn tracking_only(&self) -> bool {
        self.tracking_traces > 0 && self.functional_traces == 0
    }

    /// `true` when the node appears in both kinds of trace.
    pub(crate) fn both(&self) -> bool {
        self.tracking_traces > 0 && self.functional_traces > 0
    }
}

/// The merged call graph for one mixed method (the method it was built
/// for is the key it is stored under in [`CallStackAnalysis::graphs`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallGraph {
    /// Participation counts per node.
    pub(crate) nodes: HashMap<CallGraphNode, NodeParticipation>,
    /// Caller → callee edges (edges point from the outer frame to the inner
    /// frame, i.e. towards the request).
    pub(crate) edges: HashSet<(CallGraphNode, CallGraphNode)>,
}

impl CallGraph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The divergence points: nodes that participate only in tracking
    /// traces, sorted by how many tracking traces they appear in
    /// (descending) so the most load-bearing candidate comes first.
    pub fn divergence_points(&self) -> Vec<(&CallGraphNode, &NodeParticipation)> {
        let mut out: Vec<(&CallGraphNode, &NodeParticipation)> = self
            .nodes
            .iter()
            .filter(|(_, p)| p.tracking_only())
            .collect();
        out.sort_by(|a, b| {
            b.1.tracking_traces
                .cmp(&a.1.tracking_traces)
                .then_with(|| a.0.cmp(b.0))
        });
        out
    }

    /// Nodes that participate in both kinds of trace (rendered yellow in the
    /// paper's Figure 5).
    pub fn shared_nodes(&self) -> Vec<&CallGraphNode> {
        let mut out: Vec<&CallGraphNode> = self
            .nodes
            .iter()
            .filter(|(_, p)| p.both())
            .map(|(n, _)| n)
            .collect();
        out.sort();
        out
    }
}

/// Result of analysing every mixed method in a request set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallStackAnalysis {
    /// Per-mixed-method call graphs, keyed by `(script, method)`.
    pub graphs: Vec<(CallGraphNode, CallGraph)>,
}

impl CallStackAnalysis {
    /// Number of mixed methods analysed.
    pub fn mixed_methods(&self) -> usize {
        self.graphs.len()
    }

    /// Number of mixed methods for which at least one divergence point was
    /// found (i.e. the tracking behaviour is separable by stack analysis).
    pub fn separable_methods(&self) -> usize {
        self.graphs
            .iter()
            .filter(|(_, g)| !g.divergence_points().is_empty())
            .count()
    }

    /// Share of mixed methods that are separable, in percent.
    pub fn separable_share(&self) -> f64 {
        if self.graphs.is_empty() {
            return 0.0;
        }
        100.0 * self.separable_methods() as f64 / self.graphs.len() as f64
    }
}

/// Build the call graph for one mixed method from the requests it initiated.
///
/// Every request contributes its full stack as a path; the innermost frame
/// is the initiating method itself. The frames of the scripts that injected
/// the initiator follow its own — the paper prepends the preceding stack
/// precisely so this analysis sees the full ancestry.
pub(crate) fn build_call_graph<'a>(
    requests: impl Iterator<Item = &'a LabeledRequest>,
) -> CallGraph {
    let mut graph = CallGraph::default();
    for request in requests {
        let tracking = request.is_tracking();
        // Frames innermost-first; build nodes and caller→callee edges.
        let nodes: Vec<CallGraphNode> = request
            .stack
            .iter()
            .map(|f| CallGraphNode {
                script_url: f.script_url.to_string(),
                method: f.function_name.to_string(),
            })
            .collect();
        for node in &nodes {
            let entry = graph.nodes.entry(node.clone()).or_default();
            if tracking {
                entry.tracking_traces += 1;
            } else {
                entry.functional_traces += 1;
            }
        }
        for window in nodes.windows(2) {
            // window[0] is inner (callee), window[1] is its caller.
            graph.edges.insert((window[1].clone(), window[0].clone()));
        }
    }
    graph
}

/// Analyse every mixed method: group the given requests (those initiated by
/// mixed methods, i.e. the unattributed residue of the hierarchy) by their
/// interned `(script, method)` key and build one call graph per key.
///
/// Grouping goes through a [`KeyInterner`], so each request costs two hash
/// lookups on `Copy` symbols instead of cloning its `(String, String)` pair.
pub(crate) fn analyze_mixed_methods(residue: &[&LabeledRequest]) -> CallStackAnalysis {
    let mut interner = KeyInterner::new();
    let mut by_method: HashMap<ResourceKey, Vec<&LabeledRequest>> = HashMap::new();
    for request in residue {
        let key = interner.intern_method(&request.initiator_script, &request.initiator_method);
        by_method.entry(key).or_default().push(request);
    }
    let mut graphs: Vec<(CallGraphNode, CallGraph)> = by_method
        .into_values()
        .map(|requests| {
            let first = requests[0];
            let node = CallGraphNode {
                script_url: first.initiator_script.to_string(),
                method: first.initiator_method.to_string(),
            };
            (node, build_call_graph(requests.into_iter()))
        })
        .collect();
    graphs.sort_by(|a, b| a.0.cmp(&b.0));
    CallStackAnalysis { graphs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::StackFrame;
    use filterlist::{RequestLabel, ResourceType};

    /// Reproduce the paper's Figure 5 example: requests `ads-2` (tracking)
    /// and `nonads-2` (functional) are both initiated by `clone.js m2`, but
    /// the tracking trace goes through `track.js t` while the functional
    /// trace goes through `get.js a` and `user.js k`.
    fn figure5_requests() -> Vec<LabeledRequest> {
        let mk = |url: &str, tracking: bool, stack: Vec<(&str, &str)>| LabeledRequest {
            request_id: 0,
            top_level_url: "https://test.com/".into(),
            url: url.into(),
            domain: "google.com".into(),
            hostname: "cdn.google.com".into(),
            resource_type: ResourceType::Xhr,
            initiator_script: stack[0].0.into(),
            initiator_method: stack[0].1.into(),
            stack: stack.iter().map(|(s, m)| StackFrame::new(*s, *m)).collect(),
            label: if tracking {
                RequestLabel::Tracking
            } else {
                RequestLabel::Functional
            },
        };
        vec![
            mk(
                "https://cdn.google.com/ads-2",
                true,
                vec![
                    ("https://test.com/clone.js", "m2"),
                    ("https://ads.com/track.js", "t"),
                ],
            ),
            mk(
                "https://cdn.google.com/nonads-2",
                false,
                vec![
                    ("https://test.com/clone.js", "m2"),
                    ("https://test.com/user.js", "k"),
                    ("https://test.com/get.js", "a"),
                ],
            ),
        ]
    }

    #[test]
    fn figure5_divergence_point_is_track_js_t() {
        let requests = figure5_requests();
        let refs: Vec<&LabeledRequest> = requests.iter().collect();
        let analysis = analyze_mixed_methods(&refs);
        assert_eq!(analysis.mixed_methods(), 1);
        let (_, graph) = &analysis.graphs[0];
        // m2 participates in both traces.
        let shared = graph.shared_nodes();
        assert_eq!(shared.len(), 1);
        assert_eq!(shared[0].method, "m2");
        // The divergence points include track.js t (tracking-only) and not
        // user.js / get.js (functional-only).
        let divergence = graph.divergence_points();
        assert_eq!(divergence.len(), 1);
        assert_eq!(divergence[0].0.script_url, "https://ads.com/track.js");
        assert_eq!(divergence[0].0.method, "t");
        assert_eq!(analysis.separable_methods(), 1);
        assert!((analysis.separable_share() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn call_graph_edges_follow_caller_to_callee() {
        let requests = figure5_requests();
        let graph = build_call_graph(requests.iter());
        // track.js t  ->  clone.js m2 (t calls... actually m2 calls are
        // inner; the edge points from the outer frame to the inner frame).
        let t = CallGraphNode {
            script_url: "https://ads.com/track.js".into(),
            method: "t".into(),
        };
        let m2 = CallGraphNode {
            script_url: "https://test.com/clone.js".into(),
            method: "m2".into(),
        };
        assert!(graph.edges.contains(&(t, m2)));
        assert_eq!(graph.node_count(), 4);
        assert_eq!(graph.edge_count(), 3);
    }

    #[test]
    fn no_divergence_when_both_traces_are_identical() {
        // If tracking and functional requests share the exact same stack,
        // no node is tracking-only and stack analysis cannot separate them.
        let mut requests = figure5_requests();
        requests[0].stack = requests[1].stack.clone();
        let refs: Vec<&LabeledRequest> = requests.iter().collect();
        let analysis = analyze_mixed_methods(&refs);
        let (_, graph) = &analysis.graphs[0];
        assert!(graph.divergence_points().is_empty());
        assert_eq!(analysis.separable_methods(), 0);
    }

    #[test]
    fn empty_residue_is_handled() {
        let analysis = analyze_mixed_methods(&[]);
        assert_eq!(analysis.mixed_methods(), 0);
        assert_eq!(analysis.separable_share(), 0.0);
    }
}
