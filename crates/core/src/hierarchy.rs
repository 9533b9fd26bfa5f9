//! The hierarchical classifier (paper §2): domain → hostname → script →
//! method.
//!
//! At each granularity every resource accumulates the tracking / functional
//! counts of the requests attributed to it and is classified with the
//! log-ratio threshold. Requests attributed to *tracking* or *functional*
//! resources are "separated" and set aside; requests attributed to *mixed*
//! resources flow down to the next finer granularity:
//!
//! * **Domain** — all script-initiated requests, keyed by the request URL's
//!   eTLD+1;
//! * **Hostname** — only requests served by mixed domains, keyed by the
//!   request hostname;
//! * **Script** — only requests served by mixed hostnames, keyed by the URL
//!   of the initiating script (innermost stack frame);
//! * **Method** — only requests initiated by mixed scripts, keyed by
//!   `(script URL, method name)`.
//!
//! The walk itself is the engine's
//! [`classify_rows`](trackersift_engine::classify_rows), the one level walk
//! over rows in the workspace: this classifier runs it over labeled
//! requests, and the engine's tests run it over their own rows to pin the
//! incremental [`Sifter`](trackersift_engine::Sifter) to it.
//!
//! The per-level separation factor and the cumulative separation reproduce
//! the paper's Table 1; the per-level unique-resource class counts reproduce
//! Table 2; the per-resource ratios feed the Figure 3 histograms.

use crate::label::LabeledRequest;
use trackersift_engine::{classify_rows, Granularity, HierarchyResult, HierarchyRow, Thresholds};

impl HierarchyRow for LabeledRequest {
    fn domain(&self) -> &str {
        &self.domain
    }

    fn hostname(&self) -> &str {
        &self.hostname
    }

    fn script(&self) -> &str {
        &self.initiator_script
    }

    fn method(&self) -> &str {
        &self.initiator_method
    }

    fn is_tracking(&self) -> bool {
        self.label.is_tracking()
    }
}

/// The hierarchical classifier.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierarchicalClassifier {
    /// Thresholds applied at every level.
    pub(crate) thresholds: Thresholds,
}

impl HierarchicalClassifier {
    /// A classifier with the paper's default threshold of 2.
    pub fn new(thresholds: Thresholds) -> Self {
        HierarchicalClassifier { thresholds }
    }

    /// Run the full four-level analysis over labeled requests.
    pub fn classify(&self, requests: &[LabeledRequest]) -> HierarchyResult {
        HierarchyResult {
            thresholds: self.thresholds,
            levels: classify_rows(self.thresholds, requests, &Granularity::ALL),
        }
    }
}
