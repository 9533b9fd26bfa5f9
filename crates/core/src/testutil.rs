//! Shared unit-test fixtures: hand-built labeled requests. The paper's
//! Figure 1 worked example lives with the walk's tests in the engine, as
//! rows.

use crate::label::LabeledRequest;
use crawler::StackFrame;
use filterlist::{RequestLabel, ResourceType};

/// A hand-built labeled request with explicit attribution keys.
pub(crate) fn labeled_request(
    domain: &str,
    hostname: &str,
    script: &str,
    method: &str,
    tracking: bool,
) -> LabeledRequest {
    LabeledRequest {
        request_id: 0,
        top_level_url: "https://www.pub.com/".into(),
        url: format!("https://{hostname}/x").into(),
        domain: domain.into(),
        hostname: hostname.into(),
        resource_type: ResourceType::Xhr,
        initiator_script: script.into(),
        initiator_method: method.into(),
        stack: vec![StackFrame::new(script, method)].into(),
        label: if tracking {
            RequestLabel::Tracking
        } else {
            RequestLabel::Functional
        },
    }
}
