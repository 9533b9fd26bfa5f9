//! Shared unit-test fixtures: hand-built labeled requests and the paper's
//! Figure 1 worked example. The engine's serving-API tests build the same
//! example as rows, so the classifier's and the sifter's suites exercise
//! one scenario.

use crate::label::LabeledRequest;
use crawler::StackFrame;
use filterlist::{RequestLabel, ResourceType};
use std::sync::Arc;

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
        site_domain: "pub.com".into(),
        url: format!("https://{hostname}/x").into(),
        domain: domain.into(),
        hostname: hostname.into(),
        resource_type: ResourceType::Xhr,
        initiator_script: script.into(),
        initiator_method: method.into(),
        stack: Arc::from([StackFrame::new(script, method)]),
        async_boundary: None,
        label: if tracking {
            RequestLabel::Tracking
        } else {
            RequestLabel::Functional
        },
    }
}

/// The paper's Figure 1 worked example: ads.com is pure tracking, news.com
/// pure functional, google.com mixed; within google.com the hostnames
/// split; within cdn.google.com the scripts split; within clone.js the
/// methods split (m1 tracking, m3 functional, m2 both — the residue).
pub(crate) fn figure1_requests() -> Vec<LabeledRequest> {
    let req = labeled_request;
    let mut v = Vec::new();
    // Pure tracking / functional domains.
    for _ in 0..5 {
        v.push(req(
            "ads.com",
            "px.ads.com",
            "https://pub.com/a.js",
            "t",
            true,
        ));
        v.push(req(
            "news.com",
            "cdn.news.com",
            "https://pub.com/n.js",
            "f",
            false,
        ));
    }
    // google.com: ad.google.com pure tracking, maps.google.com pure
    // functional, cdn.google.com mixed.
    for _ in 0..4 {
        v.push(req(
            "google.com",
            "ad.google.com",
            "https://pub.com/sdk.js",
            "send",
            true,
        ));
        v.push(req(
            "google.com",
            "maps.google.com",
            "https://pub.com/maps.js",
            "draw",
            false,
        ));
    }
    // cdn.google.com requests from three scripts: sdk.js (tracking),
    // stack.js (functional), clone.js (mixed: m1 tracking, m3 functional,
    // m2 both).
    for _ in 0..3 {
        v.push(req(
            "google.com",
            "cdn.google.com",
            "https://pub.com/sdk.js",
            "send",
            true,
        ));
        v.push(req(
            "google.com",
            "cdn.google.com",
            "https://pub.com/stack.js",
            "load",
            false,
        ));
        v.push(req(
            "google.com",
            "cdn.google.com",
            "https://pub.com/clone.js",
            "m1",
            true,
        ));
        v.push(req(
            "google.com",
            "cdn.google.com",
            "https://pub.com/clone.js",
            "m3",
            false,
        ));
    }
    v.push(req(
        "google.com",
        "cdn.google.com",
        "https://pub.com/clone.js",
        "m2",
        true,
    ));
    v.push(req(
        "google.com",
        "cdn.google.com",
        "https://pub.com/clone.js",
        "m2",
        false,
    ));
    v
}
