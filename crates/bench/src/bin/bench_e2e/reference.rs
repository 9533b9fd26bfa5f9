//! Reference response encodings: what a decision made in-process must
//! look like on the wire. Built from the canonical per-decision encoders
//! in `trackersift::frames` — deliberately *not* from the commit-time
//! prebuilt bodies the server copies — so the verification pass compares
//! the serving path against an independent rendering.

use crawler::json::{object, Value};
use trackersift::frames::{self, PROTO_VERSION};
use trackersift::Decision;

pub fn json_single(version: u64, decision: &Decision) -> Vec<u8> {
    object(vec![
        ("version", Value::number_u64(version)),
        ("decision", frames::decision_value(decision)),
    ])
    .render()
    .into_bytes()
}

pub fn json_batch(version: u64, decisions: &[Decision]) -> Vec<u8> {
    object(vec![
        ("version", Value::number_u64(version)),
        (
            "decisions",
            Value::Array(decisions.iter().map(frames::decision_value).collect()),
        ),
    ])
    .render()
    .into_bytes()
}

/// Payload bytes of the two decisions that carry one.
fn payload(decision: &Decision) -> Vec<u8> {
    match decision {
        Decision::Surrogate(script) => frames::encode_surrogate_payload(script),
        Decision::Rewrite(rewritten) => frames::encode_rewrite_payload(rewritten),
        _ => Vec::new(),
    }
}

pub fn binary_single(version: u64, decision: &Decision) -> Vec<u8> {
    let payload = payload(decision);
    let header = match decision {
        Decision::Surrogate(_) => {
            frames::encode_surrogate_single_header(version, payload.len() as u32)
        }
        Decision::Rewrite(_) => frames::encode_rewrite_single_header(version, payload.len() as u32),
        fixed => frames::encode_fixed_single(fixed, version),
    };
    [&header[..], &payload[..]].concat()
}

pub fn binary_batch(version: u64, decisions: &[Decision]) -> Vec<u8> {
    let mut out = vec![PROTO_VERSION];
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(decisions.len() as u32).to_le_bytes());
    for decision in decisions {
        let (action, source) = frames::codes_of(decision);
        let payload = payload(decision);
        out.extend_from_slice(&frames::encode_record_header(
            action,
            source,
            payload.len() as u32,
        ));
        out.extend_from_slice(&payload);
    }
    out
}
