//! Surrogate script generation (paper §5, "Blocking mixed scripts").
//!
//! Once TrackerSift has classified the methods of a mixed script, a
//! *surrogate* can be generated: a replacement script that keeps the
//! functional methods, removes the tracking methods, and wraps the methods
//! that remain mixed in a *guard* — a predicate that blocks the tracking
//! invocations while allowing the functional ones (the paper sketches
//! deriving the predicate from invariants over the calling context; we
//! derive it from the stack-divergence analysis of Figure 5). Content
//! blockers such as uBlock Origin and Firefox SmartBlock ship hand-written
//! surrogates today; TrackerSift makes generating them automatic.

use crate::callstack::{build_call_graph, CallGraph};
use crate::hierarchy::{Granularity, HierarchyResult};
use crate::intern::ResourceKey;
use crate::label::LabeledRequest;
use crate::ratio::Classification;
use std::collections::HashMap;

/// What the surrogate does with one method of the original script.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodAction {
    /// The method is functional: kept verbatim.
    Keep,
    /// The method is tracking: replaced with an inert no-op stub so callers
    /// do not crash (the SmartBlock approach).
    Stub,
    /// The method is mixed: kept but wrapped in a guard predicate that
    /// blocks invocations whose call stack passes through a tracking-only
    /// divergence point.
    Guard {
        /// `script @ method` labels of the divergence points the guard
        /// checks for.
        blocked_callers: Vec<String>,
    },
}

/// The surrogate plan for one mixed script.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateScript {
    /// URL of the original mixed script.
    pub script_url: String,
    /// Action per method name.
    pub methods: Vec<(String, MethodAction)>,
    /// Number of tracking requests that the surrogate suppresses.
    pub suppressed_tracking_requests: u64,
    /// Number of functional requests the surrogate preserves.
    pub preserved_functional_requests: u64,
}

/// One method's inputs to the shared surrogate-plan constructor: its name,
/// classification, request counts, and (for mixed methods) the tracking-only
/// divergence points a guard can check for. Both
/// [`generate_surrogates`] (batch, with call stacks) and the serving-side
/// [`decision`](crate::decision) layer (committed counts only, no stacks)
/// reduce their data to this shape so the two paths can never disagree on
/// what a surrogate looks like.
#[derive(Debug, Clone)]
pub(crate) struct MethodPlan {
    /// Method name.
    pub(crate) name: String,
    /// The method-level classification driving the action.
    pub(crate) classification: Classification,
    /// Tracking requests attributed to the method.
    pub(crate) tracking: u64,
    /// Functional requests attributed to the method.
    pub(crate) functional: u64,
    /// `script @ method` labels of tracking-only divergence points (empty
    /// when no call-stack evidence is available).
    pub(crate) blocked_callers: Vec<String>,
}

impl SurrogateScript {
    /// The one constructor both the batch and the serving path use: map
    /// each method's classification to its action and account for what the
    /// surrogate suppresses and preserves. `methods` must already be sorted
    /// by name (the canonical order of the rendered payload).
    pub(crate) fn from_method_plans(script_url: String, methods: Vec<MethodPlan>) -> Self {
        let mut out = Vec::with_capacity(methods.len());
        let mut suppressed = 0u64;
        let mut preserved = 0u64;
        for plan in methods {
            let action = match plan.classification {
                Classification::Functional => {
                    preserved += plan.functional;
                    MethodAction::Keep
                }
                Classification::Tracking => {
                    suppressed += plan.tracking;
                    MethodAction::Stub
                }
                Classification::Mixed => {
                    // A guard only suppresses what it can distinguish.
                    if !plan.blocked_callers.is_empty() {
                        suppressed += plan.tracking;
                    }
                    preserved += plan.functional;
                    MethodAction::Guard {
                        blocked_callers: plan.blocked_callers,
                    }
                }
            };
            out.push((plan.name, action));
        }
        SurrogateScript {
            script_url,
            methods: out,
            suppressed_tracking_requests: suppressed,
            preserved_functional_requests: preserved,
        }
    }

    /// Methods kept unchanged.
    pub fn kept(&self) -> usize {
        self.methods
            .iter()
            .filter(|(_, a)| matches!(a, MethodAction::Keep))
            .count()
    }

    /// Methods stubbed out.
    pub fn stubbed(&self) -> usize {
        self.methods
            .iter()
            .filter(|(_, a)| matches!(a, MethodAction::Stub))
            .count()
    }

    /// Methods wrapped in guards.
    pub fn guarded(&self) -> usize {
        self.methods
            .iter()
            .filter(|(_, a)| matches!(a, MethodAction::Guard { .. }))
            .count()
    }

    /// Render the surrogate as a human-readable pseudo-JavaScript sketch —
    /// what a blocker would ship as the shim payload.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("// Surrogate for {}\n", self.script_url));
        out.push_str("// Generated by TrackerSift: functional methods kept, tracking methods\n");
        out.push_str("// stubbed, mixed methods guarded by call-stack predicates.\n");
        for (name, action) in &self.methods {
            match action {
                MethodAction::Keep => {
                    out.push_str(&format!(
                        "export {{ {name} }} from 'original'; // functional\n"
                    ));
                }
                MethodAction::Stub => {
                    out.push_str(&format!(
                        "export function {name}() {{ /* tracking removed */ }}\n"
                    ));
                }
                MethodAction::Guard { blocked_callers } => {
                    out.push_str(&format!("export function {name}(...args) {{\n"));
                    out.push_str("  const stack = captureStack();\n");
                    for caller in blocked_callers {
                        out.push_str(&format!(
                            "  if (stack.includes('{caller}')) return; // tracking path\n"
                        ));
                    }
                    out.push_str(&format!("  return original.{name}(...args);\n}}\n"));
                }
            }
        }
        out
    }
}

/// Generate surrogates for every mixed script in a hierarchy result.
///
/// `requests` must be the same labeled requests the hierarchy was computed
/// from; they provide the per-method request counts and the stacks for the
/// guard predicates.
pub(crate) fn generate_surrogates(
    result: &HierarchyResult,
    requests: &[LabeledRequest],
) -> Vec<SurrogateScript> {
    let script_level = result.level(Granularity::Script);
    let method_level = result.level(Granularity::Method);

    // Classification of each (script, method) key at the method level.
    let method_class: HashMap<&str, Classification> = method_level
        .resources
        .iter()
        .map(|r| (r.key.as_str(), r.classification))
        .collect();

    let mut surrogates = Vec::new();
    for script in script_level
        .resources
        .iter()
        .filter(|r| r.classification == Classification::Mixed)
    {
        // All requests initiated by this script (any target), grouped by method.
        let mut by_method: HashMap<&str, Vec<&LabeledRequest>> = HashMap::new();
        for request in requests
            .iter()
            .filter(|r| *r.initiator_script == *script.key)
        {
            by_method
                .entry(&*request.initiator_method)
                .or_default()
                .push(request);
        }

        let mut plans = Vec::new();
        let mut method_names: Vec<&&str> = by_method.keys().collect();
        method_names.sort();
        for method in method_names {
            let reqs = &by_method[*method];
            let key = ResourceKey::method_label(&script.key, method);
            let class = method_class.get(key.as_str()).copied().unwrap_or_else(|| {
                // The method never reached the method level (its requests
                // were attributed earlier); classify it directly from its
                // own requests.
                let mut counts = crate::ratio::Counts::default();
                for r in reqs.iter() {
                    counts.record(r.is_tracking());
                }
                result
                    .thresholds
                    .classify(&counts)
                    .unwrap_or(Classification::Mixed)
            });
            let tracking = reqs.iter().filter(|r| r.is_tracking()).count() as u64;
            let functional = reqs.len() as u64 - tracking;
            let blocked_callers = if class == Classification::Mixed {
                let graph: CallGraph = build_call_graph(&script.key, method, reqs.iter().copied());
                graph
                    .divergence_points()
                    .into_iter()
                    .map(|(n, _)| n.label())
                    .collect()
            } else {
                Vec::new()
            };
            plans.push(MethodPlan {
                name: (*method).to_string(),
                classification: class,
                tracking,
                functional,
                blocked_callers,
            });
        }

        surrogates.push(SurrogateScript::from_method_plans(
            script.key.clone(),
            plans,
        ));
    }
    surrogates.sort_by(|a, b| a.script_url.cmp(&b.script_url));
    surrogates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchicalClassifier;
    use crate::label::LabeledRequest;
    use crawler::StackFrame;
    use filterlist::{RequestLabel, ResourceType};

    fn req(
        hostname: &str,
        script: &str,
        method: &str,
        tracking: bool,
        extra_frame: Option<(&str, &str)>,
    ) -> LabeledRequest {
        let mut stack = vec![StackFrame::new(script, method)];
        if let Some((s, m)) = extra_frame {
            stack.push(StackFrame::new(s, m));
        }
        LabeledRequest {
            request_id: 0,
            top_level_url: "https://www.pub.com/".into(),
            site_domain: "pub.com".into(),
            url: format!("https://{hostname}/x").into(),
            domain: "hub.com".into(),
            hostname: hostname.into(),
            resource_type: ResourceType::Xhr,
            initiator_script: script.into(),
            initiator_method: method.into(),
            stack: stack.into(),
            async_boundary: None,
            label: if tracking {
                RequestLabel::Tracking
            } else {
                RequestLabel::Functional
            },
        }
    }

    /// One mixed script `bundle.js` with a tracking method, a functional
    /// method, and a mixed dispatcher whose tracking calls always come via a
    /// `pixel.js firePixel` caller.
    fn requests() -> Vec<LabeledRequest> {
        let host = "www.hub.com";
        let script = "https://www.pub.com/bundle.js";
        let mut v = Vec::new();
        for _ in 0..6 {
            v.push(req(host, script, "trackEvent", true, None));
            v.push(req(host, script, "render", false, None));
        }
        for _ in 0..3 {
            v.push(req(
                host,
                script,
                "xhr",
                true,
                Some(("https://www.pub.com/pixel.js", "firePixel")),
            ));
            v.push(req(
                host,
                script,
                "xhr",
                false,
                Some(("https://www.pub.com/app.js", "fetchData")),
            ));
        }
        v
    }

    #[test]
    fn surrogate_keeps_stubs_and_guards_as_expected() {
        let requests = requests();
        let result = HierarchicalClassifier::default().classify(&requests);
        let surrogates = generate_surrogates(&result, &requests);
        assert_eq!(surrogates.len(), 1);
        let s = &surrogates[0];
        assert_eq!(s.kept(), 1, "{:?}", s.methods);
        assert_eq!(s.stubbed(), 1, "{:?}", s.methods);
        assert_eq!(s.guarded(), 1, "{:?}", s.methods);
        // The guard blocks the pixel.js caller.
        let guard = s
            .methods
            .iter()
            .find_map(|(n, a)| match a {
                MethodAction::Guard { blocked_callers } if n == "xhr" => {
                    Some(blocked_callers.clone())
                }
                _ => None,
            })
            .unwrap();
        assert!(guard.iter().any(|c| c.contains("pixel.js")));
        assert!(s.suppressed_tracking_requests >= 9);
        assert!(s.preserved_functional_requests >= 9);
    }

    #[test]
    fn render_mentions_every_method() {
        let requests = requests();
        let result = HierarchicalClassifier::default().classify(&requests);
        let surrogates = generate_surrogates(&result, &requests);
        let text = surrogates[0].render();
        for (name, _) in &surrogates[0].methods {
            assert!(text.contains(name), "render misses {name}");
        }
        assert!(text.contains("tracking removed"));
    }

    #[test]
    fn purely_functional_scripts_get_no_surrogate() {
        let host = "www.hub.com";
        let reqs: Vec<LabeledRequest> = (0..10)
            .map(|_| req(host, "https://www.pub.com/app.js", "fetch", false, None))
            .collect();
        let result = HierarchicalClassifier::default().classify(&reqs);
        assert!(generate_surrogates(&result, &reqs).is_empty());
    }
}
